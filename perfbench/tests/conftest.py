import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the benchmark's modules are plain scripts next to run.py; dynball comes
# from the checkout's src/, as it does for the benchmark itself
for path in (HERE.parent, HERE.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
