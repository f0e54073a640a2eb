"""Run a slice of the theorem battery and print the Markdown report.

Each case packages one qualitative claim as a seeded Monte-Carlo check;
the report is byte-identical for any worker count because every case
derives its own random stream from (seed, case id) and the assembly
order is fixed.

Run: python3 demos/04_battery_report.py          (subset, a few seconds)
     python3 demos/04_battery_report.py --full   (all ten cases)
"""
import sys
import time
from dataclasses import asdict

import dynball as db

full = "--full" in sys.argv[1:]
cases = None if full else ["isometry", "thD", "pp2", "exxx1"]

t0 = time.perf_counter()
report = db.run_battery(case_filter=cases, seed=7, workers=2)
dt = time.perf_counter() - t0

print(report.to_markdown())
record = asdict(report)  # the battery.json object, field for field
print(f"({sum(report.summary.values())} cases in {dt:.1f}s; "
      f"asdict(report) holds {', '.join(sorted(record))})")

for case in report.cases:
    if case.outcome != "pass":
        print(f"  {case.id}: {case.outcome} {case.error or ''}")
