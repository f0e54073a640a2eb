import re
from pathlib import Path

import dynball


def test_every_exported_name_resolves():
    missing = [name for name in dynball.__all__ if not hasattr(dynball, name)]
    assert missing == []
    assert len(set(dynball.__all__)) == len(dynball.__all__)


def test_readme_public_api_names_every_export_once():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"`([^`]+)`", section)
    assert len(named) == len(set(named))
    assert set(named) == set(dynball.__all__)


def test_internal_helpers_stay_in_their_modules():
    # the tests' reference for compose_power and bk_entropy's slope fit
    for name in ("iterate", "fit_decay_slope"):
        assert name not in dynball.__all__ and not hasattr(dynball, name)
    assert callable(dynball.systems.iterate) and callable(dynball.entropy.fit_decay_slope)
