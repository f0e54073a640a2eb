"""Monte-Carlo estimators for measure-expansive dynamics.

The package measures how fast the mass of dynamical balls decays along
orbit windows, turns those decay curves into three-valued expansiveness
verdicts with Wilson confidence intervals, estimates local entropy rates
from the same curves, and bundles qualitative claims about the system
zoo into a seeded theorem battery.  Everything is deterministic given a
seed: samples come from counter-based streams indexed by sample number,
so results are independent of batch splits and worker counts.

The battery's names are served on first use (``__getattr__``): a data
command never loads ``dynball.battery`` or the thread pool it runs on.
"""
__version__ = "0.1.0"

from .denjoy import DenjoyConstruction, build_denjoy
from .entropy import (EntropyEstimate, bk_entropy, entropy_implies_expansive_check,
                      power_law_check, volume_expanding_check)
from .errors import (CapabilityError, ConstructionError, DynballError,
                     InsufficientSamplesError, NotACoverError, SpaceMismatchError)
from .expansiveness import (DecaySeries, ExpansivenessVerdict,
                            converging_semiorbit_fraction, decay_series,
                            expansiveness_verdict, generator_check,
                            periodic_fraction, power_consistency_check,
                            product_diagonal_test)
from .geometry import (Ball, Point, SpaceDescriptor, circle, distance,
                       interval, lebesgue_number, make_ball_cover, torus2)
from .measures import (MeasureSpec, make_dirac, make_denjoy_minimal,
                       make_lebesgue, make_measure, measure_names, pushforward)
from .systems import (SystemSpec, get_system, make_cat, make_denjoy,
                      make_doubling, make_identity, make_interval_square,
                      make_rotation, make_tent, make_zoo, zoo_names)

__all__ = [
    "__version__",
    "Ball", "Point", "SpaceDescriptor", "circle", "distance", "interval",
    "lebesgue_number", "make_ball_cover", "torus2",
    "SystemSpec", "get_system", "make_cat", "make_denjoy", "make_doubling",
    "make_identity", "make_interval_square", "make_rotation", "make_tent",
    "make_zoo", "zoo_names",
    "DenjoyConstruction", "build_denjoy",
    "MeasureSpec", "make_dirac", "make_denjoy_minimal",
    "make_lebesgue", "make_measure", "measure_names", "pushforward",
    "DecaySeries", "ExpansivenessVerdict", "converging_semiorbit_fraction",
    "decay_series", "expansiveness_verdict", "generator_check",
    "periodic_fraction", "power_consistency_check", "product_diagonal_test",
    "EntropyEstimate", "bk_entropy", "entropy_implies_expansive_check",
    "power_law_check", "volume_expanding_check",
    "BatteryReport", "TheoremCase", "CASE_IDS", "case_info",
    "consistency_matrix", "run_battery",
    "DynballError", "CapabilityError", "ConstructionError",
    "InsufficientSamplesError", "NotACoverError", "SpaceMismatchError",
]

# the names dynball.battery serves, imported from it on first use
_BATTERY_NAMES = frozenset(("BatteryReport", "TheoremCase", "CASE_IDS", "case_info",
                            "consistency_matrix", "run_battery"))


def __getattr__(name: str):
    if name in _BATTERY_NAMES:
        from . import battery
        return getattr(battery, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
