"""Executable theorem battery over the system zoo.

Each case restates one qualitative claim about expansiveness as a
deterministic, seeded Monte-Carlo check with fixed budgets.  Outcomes:
``pass`` (claim's observable consequence held), ``fail`` (it did not),
``vacuous`` (the claim's hypothesis never triggered), ``inconclusive``
(estimator error or CI too wide to call).  A failing case signals an
implementation bug or an undersized budget, never an expected outcome;
the documented triage step is rerunning the case at 4x samples.

Case ids are the short anchors the CLI exposes via ``explain``.
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from . import __version__
from . import geometry as geo
from .denjoy import build_denjoy
from .entropy import entropy_implies_expansive_check, volume_expanding_check
from .expansiveness import (converging_semiorbit_fraction, expansiveness_verdict,
                            generator_check, periodic_fraction,
                            power_consistency_check, product_diagonal_test)
from .measures import make_denjoy_minimal, make_lebesgue, pushforward
from .rng import derive_seed
from .systems import (make_cat, make_denjoy, make_doubling, make_identity,
                      make_interval_square, make_rotation, make_tent)

NOT_EXPANSIVE = "evidence_not_expansive"
EXPANSIVE = "evidence_expansive"


@lru_cache(maxsize=2)
def _denjoy_construction(N: int = 64):
    return build_denjoy(N=N)


@dataclass(frozen=True)
class TheoremCase:
    id: str
    claim: str
    systems: tuple[str, ...]
    measures: tuple[str, ...]
    settings: dict
    expectation: str
    outcome: str = "inconclusive"
    details: dict = field(default_factory=dict)
    error: str | None = None


def _case_isometry(seed: int) -> tuple[str, dict]:
    settings = dict(delta=0.05, n_max=20, samples=50_000, x_probes=20)
    details = {}
    ok = True
    for make in (make_rotation, make_identity):
        f = make()
        v = expansiveness_verdict(f, make_lebesgue(f.space), seed=derive_seed(seed, f.name),
                                  **settings)
        details[f.name] = {"verdict": v.verdict,
                           "witness_lower_bound": v.witness_lower_bound}
        ok &= v.verdict == NOT_EXPANSIVE
    return ("pass" if ok else "fail"), details


def _case_pp2(seed: int) -> tuple[str, dict]:
    grid = (0.1, 0.05)
    details = {}
    ok = True
    for f, k in ((make_doubling(), 2), (make_rotation(), 3), (make_cat(), 2)):
        mu = make_lebesgue(f.space)
        rep = power_consistency_check(f, mu, k, grid, n_max=16, samples=30_000,
                                      seed=derive_seed(seed, f.name, k))
        details[f"{f.name}^{k}"] = asdict(rep)
        ok &= rep.consistent
    return ("pass" if ok else "fail"), details


def _case_diagonal(seed: int) -> tuple[str, dict]:
    details = {}
    ok = True
    for make, band in ((make_doubling, None), (make_cat, None),
                       (make_rotation, (0.08, 0.12))):
        f = make()
        rep = product_diagonal_test(f, make_lebesgue(f.space), delta=0.05,
                                    n_max=12, pair_samples=100_000,
                                    seed=derive_seed(seed, f.name))
        series = rep.pair_series
        details[f.name] = {**asdict(rep), "terminal": series.terminal}
        ok &= rep.agree
        if band is not None:
            ok &= band[0] <= series.terminal <= band[1]
        elif f.name in ("doubling", "cat"):
            ok &= series.ci_high[-1] <= 0.02
    return ("pass" if ok else "fail"), details


def _case_pp0(seed: int) -> tuple[str, dict]:
    space = geo.circle()
    cover = geo.make_ball_cover(space, radius=0.1, step=0.05)
    mu = make_lebesgue(space)
    details = {}
    g = generator_check(make_doubling(), mu, cover, n_max=10,
                        sequence_samples=32, mc_samples=100_000,
                        seed=derive_seed(seed, "doubling"))
    details["doubling"] = asdict(g)
    h = generator_check(make_identity(space), mu, cover, n_max=10,
                        sequence_samples=32, mc_samples=100_000,
                        seed=derive_seed(seed, "identity"))
    details["identity"] = asdict(h)
    ok = g.is_generator_evidence and not h.is_generator_evidence \
        and h.max_intersection_estimate >= 0.15
    return ("pass" if ok else "fail"), details


def _case_reddy(seed: int) -> tuple[str, dict]:
    settings = dict(w=8, tol=1e-6, n_max=40, samples=20_000)
    details = {}
    sq = converging_semiorbit_fraction(make_interval_square(), make_lebesgue(geo.interval()),
                                       seed=derive_seed(seed, "interval-square"), **settings)
    rot = converging_semiorbit_fraction(make_rotation(), make_lebesgue(geo.circle()),
                                        seed=derive_seed(seed, "rotation"), **settings)
    cat = converging_semiorbit_fraction(make_cat(), make_lebesgue(geo.torus2()),
                                        seed=derive_seed(seed, "cat"), **settings)
    den_c = _denjoy_construction()
    den = converging_semiorbit_fraction(make_denjoy(den_c), make_denjoy_minimal(den_c),
                                        seed=derive_seed(seed, "denjoy"), **settings)
    details = {"interval-square": asdict(sq), "rotation": asdict(rot),
               "cat": asdict(cat), "denjoy": asdict(den)}
    # the two expansive homeomorphisms must put (near-)zero mass on
    # converging semi-orbits; the non-expansive interval map is free to
    # put full mass there, and the rotation's orbits never settle
    ok = sq.fraction >= 0.99 and rot.fraction == 0.0 \
        and cat.ci_low <= 0.01 and den.ci_low <= 0.01
    return ("pass" if ok else "fail"), details


def _case_thA(seed: int) -> tuple[str, dict]:
    cat = periodic_fraction(make_cat(), make_lebesgue(geo.torus2()), max_period=6,
                            eps=1e-4, samples=100_000, seed=derive_seed(seed, "cat"))
    ident = periodic_fraction(make_identity(), make_lebesgue(geo.circle()), max_period=1,
                              eps=1e-4, samples=50_000, seed=derive_seed(seed, "identity"))
    details = {"cat": asdict(cat), "identity": asdict(ident)}
    ok = cat.fraction <= 1e-3 and ident.fraction == 1.0
    return ("pass" if ok else "fail"), details


def _case_thD(seed: int) -> tuple[str, dict]:
    f = make_interval_square()
    leb = make_lebesgue(f.space)
    measures = [leb,
                pushforward(leb, np.square, name="pushforward:square"),
                pushforward(leb, np.sqrt, name="pushforward:sqrt")]
    details = {}
    ok = True
    for mu in measures:
        for delta in (0.2, 0.1, 0.05):
            v = expansiveness_verdict(f, mu, delta, n_max=20, samples=30_000,
                                      x_probes=20,
                                      seed=derive_seed(seed, mu.name, repr(delta)))
            details[f"{mu.name}@{delta}"] = v.verdict
            ok &= v.verdict == NOT_EXPANSIVE
    return ("pass" if ok else "fail"), details


def _case_circle1(seed: int) -> tuple[str, dict]:
    c = _denjoy_construction()
    nu = make_denjoy_minimal(c)
    delta_gap = c.smallest_gap / 2.0
    den = expansiveness_verdict(make_denjoy(c), nu, delta_gap, n_max=30,
                                samples=100_000, x_probes=20,
                                seed=derive_seed(seed, "denjoy"))
    rot = make_rotation()
    rot_leb = expansiveness_verdict(rot, make_lebesgue(rot.space), 0.05, n_max=30,
                                    samples=100_000, x_probes=20,
                                    seed=derive_seed(seed, "rotation-lebesgue"))
    rot_nu = expansiveness_verdict(rot, nu, 0.05, n_max=30,
                                   samples=100_000, x_probes=20,
                                   seed=derive_seed(seed, "rotation-minimal"))
    details = {
        "denjoy_delta": delta_gap,
        "denjoy": den.verdict,
        "denjoy_worst_upper": den.worst_upper_bound,
        "rotation_lebesgue": rot_leb.verdict,
        "rotation_minimal": rot_nu.verdict,
    }
    ok = den.verdict == EXPANSIVE and rot_leb.verdict == NOT_EXPANSIVE \
        and rot_nu.verdict == NOT_EXPANSIVE
    return ("pass" if ok else "fail"), details


def _case_emu_positive(seed: int) -> tuple[str, dict]:
    details = {}
    ok = True
    grids = {"doubling": (0.1, 0.05, 0.02), "tent": (0.1, 0.05, 0.02),
             "cat": (0.2, 0.1, 0.05), "rotation": (0.1, 0.05),
             "identity": (0.1, 0.05)}
    for make in (make_doubling, make_tent, make_cat, make_rotation, make_identity):
        f = make()
        rep = entropy_implies_expansive_check(
            f, make_lebesgue(f.space), grids[f.name], n_range=(1, 12),
            x_probes=20, samples=30_000, seed=derive_seed(seed, f.name))
        details[f.name] = asdict(rep)
        ok &= rep.holds
        if f.name in ("doubling", "tent", "cat"):
            ok &= not rep.vacuous
        else:
            ok &= rep.vacuous
    return ("pass" if ok else "fail"), details


def _case_exxx1(seed: int) -> tuple[str, dict]:
    details = {}
    ok = True
    for make in (make_doubling, make_tent, make_rotation, make_cat, make_identity):
        f = make()
        rep = volume_expanding_check(f, horizon=10, probes=100,
                                     seed=derive_seed(seed, f.name))
        row = asdict(rep)
        if rep.detected:
            v = expansiveness_verdict(f, make_lebesgue(f.space), 0.02, n_max=20,
                                      samples=30_000, x_probes=20,
                                      seed=derive_seed(seed, f.name, "verdict"),
                                      sided="one_sided")
            row["one_sided_verdict"] = v.verdict
            ok &= v.verdict != NOT_EXPANSIVE
        details[f.name] = row
    ok &= details["doubling"]["detected"] and details["tent"]["detected"]
    ok &= not details["rotation"]["detected"] and not details["cat"]["detected"]
    ok &= abs(details["doubling"]["lambda_est"] - 2.0) < 1e-9
    return ("pass" if ok else "fail"), details


_CASES = [
    ("isometry",
     "No isometry of a space with more than one point is expansive for a "
     "non-atomic measure: rotation and identity must both come back "
     "evidence_not_expansive under Lebesgue at delta=0.05.",
     ("rotation", "identity"), ("lebesgue",), _case_isometry),
    ("pp2",
     "A map and its k-th power agree on expansiveness: verdicts for f and "
     "f^k over a shared radius grid must not contradict each other.",
     ("doubling", "rotation", "cat"), ("lebesgue",), _case_pp2),
    ("diagonal",
     "The product-measure mass of pairs pinned near the diagonal along the "
     "orbit window equals the probe-averaged window mass (Fubini), and it "
     "decays below threshold exactly for the expansive systems.",
     ("doubling", "cat", "rotation"), ("lebesgue",), _case_diagonal),
    ("pp0",
     "Expansive systems admit a generator: for every tested sequence of "
     "cover elements the orbit-constrained intersection has vanishing mass; "
     "the identity map fails this on the same cover.",
     ("doubling", "identity"), ("lebesgue",), _case_pp0),
    ("reddy",
     "Points whose forward and backward orbits both settle to a limit "
     "carry zero mass under any measure witnessing expansiveness; the "
     "non-expansive interval map concentrates full mass there instead.",
     ("interval-square", "rotation", "cat", "denjoy"),
     ("lebesgue", "denjoy-minimal"), _case_reddy),
    ("thA",
     "Near-periodic points of period <= 6 carry negligible mass for the "
     "expansive torus automorphism; for the identity every point is fixed.",
     ("cat", "identity"), ("lebesgue",), _case_thA),
    ("thD",
     "No homeomorphism of the interval is expansive for any of the tested "
     "measures: every verdict at delta in {0.2, 0.1, 0.05} must be "
     "evidence_not_expansive.",
     ("interval-square",),
     ("lebesgue", "pushforward:square", "pushforward:sqrt"), _case_thD),
    ("circle1",
     "Among circle homeomorphisms only the Denjoy type shows expansiveness: "
     "the gapped map with its minimal measure reads evidence_expansive at "
     "half the smallest gap, while the rigid rotation reads "
     "evidence_not_expansive under both Lebesgue and the minimal measure.",
     ("denjoy", "rotation"), ("denjoy-minimal", "lebesgue"), _case_circle1),
    ("emu-positive",
     "A positive local entropy rate forces one-sided expansiveness "
     "evidence: wherever the rate's lower CI is positive, the one-sided "
     "verdict at that radius must not be evidence_not_expansive.",
     ("doubling", "tent", "cat", "rotation", "identity"), ("lebesgue",),
     _case_emu_positive),
    ("exxx1",
     "Uniform volume growth implies one-sided expansiveness evidence: maps "
     "detected as volume expanding must not read evidence_not_expansive "
     "under Lebesgue.",
     ("doubling", "tent", "rotation", "cat", "identity"), ("lebesgue",),
     _case_exxx1),
]

CASE_IDS = [cid for cid, *_ in _CASES]


def case_info(case_id: str) -> dict:
    for cid, claim, systems, measures, _ in _CASES:
        if cid == case_id:
            return {"id": cid, "claim": claim, "systems": list(systems),
                    "measures": list(measures)}
    raise KeyError(f"unknown case id {case_id!r}; known: {', '.join(CASE_IDS)}")


def consistency_matrix(seed: int = 7) -> dict:
    """Cross-estimator agreement on the circle systems: the decay-probe
    verdict, the pair-diagonal decay, and the generator check must point
    the same way for each system."""
    space = geo.circle()
    mu = make_lebesgue(space)
    cover = geo.make_ball_cover(space, radius=0.1, step=0.05)
    rows = {}
    all_consistent = True
    for f in (make_doubling(), make_identity(space), make_rotation()):
        v = expansiveness_verdict(f, mu, 0.05, n_max=20, samples=30_000,
                                  x_probes=20, seed=derive_seed(seed, "cm", f.name))
        diag = product_diagonal_test(f, mu, 0.05, n_max=12, pair_samples=30_000,
                                     seed=derive_seed(seed, "cm-diag", f.name))
        gen = generator_check(f, mu, cover, n_max=10, sequence_samples=16,
                              mc_samples=30_000,
                              seed=derive_seed(seed, "cm-gen", f.name))
        decay_says = v.verdict == EXPANSIVE
        diag_says = diag.pair_series.ci_high[-1] <= 0.01
        gen_says = gen.is_generator_evidence
        consistent = decay_says == diag_says == gen_says
        all_consistent &= consistent
        rows[f.name] = {
            "verdict": v.verdict,
            "diagonal_terminal_upper": diag.pair_series.ci_high[-1],
            "generator_evidence": gen_says,
            "consistent": consistent,
        }
    return {"rows": rows, "all_consistent": all_consistent}


@dataclass(frozen=True)
class BatteryReport:
    version: str
    seed: int
    cases: tuple[TheoremCase, ...]
    consistency_matrix: dict
    summary: dict  # outcome -> number of cases

    @property
    def all_clear(self) -> bool:
        return self.summary["fail"] == 0 and self.summary["inconclusive"] == 0

    def failing_ids(self) -> list[str]:
        return [c.id for c in self.cases if c.outcome in ("fail", "inconclusive")]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def to_markdown(self) -> str:
        lines = [
            "# Theorem battery",
            "",
            f"version {self.version}, seed {self.seed}",
            "",
            "| case | outcome | systems | claim |",
            "|---|---|---|---|",
        ]
        for c in self.cases:
            lines.append(f"| {c.id} | {c.outcome} | {', '.join(c.systems)} | {c.claim} |")
        lines += [
            "",
            ", ".join(f"{outcome} {n}" for outcome, n in self.summary.items()),
            "",
            f"cross-estimator consistency: "
            f"{'all agree' if self.consistency_matrix['all_consistent'] else 'DISAGREEMENT'}",
            "",
        ]
        return "\n".join(lines)


def _run_case(entry, seed: int) -> TheoremCase:
    cid, claim, systems, meas, runner = entry
    base = TheoremCase(id=cid, claim=claim, systems=systems, measures=meas,
                       settings={"seed": derive_seed(seed, cid) % (1 << 32)},
                       expectation="pass")
    try:
        outcome, details = runner(derive_seed(seed, cid))
        return TheoremCase(**{**base.__dict__, "outcome": outcome, "details": details})
    except Exception as exc:  # recorded, never aborts the battery
        return TheoremCase(**{**base.__dict__, "outcome": "inconclusive",
                              "error": f"{type(exc).__name__}: {exc}"})


def run_battery(case_filter: list[str] | None = None, seed: int = 7,
                workers: int = 1) -> BatteryReport:
    """Run the cases (optionally a subset) and assemble the fixed-order report.

    Per-case seeds depend only on (seed, case id), and assembly order is
    the registry order, so the report is identical for any worker count.
    """
    entries = _CASES
    if case_filter is not None:
        unknown = set(case_filter) - set(CASE_IDS)
        if unknown:
            raise KeyError(f"unknown case ids: {', '.join(sorted(unknown))}")
        entries = [e for e in _CASES if e[0] in case_filter]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            cases = list(pool.map(lambda e: _run_case(e, seed), entries))
    else:
        cases = [_run_case(e, seed) for e in entries]
    tally = {"pass": 0, "fail": 0, "vacuous": 0, "inconclusive": 0}
    for c in cases:
        tally[c.outcome] += 1
    return BatteryReport(
        version=__version__, seed=int(seed), cases=tuple(cases),
        consistency_matrix=consistency_matrix(seed), summary=tally)
