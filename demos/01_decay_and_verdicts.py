"""Decay curves and the three-valued verdict, on three circle maps.

The quantity measured is the mass of sample points that stay within
delta of the center's orbit for every step of a length-n window.  For
an isometry that mass never moves; for the doubling map it halves with
each extra step; the verdict turns the terminal mass into evidence.

Run: python3 demos/01_decay_and_verdicts.py
"""
import dynball as db

SEED = 7

mu = db.make_lebesgue(db.circle())

print("decay of the window mass, delta = 0.05, center x = 0.2")
print(f"{'n':>3} {'rotation':>10} {'doubling':>10} {'identity':>10}")
series = {}
for f in (db.make_rotation(), db.make_doubling(), db.make_identity()):
    series[f.name] = db.decay_series(f, mu, (0.2,), 0.05, n_max=12,
                                     samples=50_000, seed=SEED)
for i in range(12):
    row = [series[name].estimate[i] for name in ("rotation", "doubling", "identity")]
    print(f"{i + 1:>3} {row[0]:>10.5f} {row[1]:>10.5f} {row[2]:>10.5f}")

print()
print("the rotation and identity columns sit at 2*delta = 0.10 forever;")
print("the doubling column halves per step because each application of")
print("the map doubles the distance between nearby points.")

print()
print("verdicts at delta = 0.05 (threshold 0.01), 20 probe centers:")
for f in (db.make_rotation(), db.make_doubling(), db.make_identity()):
    v = db.expansiveness_verdict(f, mu, 0.05, n_max=20, samples=50_000,
                                 x_probes=20, seed=SEED)
    extra = (f"worst upper bound {v.worst_upper_bound:.5f}"
             if v.verdict == "evidence_expansive"
             else f"witness mass >= {v.witness_lower_bound:.4f}")
    print(f"  {f.name:<10} {v.verdict:<25} {extra}")

print()
print("an atomic measure can never look expansive: every window around")
print("the atom keeps the atom.")
atom = db.make_dirac(db.Point(db.circle(), (0.25,)))
v = db.expansiveness_verdict(db.make_rotation(), atom, 0.05, n_max=10,
                             samples=1_000, x_probes=20, seed=SEED)
print(f"  rotation + dirac:0.25 -> {v.verdict} "
      f"(witness mass {v.witness_lower_bound:.3f})")
