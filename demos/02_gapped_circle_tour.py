"""Tour of the gapped circle homeomorphism and its minimal measure.

The construction blows up one orbit of an irrational rotation into a
bi-infinite family of gaps whose total length is 1/2, truncated to the
2N+1 central gaps plus one squeezed remainder.  The resulting map is a
circle homeomorphism with the same rotation number as the base rotation
but with a wandering Cantor-like invariant set; the measure supported
on that set is the one that witnesses expansiveness.

``build_denjoy`` returns the construction whose knots, gaps and staircase
are read below; ``make_denjoy`` and ``make_denjoy_minimal`` build the
system and the measure from the same parameters, alpha and N.

Run: python3 demos/02_gapped_circle_tour.py
"""
import numpy as np

import dynball as db

alpha, N = db.denjoy.GOLDEN_CONJUGATE, 64
c = db.build_denjoy(alpha, N)
print(f"construction: alpha = {c.alpha:.9f}, N = {c.N}")
print(f"  retained gaps: {len(c.gap_lengths)}")
print(f"  total gap length: {np.sum(c.gap_lengths):.6f}")
print(f"  smallest retained gap: {c.smallest_gap:.3e}")
print(f"  affine-piece knots: {len(c.map_x):,} "
      f"(gap endpoints, four bracket pins, one wrap knot)")

print()
print("collapsing every gap recovers the rigid rotation (semiconjugacy),")
print("so the map's rotation number is alpha:")
f = db.make_denjoy(alpha, N)
t = np.linspace(0.05, 0.95, 7).reshape(-1, 1)
for row in t:
    before = c.staircase(row)[0]
    after = c.staircase(f.forward(row.reshape(1, -1))[:, 0])[0]
    defect = (after - before - c.alpha) % 1.0
    defect = min(defect, 1.0 - defect)
    print(f"  t = {row[0]:.2f}: collapsed image moves by alpha "
          f"(defect {defect:.1e})")

print()
print("the minimal measure charges arcs by how many orbit points they hold:")
nu = db.make_denjoy_minimal(alpha, N)
for lo, hi in ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)):
    print(f"  nu([{lo:.2f}, {hi:.2f}]) = {c.arc_mass(lo, hi):.4f}")

print()
delta = c.smallest_gap / 2.0
print(f"at delta = half the smallest gap ({delta:.2e}) the window mass dies:")
v = db.expansiveness_verdict(f, nu, delta, n_max=30, samples=50_000,
                             x_probes=20, seed=7)
print(f"  gapped map + minimal measure -> {v.verdict}")
rot = db.make_rotation()
w = db.expansiveness_verdict(rot, nu, 0.05, n_max=30, samples=50_000,
                             x_probes=20, seed=7)
print(f"  rigid rotation + same measure -> {w.verdict} "
      f"(witness mass {w.witness_lower_bound:.4f})")
print()
print("separating the two maps is the point: metrically they are close,")
print("but only the gapped one pulls the measure's support apart.")
