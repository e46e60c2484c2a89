# The two reformulation strategies for concave terms, side by side:
# a least-squares quadratic (model size unchanged, visible bias) and a
# piecewise-linear table (exact at breakpoints, kept as one "pwl" term
# that the relaxation bounds by its convex hull).

import numpy as np

from gdpkit import (ApproxPolicy, GdpModel, apply_approximation,
                    bigm_transform, build_pwl, fit_quadratic, pwl_envelope)

f = lambda x: np.asarray(x, dtype=float) ** 0.7

# -- quadratic fit ------------------------------------------------------
fit = fit_quadratic(f, 1.0, 10.0, 1000)
print(f"quadratic fit of x^0.7 on [1, 10]:")
print(f"  q(x) = {fit.a:+.6f} x^2 {fit.b:+.6f} x {fit.c:+.6f}")
print(f"  max |q - f| = {fit.max_abs_error:.5f}   rms = {fit.rms_error:.5f}")
print(f"  normal-equation residual = {fit.normal_residual:.2e}")

# -- piecewise tables ---------------------------------------------------
print("\npiecewise tables for x^0.7 on [0, 1]:")
for segments in (11, 31, 101):
    table = build_pwl(f, 0.0, 1.0, segments)
    print(f"  {segments:3d} segments -> max grid error "
          f"{table.max_grid_error(f):.6f}")

# More segments always help; the error falls roughly with the square of
# the segment count away from the steep left edge.

# -- the table as a model term -----------------------------------------
m = GdpModel()
x = m.add_variable("x", 0.0, 1.0)
m.objective.add_power(1.0, x, 0.7)
out, report = apply_approximation(m, ApproxPolicy("pwl", n_segments=5))
kind, coef, var, (xs, ys) = out.objective.terms[0]
print(f"\npwl-5 replaces x^0.7 by a {kind!r} term over breakpoints "
      f"{', '.join(f'{b:g}' for b in xs)}")
print(f"certified max error {report[0]['max_abs_error']:.5f}, and no "
      f"variable or row added:")
print(f"flattened size before: {bigm_transform(m).counts()}")
print(f"flattened size after:  {bigm_transform(out).counts()}")

# -- its envelope on sub-boxes -----------------------------------------
# Over a box the relaxation keeps the chord below and the line of each
# segment the box meets above: the convex hull of the table's graph.
for box in ((0.1, 0.7), (0.45, 0.55)):
    env = pwl_envelope((xs, ys), box)
    print(f"\nenvelope rows on [{box[0]}, {box[1]}]:")
    for row in env.rows:
        print(f"  w {row.coefs['x']:+.6f} x {row.sense} {row.rhs:+.6f}")
    mid = 0.5 * (box[0] + box[1])
    lo = max(row.rhs - row.coefs["x"] * mid for row in env.rows
             if row.sense == ">=")
    hi = min(row.rhs - row.coefs["x"] * mid for row in env.rows
             if row.sense == "<=")
    print(f"  at x = {mid:g}: {lo:.6f} <= w <= {hi:.6f}, table "
          f"{float(np.interp(mid, xs, ys)):.6f}")

# The second box lies inside one segment, so its chord is that
# segment's line and the rows pin w to the table: spatial branching on
# x closes the gap without any binary.
