# The two reformulation strategies for concave terms, side by side:
# a least-squares quadratic (model size unchanged, visible bias) and a
# piecewise-linear table (exact at breakpoints, kept as one "pwl" term
# that the relaxation bounds by its convex hull).

import numpy as np

from gdpkit import (ApproxPolicy, GdpModel, apply_approximation,
                    bigm_transform, build_lp_relaxation, fit_quadratic)

f = lambda x: np.asarray(x, dtype=float) ** 0.7

# -- quadratic fit ------------------------------------------------------
fit = fit_quadratic(f, 1.0, 10.0, 1000)
print(f"quadratic fit of x^0.7 on [1, 10]:")
print(f"  q(x) = {fit.a:+.6f} x^2 {fit.b:+.6f} x {fit.c:+.6f}")
print(f"  max |q - f| = {fit.max_abs_error:.5f}   rms = {fit.rms_error:.5f}")
print(f"  normal-equation residual = {fit.normal_residual:.2e}")

# -- piecewise tables ---------------------------------------------------
# apply_approximation certifies each table on a dense grid and reports
# the error with the term it replaced.
m = GdpModel()
x = m.add_variable("x", 0.0, 1.0)
m.objective.add_power(1.0, x, 0.7)
print("\npiecewise tables for x^0.7 on [0, 1]:")
for segments in (11, 31, 101):
    _, report = apply_approximation(m, ApproxPolicy("pwl", segments))
    print(f"  {segments:3d} segments -> max grid error "
          f"{report[0]['max_abs_error']:.6f}")

# More segments always help; the error falls roughly with the square of
# the segment count away from the steep left edge.

# -- the table as a model term -----------------------------------------
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
# The model has no rows of its own, so every row of its LP relaxation
# is a hull row over the columns x and w (the term's aux column).
flat = bigm_transform(out)
for box in ((0.1, 0.7), (0.45, 0.55)):
    lp = build_lp_relaxation(flat, [box[0]], [box[1]])
    print(f"\nhull rows on [{box[0]}, {box[1]}]:")
    for (ax, _), sense, rhs in zip(lp.A, lp.senses, lp.b):
        print(f"  w {ax:+.6f} x {sense} {rhs:+.6f}")
    mid = 0.5 * (box[0] + box[1])
    bound = lp.b - lp.A[:, 0] * mid
    ge = np.array(lp.senses) == ">="
    print(f"  at x = {mid:g}: {bound[ge].max():.6f} <= w <= "
          f"{bound[~ge].min():.6f}, table {float(np.interp(mid, xs, ys)):.6f}")

# The second box lies inside one segment, so its chord is that
# segment's line and the rows pin w to the table: spatial branching on
# x closes the gap without any binary.
