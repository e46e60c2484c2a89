# The global solver on two tiny but telling instances: a nonconvex
# bilinear objective that local reasoning gets wrong, and a toy MILP.

import numpy as np

from gdpkit import Constraint, Expression, lp_solve, solve_global
from gdpkit.relax import build_lp_relaxation
from gdpkit.transforms import FlatModel

# min -x*y  s.t.  x + y <= 1,  x, y in [0, 1].
# The product envelope admits w = 0.5 at (0.5, 0.5), so the root
# relaxation claims -0.5 while the true optimum is -0.25.
flat = FlatModel(sense="min")
x = flat.add_variable("x", 0.0, 1.0)
y = flat.add_variable("y", 0.0, 1.0)
flat.objective = Expression().add_bilinear(-1.0, x, y)
flat.add_constraint(
    Constraint(Expression().add_linear(1.0, x).add_linear(1.0, y),
               "<=", 1.0, "cap"), {"kind": "global"})

# The root LP's columns are x, y and w, the product's aux column.
root = lp_solve(build_lp_relaxation(flat, *flat.bounds_arrays()))
print("root relaxation bound:", root.objective)
print("envelope violation |w - x*y| at the root point:",
      abs(root.x[2] - root.x[0] * root.x[1]))

res = solve_global(flat, gap=1e-4)
print(f"global solve: {res.status}, objective {res.objective:.6f} "
      f"at {np.round(res.x, 4)}, bound {res.bound:.6f}, "
      f"gap {res.gap:.2e}, {res.nodes} nodes")

# Brute-force check on a 201 x 201 grid.
g = np.linspace(0, 1, 201)
X, Y = np.meshgrid(g, g)
mask = X + Y <= 1
print("grid oracle minimum:", float((-X * Y)[mask].min()))

# A pure MILP falls out of the same machinery: binaries are branched
# to integrality and the LP bound does the pruning.
milp = FlatModel(sense="min")
a = milp.add_variable("pick_a", 0.0, 1.0, "binary")
b = milp.add_variable("pick_b", 0.0, 1.0, "binary")
milp.objective = Expression().add_linear(-1.0, a).add_linear(-2.0, b)
milp.add_constraint(
    Constraint(Expression().add_linear(1.0, a).add_linear(1.0, b),
               "<=", 1.0, "one_of"), {"kind": "global"})
res = solve_global(milp)
print(f"\nMILP: {res.status}, objective {res.objective}, picks {res.x}")
