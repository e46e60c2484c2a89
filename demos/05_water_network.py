# End-to-end water treatment network design on the shipped instance:
# build the disjunctive model, solve it to global optimality as it
# stands and under both reformulation strategies, and measure each
# approximate design against the exact model.
#
# The same pipeline is available from the command line:
#   gdpkit --wtn instances/wtn_small.json --approx none
#   gdpkit --wtn instances/wtn_small.json --approx quad
#   gdpkit --wtn instances/wtn_small.json --approx pwl --segments 21

import json
from pathlib import Path

from gdpkit import (
    ApproxPolicy,
    apply_approximation,
    bigm_transform,
    build_wtn_gdp,
    parse_wtn_data,
    relative_error,
    solve_global,
)
from gdpkit.wtn import check_solution

instance = json.loads(
    (Path(__file__).resolve().parent.parent / "instances" / "wtn_small.json")
    .read_text())
data = parse_wtn_data(instance)
gdp = build_wtn_gdp(data)
print(f"instance: {len(data.feed_flow)} feeds, "
      f"{len(data.contaminants)} contaminants, {len(data.units)} units")
original = bigm_transform(gdp)

results = {}
violations = {}
for method, segments in (("none", None), ("quad", None), ("pwl", 21)):
    if method == "none":
        flat, report = original, []
    else:
        policy = ApproxPolicy(method=method, n_segments=segments or 101)
        approxed, report = apply_approximation(gdp, policy)
        flat = bigm_transform(approxed)
    print(f"\n--- {method} ---")
    print("model size:", flat.counts())
    for entry in report:
        print(f"  {entry['var']}: certified max error "
              f"{entry['max_abs_error']:.4f} over {entry['domain']}")
    res = solve_global(flat, gap=1e-4, time_limit=600)
    results[method] = res
    print(f"solved: {res.status}, cost {res.objective:.4f}, "
          f"gap {res.gap:.2e}, {res.nodes} nodes, {res.wall_time:.2f} s")

    streams = gdp.streams
    active = {t: res.x[flat.binary_of_guard[f'Y[{t}]']] > 0.5
              for t in data.units}
    print("selected units:", [t for t, on in active.items() if on])
    for t, on in active.items():
        if on:
            print(f"  {t}: throughput "
                  f"{res.x[streams.unit_in_flow[t]]:.3f}, cost "
                  f"{res.x[streams.cost[t]]:.3f}")
    checks = check_solution(data, streams, res.x, active)
    print("physics checks: mass residual "
          f"{max(checks['mass_residual'].values()):.2e}, limit excess "
          f"{checks['limit_excess']:.2e}")
    # the approximation adds no variables, so the design is a point of
    # the original flat model too
    violations[method] = max(c.violation(res.x) for c in original.constraints)

exact = results["none"].objective
print(f"\nagainst the proved optimum {exact:.6f} of the exact model:")
for method in results:
    print(f"  {method:4s}: objective {results[method].objective:.6f} "
          f"({relative_error(results[method].objective, exact):.4f} % off), "
          f"worst exact-row violation {violations[method]:.2e}")

# Only the exact design passes the 1e-6 check on the original rows; the
# quad fit misses the true cost power by far more than the pwl table.
