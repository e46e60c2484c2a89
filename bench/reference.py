#!/usr/bin/env python3
"""Regenerate the reference figures of bench/README.md.

    python3 bench/reference.py            # about an hour

For each workload: two sets of untraced runs (seeds 1..RUNS, then
RUNS+1..2*RUNS), each summarized by median, quartiles and quartile
spread per metric, and the ratio of the second set's medians to the
first's; TRACED_RUNS traced runs (the per-layer breakdown of seed 1
and the tracing overhead); and, on wtn-*, LOG_OFF_RUNS untraced runs
with the progress log off. Then the environment (cores, BLAS, threads,
source lines) and instances/wtn_small.json under quad, to the gap.
Every run is its own process, one at a time. The JSON summary is
written to bench/out/reference.json.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "bench" / "run.py"
OUT = ROOT / "bench" / "out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
RUNS = 10  # untraced runs per set
TRACED_RUNS = 3
LOG_OFF_RUNS = 5


def bench_run(workload: str, seed: int, trace: int,
              progress_log: int = 1) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace),
           "--progress-log", str(progress_log)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    print(f"  {workload} seed {seed} trace {trace} log {progress_log}: "
          f"{result['wall_s']:.1f} s, attempted {result['attempted']}, "
          f"failed {result['failed']}", file=sys.stderr, flush=True)
    return result


def summarize(results: list[dict]) -> dict:
    """Median, quartiles and (q3 - q1) / median of each metric."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                       else (values[0],) * 3)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": results[0]["metrics"][name]["unit"]}
    out["failed_share"] = sorted({r["failed"] / r["attempted"] for r in results})
    out["attempted"] = [r["attempted"] for r in results]
    out["wall_s"] = [round(r["wall_s"], 1) for r in results]
    return out


def blas_info() -> list[dict]:
    """Build string and live thread count of each OpenBLAS the process
    loaded: numpy and scipy each bundle their own."""
    import numpy  # noqa: F401  (loads numpy's OpenBLAS)
    import scipy.linalg  # noqa: F401  (loads scipy's)
    site = Path(numpy.__file__).resolve().parents[1]
    info = []
    for pattern in ("numpy.libs/libscipy_openblas*.so", "scipy.libs/libscipy_openblas*.so"):
        for path in glob.glob(str(site / pattern)):
            lib = ctypes.CDLL(path)
            suffix = "64_" if "openblas64" in path else ""
            config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            info.append({"library": Path(path).name, "config": config().decode(),
                         "threads": threads()})
    return info


def environment() -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(), "blas": blas_info(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "src_lines": src_lines, "python": sys.version.split()[0]}


def small_reference() -> dict:
    """The shipped network under quad to the gap, at the default threads."""
    code = (
        "import json, sys, time\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from gdpkit import *\n"
        f"gdp = build_wtn_gdp(load_wtn_data({str(ROOT / 'instances' / 'wtn_small.json')!r}))\n"
        "flat = bigm_transform(apply_approximation(gdp, ApproxPolicy('quad'))[0])\n"
        "t = time.perf_counter()\n"
        "r = solve_global(flat, gap=1e-4, workers=1)\n"
        "print(json.dumps({'status': r.status, 'objective': r.objective,\n"
        "                  'bound': r.bound, 'nodes': r.nodes,\n"
        "                  'solve_s': time.perf_counter() - t}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=1800, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def markdown(report: dict) -> str:
    """README tables: end-to-end quartiles of both sets and the traced
    breakdown."""
    lines = ["| workload | metric | median | q1 | q3 | (q3 − q1) / median "
             "| second set's median | second / first | bound |",
             "| --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
    for w in WORKLOADS:
        first, second = report[w]["sets"]
        for name, bound in BOUNDS.items():
            a, b = first[name], second[name]
            lines.append(f"| `{w}` | `{name}` ({a['unit']}) | {a['median']:.4g} "
                         f"| {a['q1']:.4g} | {a['q3']:.4g} | {a['spread']:.3f} "
                         f"| {b['median']:.4g} | {b['median'] / a['median']:.3f} "
                         f"| {bound} |")
    lines += ["", "| metric | " + " | ".join(f"`{w}`" for w in WORKLOADS) + " |",
              "| --- |" + " --- |" * len(WORKLOADS)]
    for name in report[WORKLOADS[0]]["traced"]:
        lines.append(f"| `{name}` | " + " | ".join(
            f"{report[w]['traced'][name]:.4g}" for w in WORKLOADS) + " |")
    return "\n".join(lines)


def print_set(workload: str, label: str, summary: dict) -> None:
    print(f"\n{workload}: {label}")
    for name, bound in BOUNDS.items():
        s = summary[name]
        flag = " OVER a third of the bound" if (
            name != "setup_s" and s["spread"] > bound / 3) else ""
        print(f"  {name:18s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f} (bound {bound}){flag}")
    print(f"  failed share {summary['failed_share']}, "
          f"attempted {summary['attempted']}, wall s {summary['wall_s']}")


def main() -> int:
    report: dict = {"seconds": SECONDS, "runs": RUNS, "env": environment()}
    print(json.dumps(report["env"], indent=1))
    for workload in WORKLOADS:
        entry = report[workload] = {"sets": []}
        for k in range(2):
            seeds = range(k * RUNS + 1, (k + 1) * RUNS + 1)
            entry["sets"].append(summarize(
                [bench_run(workload, s, 0) for s in seeds]))
            print_set(workload, f"untraced, seeds {seeds[0]}..{seeds[-1]}",
                      entry["sets"][-1])
        first, second = entry["sets"]
        for name, bound in BOUNDS.items():
            ratio = second[name]["median"] / first[name]["median"]
            flag = "" if ratio <= 1.0 + bound else " OVER the bound"
            print(f"  second / first median of {name}: {ratio:.4f}{flag}")

        traced = [bench_run(workload, s, 1)
                  for s in range(1, TRACED_RUNS + 1)]
        entry["traced"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        print(f"\n{workload}: traced run, seed 1")
        for name, value in entry["traced"].items():
            print(f"  {name:26s} {value:.6g}")
        with_spans = statistics.median(
            t["metrics"]["bnb.solve_s"]["value"] for t in traced)
        entry["overhead"] = with_spans / first["solve_s"]["median"] - 1.0
        print(f"  tracing overhead on solve_s, median of {TRACED_RUNS} "
              f"traced runs: {100 * entry['overhead']:+.1f} %")

        if workload.startswith("wtn-"):
            off = summarize([bench_run(workload, s, 0, 0)
                             for s in range(1, LOG_OFF_RUNS + 1)])
            entry["log_off_solve_s"] = off["solve_s"]
            on = first["solve_s"]["median"]
            print(f"\n{workload}: solve_s median with the progress log off "
                  f"{off['solve_s']['median']:.6g} s; log on / log off: "
                  f"{on / off['solve_s']['median']:.4f}")

    report["wtn_small_quad"] = small_reference()
    print(f"\nwtn_small.json, quad: {report['wtn_small_quad']}")

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "reference.json").write_text(json.dumps(report, indent=1) + "\n")
    print("\n" + markdown(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
