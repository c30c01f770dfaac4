"""Run the benchmark repeatedly and report how steady its metrics are.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/out/set-a.json
    python3 perfbench/steadiness.py --compare perfbench/out/set-a.json perfbench/out/set-b.json

Each run is its own process, started only after the previous one ended,
with seeds first-seed, first-seed + 1, ... and every workload in turn for
each seed.  For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound from BENCHMARK.json.  ``--compare``
prints how far the second set's medians moved from the first's, in the
metric's worse direction, as a share of the first median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / spec["command"][1]), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, wall_s=wall)
    return result


def summarise(results: list, spec: dict) -> list:
    rows = []
    for wl in sorted({r["workload"] for r in results}):
        runs = [r for r in results if r["workload"] == wl]
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rows.append(dict(workload=wl, metric=m["name"], median=med, q1=q1, q3=q3,
                             spread=(q3 - q1) / med if med else 0.0, bound=m["bound"],
                             n=len(values)))
    return rows


def print_rows(rows: list) -> None:
    print(f"{'workload':<11} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for r in rows:
        print(f"{r['workload']:<11} {r['metric']:<16} {r['median']:>12.5g} {r['q1']:>12.5g} "
              f"{r['q3']:>12.5g} {r['spread']:>8.4f} {r['bound']:>6.2f}")


def compare(path_a: str, path_b: str, spec: dict) -> None:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    print(f"{'workload':<11} {'metric':<16} {'median A':>12} {'median B':>12} {'worse by':>9} "
          f"{'bound':>6}")
    for ra, rb in zip(a["summary"], b["summary"]):
        sign = 1.0 if better[ra["metric"]] == "lower" else -1.0
        worse = sign * (rb["median"] - ra["median"]) / ra["median"] if ra["median"] else 0.0
        print(f"{ra['workload']:<11} {ra['metric']:<16} {ra['median']:>12.5g} "
              f"{rb['median']:>12.5g} {worse:>9.4f} {ra['bound']:>6.2f}")
    for name, res in (("A", a["results"]), ("B", b["results"])):
        shares = {(r["workload"], r["failed"] / r["attempted"]) for r in res}
        print(f"set {name}: failed shares {sorted(shares)}; "
              f"all correct: {all(r['correct'] for r in res)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", help="write results and summary here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("SET_A", "SET_B"))
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        compare(*args.compare, spec)
        return 0
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for wl in workloads:
            r = run_once(spec, wl, seed, seconds, trace=0)
            results.append(r)
            print(f"{wl} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} wall {r['wall_s']:.1f} s", flush=True)
    rows = summarise(results, spec)
    print_rows(rows)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"results": results, "summary": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
