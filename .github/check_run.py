"""Check the stdout of one benchmark run, plain or traced.

    python3 perfbench/run.py --workload pair-fused --trace 1 --seconds 2 > out.txt
    python3 .github/check_run.py --trace 1 out.txt

``--trace`` names the kind of run, as ``perfbench/run.py`` takes it.  Exits 1,
naming each problem, when a line reports an absent layer, when the last line
is not a JSON result (NaN and Infinity rejected) with ``correct`` true and
``failed`` 0, or when a metric that ``BENCHMARK.json`` names for that kind of
run (``end_to_end`` for a plain run, ``per_layer`` for a traced one) is missing
from its ``metrics``.
"""

import argparse
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _reject(token):
    raise ValueError(f"non-finite number {token}")


def problems(lines: list[str], trace: int) -> list[str]:
    found = [line for line in lines if line.startswith("absent layer:")]
    try:
        result = json.loads(lines[-1] if lines else "", parse_constant=_reject)
    except ValueError as exc:
        return found + [f"last line is not a JSON result: {exc}"]
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}")
    if result.get("failed") != 0:
        found.append(f"failed is {result.get('failed')!r}")
    group = "per_layer" if trace else "end_to_end"
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())[group]]
    metrics = result.get("metrics") or {}
    found += [f"{group} metric {name} missing" for name in names if name not in metrics]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("path", help="the run's stdout")
    args = parser.parse_args(argv)
    found = problems(Path(args.path).read_text().splitlines(), args.trace)
    for line in found:
        print(f"{args.path}: {line}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
