"""Check the stdout of one traced benchmark run.

    python3 perfbench/run.py --workload pair-fused --trace 1 --seconds 2 > out.txt
    python3 .github/check_traced_run.py out.txt

Exits 1, naming each problem, when a line reports an absent layer, when the
last line is not a JSON result (NaN and Infinity rejected) with ``correct``
true and ``failed`` 0, or when a ``per_layer`` metric named in
``BENCHMARK.json`` is missing from its ``metrics``.
"""

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _reject(token):
    raise ValueError(f"non-finite number {token}")


def problems(lines: list[str]) -> list[str]:
    found = [line for line in lines if line.startswith("absent layer:")]
    try:
        result = json.loads(lines[-1] if lines else "", parse_constant=_reject)
    except ValueError as exc:
        return found + [f"last line is not a JSON result: {exc}"]
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}")
    if result.get("failed") != 0:
        found.append(f"failed is {result.get('failed')!r}")
    names = [layer["name"] for layer in json.loads(BENCHMARK.read_text())["per_layer"]]
    metrics = result.get("metrics") or {}
    found += [f"per_layer metric {name} missing" for name in names if name not in metrics]
    return found


def main(path: str) -> int:
    found = problems(Path(path).read_text().splitlines())
    for line in found:
        print(f"{path}: {line}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
