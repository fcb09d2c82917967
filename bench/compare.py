"""Compare two result sets of the benchmark: a parent commit and a change.

Usage: python3 bench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory holding ``<workload>.jsonl`` per workload: the
output of ``bench/run.py`` runs appended in the order they were made, for
example

    python3 bench/run.py --workload mobile-flood --seed 7 --seconds 28 >> .bench_results/parent/mobile-flood.jsonl

Lines that are not a result object are skipped, so whole outputs can be
appended.  The i-th run of the parent is paired with the i-th run of the
change; alternate which side runs first, and use the same seeds on both.

For every workload and metric this prints each side's median and quartiles,
the share of pairs the change won (ties count for neither side) and a
verdict, by the rule of choosing-metrics section 8:

- improved: the change won at least 9 in 10 pairs and its median is better
  than the parent's by more than the parent's quartile distance;
- worse: the change's median is worse than the parent's by more than the
  metric's bound (for a metric without a bound: the parent won 9 in 10 pairs
  and the medians differ by more than the quartile distance);
- unresolved: neither, and the parent's own quartile distance is wider than
  the bound, unless every change run is better than every parent run;
- unchanged: otherwise.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_set(directory: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, in run order."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in sorted(directory.glob("*.jsonl")):
        series = out.setdefault(path.stem, {})
        for line in path.read_text().splitlines():
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(result, dict) or "metrics" not in result:
                continue
            for name, metric in result["metrics"].items():
                series.setdefault(name, []).append(float(metric["value"]))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _describe(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def verdict(parent: list[float], change: list[float], lower_is_better: bool, bound: float | None) -> tuple[float, str]:
    sign = -1.0 if lower_is_better else 1.0  # sign * value grows as the metric improves
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    gain = sign * (cm - pm)
    share = wins / len(pairs) if pairs else 0.0
    if pairs and share >= 0.9 and gain > spread:
        return share, "improved"
    if bound is None:
        if pairs and losses / len(pairs) >= 0.9 and -gain > spread:
            return share, "worse"
        return share, "unchanged"
    if -gain > bound * abs(pm):
        return share, "worse"
    if spread > bound * abs(pm) and not min(sign * c for c in change) > max(sign * p for p in parent):
        return share, "unresolved"
    return share, "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = read_set(Path(argv[0])), read_set(Path(argv[1]))
    print(f"{'workload':<19} {'metric':<34} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} won   verdict")
    for workload in sorted(set(parent) & set(change)):
        for name, meta in declared.items():
            p, c = parent[workload].get(name), change[workload].get(name)
            if not p or not c:
                continue
            share, word = verdict(p, c, meta["better"] == "lower", meta.get("bound"))
            print(f"{workload:<19} {name:<34} {_describe(p):<34} {_describe(c):<34} {share:>4.0%}  "
                  f"{word} ({meta['unit']}, n={len(p)}/{len(c)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
