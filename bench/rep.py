"""One pass of a workload in a fresh interpreter, as run.py's child.

Usage: python3 bench/rep.py ROOT WORKLOAD SEED TRACE

ROOT is the checkout whose ``src/nobcr`` is measured.  The child times its
own set-up (importing ``nobcr.harness``, building the first run's config and
constructing its ``Simulation``), runs one pass of the workload, untraced or
with the per-layer wrappers of tracer.py, and prints one JSON line: timings,
peak memory, and per run the behaviour digest, the counters the output checks
need and any check that failed.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, Workload


def build_tasks(workload: Workload, seed: int, sim_duration: float | None = None) -> list[dict]:
    from nobcr import harness
    from nobcr.presets import PRESETS

    overrides = dict(workload.overrides)
    if sim_duration is not None:
        overrides["sim_duration"] = sim_duration
    tasks = harness.build_tasks(
        PRESETS[workload.preset],
        desk=True,
        seeds=workload.case_seeds(seed),
        variants=workload.variants,
        overrides=overrides,
    )
    return [t for t in tasks if t["sweep"] == workload.sweep]


def run_pass(
    workload: Workload,
    seed: int,
    scratch: Path,
    jobs: int | None = None,
    sim_duration: float | None = None,
) -> tuple[list[dict], float]:
    """Run the workload once; returns its rows and the host seconds it took.

    The timed region runs from task build to the last result: for a sweep
    that includes aggregation and the raw, aggregate and delay-CDF CSVs,
    written to a temporary directory under ``scratch``.
    """
    from nobcr import harness

    t0 = time.perf_counter()
    tasks = build_tasks(workload, seed, sim_duration)
    if not workload.jobs:
        rows = [harness.run_one(task) for task in tasks]
    else:
        rows = harness.run_tasks(tasks, jobs=jobs or workload.jobs)
        with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=scratch) as out:
            out = Path(out)
            harness.write_raw_csv(rows, out / "raw.csv")
            harness.write_agg_csv(harness.aggregate(rows), out / "agg.csv")
            harness.write_delay_cdfs(rows, out)
    wall = time.perf_counter() - t0
    n_nodes = {(t["variant"], t["seed"]): int(t["config"]["n_nodes"]) for t in tasks}
    for row in rows:
        row["_n_nodes"] = n_nodes[row["variant"], row["seed"]]
    return rows, wall


def row_digest(row: dict) -> str:
    """sha256 of a run's ``Metrics.summary()`` and its sorted delay samples."""
    summary = {k: v for k, v in row.items() if not k.startswith("_")}
    h = hashlib.sha256(json.dumps(summary, sort_keys=True).encode())
    h.update(repr(sorted(row["_delays"])).encode())
    return h.hexdigest()


def row_problems(row: dict) -> list[str]:
    """Output checks every run must pass."""
    problems = []
    n = row["_n_nodes"]
    if row["deliveries"] > row["generated"] * (n - 1):
        problems.append(f"deliveries {row['deliveries']:g} > generated*(n-1) = {row['generated'] * (n - 1):g}")
    if not row["encoded_tx_gratis"] <= row["encoded_tx"] <= row["data_tx"]:
        problems.append(
            f"encoded_tx_gratis {row['encoded_tx_gratis']:g} <= encoded_tx {row['encoded_tx']:g}"
            f" <= data_tx {row['data_tx']:g} fails"
        )
    if not 0.0 <= row["delivery_ratio"] <= 1.0:
        problems.append(f"delivery_ratio {row['delivery_ratio']!r} outside [0, 1]")
    return problems


def _setup_probe(workload: Workload, seed: int) -> None:
    """Build the first run's config and Simulation, as a user's run starts."""
    from nobcr.config import ScenarioConfig
    from nobcr.engine import Simulation
    from nobcr.presets import VARIANTS

    task = build_tasks(workload, seed)[0]
    config = ScenarioConfig.from_mapping(task["config"])
    config = VARIANTS[task["variant"]].apply(config).replace(seed=task["seed"])
    Simulation(config)


def _peak_rss_mb() -> float:
    """Largest peak resident set of this process and its finished children."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def main(argv: list[str]) -> int:
    root, name, seed, traced = Path(argv[0]), argv[1], int(argv[2]), argv[3] == "1"
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import nobcr.harness  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - t0
    workload = WORKLOADS[name]
    t1 = time.perf_counter()
    _setup_probe(workload, seed)
    setup_s = import_s + time.perf_counter() - t1

    layers = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed():
            rows, wall = run_pass(workload, seed, root)
        layers = tracer.layer_metrics()
    else:
        rows, wall = run_pass(workload, seed, root)
    runs = [
        {
            "variant": row["variant"],
            "seed": row["seed"],
            "digest": row_digest(row),
            "problems": row_problems(row),
            "n_nodes": row["_n_nodes"],
            **{k: row[k] for k in ("generated", "deliveries", "data_tx")},
        }
        for row in rows
    ]
    print(json.dumps({
        "import_s": import_s,
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
        "runs": runs,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
