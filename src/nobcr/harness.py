"""Batch runner: sweeps, seed replication, CSV output, aggregation."""
from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from scipy import stats

from .config import ScenarioConfig
from .engine import Simulation
from .presets import VARIANTS, ExperimentSpec

RAW_SCHEMA = "#schema=nobcr-raw-1"
AGG_SCHEMA = "#schema=nobcr-agg-1"

_KEY_COLUMNS = ["experiment", "variant", "sweep", "seed"]

_METRIC_COLUMNS = [
    "generated",
    "deliveries",
    "delivery_ratio",
    "data_tx",
    "constituents_tx",
    "encoded_tx",
    "encoded_tx_gratis",
    "hello_tx",
    "decode_failures",
    "decode_late",
    "gratis_buffered",
    "gratis_dropped",
    "collision_losses",
    "mean_delay",
    "median_delay",
    "p90_delay",
    "stored_items_light",
    "stored_items_table",
    "pool_entries_avg",
]


def run_one(task: dict) -> dict:
    """One (variant, sweep point, seed) simulation; must stay picklable."""
    config = ScenarioConfig.from_mapping(task["config"])
    config = VARIANTS[task["variant"]].apply(config)
    config = config.replace(seed=task["seed"])
    metrics = Simulation(config).run()
    row = {
        "experiment": task["experiment"],
        "variant": task["variant"],
        "sweep": task["sweep"],
        "seed": task["seed"],
    }
    row.update(metrics.summary())
    row["_delays"] = metrics.delay_samples
    return row


def build_tasks(
    spec: ExperimentSpec,
    desk: bool,
    seeds=None,
    variants=None,
    overrides: dict | None = None,
) -> list[dict]:
    base, sweep, default_seeds = spec.profile(desk)
    seeds = list(seeds) if seeds else list(default_seeds)
    names = list(variants) if variants else list(spec.variants)
    unknown = [v for v in names if v not in VARIANTS]
    if unknown:
        raise ValueError(f"unknown variants: {unknown}")
    tasks = []
    for label, changes in sweep:
        cfg = {**base, **changes, **(overrides or {})}
        ScenarioConfig.from_mapping(cfg)  # fail fast on bad keys
        for name in names:
            for seed in seeds:
                tasks.append(
                    {
                        "experiment": spec.name,
                        "variant": name,
                        "sweep": label,
                        "seed": seed,
                        "config": cfg,
                    }
                )
    return tasks


def run_tasks(tasks: list[dict], jobs: int = 1) -> list[dict]:
    if jobs <= 1 or len(tasks) <= 1:
        rows = [run_one(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_one, tasks, chunksize=1))
    rows.sort(key=lambda r: (r["experiment"], r["variant"], _sweep_sort(r["sweep"]), r["seed"]))
    return rows


def _sweep_sort(label: str):
    try:
        return (0, float(label))
    except ValueError:
        return (1, label)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_raw_csv(rows: list[dict], path: Path) -> None:
    columns = _KEY_COLUMNS + _METRIC_COLUMNS
    with path.open("w", newline="") as fh:
        fh.write(RAW_SCHEMA + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def mean_ci(values: list[float], level: float = 0.95) -> tuple[float, float]:
    """Mean and half-width of the t confidence interval."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = stats.t.ppf(0.5 + level / 2, n - 1) * math.sqrt(var / n)
    return mean, half


def aggregate(rows: list[dict]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["experiment"], row["variant"], row["sweep"]), []).append(row)
    out = []
    for (experiment, variant, sweep), members in sorted(
        groups.items(), key=lambda kv: (kv[0][0], kv[0][1], _sweep_sort(kv[0][2]))
    ):
        agg = {
            "experiment": experiment,
            "variant": variant,
            "sweep": sweep,
            "n_seeds": len(members),
        }
        for metric in _METRIC_COLUMNS:
            mean, half = mean_ci([float(m[metric]) for m in members])
            agg[f"{metric}_mean"] = mean
            agg[f"{metric}_ci95"] = half
        out.append(agg)
    return out


def write_agg_csv(aggs: list[dict], path: Path) -> None:
    columns = ["experiment", "variant", "sweep", "n_seeds"]
    for metric in _METRIC_COLUMNS:
        columns += [f"{metric}_mean", f"{metric}_ci95"]
    with path.open("w", newline="") as fh:
        fh.write(AGG_SCHEMA + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for agg in aggs:
            writer.writerow([_fmt(agg[c]) for c in columns])


def write_delay_cdfs(rows: list[dict], out_dir: Path) -> None:
    pooled: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        pooled.setdefault((row["variant"], row["sweep"]), []).extend(row.get("_delays", ()))
    for (variant, sweep), delays in sorted(pooled.items()):
        if not delays:
            continue
        delays.sort()
        n = len(delays)
        path = out_dir / f"delay_cdf_{variant}_{sweep}.csv"
        with path.open("w", newline="") as fh:
            fh.write("#schema=nobcr-delay-cdf-1\n")
            writer = csv.writer(fh)
            writer.writerow(["delay", "cdf"])
            step = max(1, n // 500)
            for i in range(0, n, step):
                writer.writerow([_fmt(delays[i]), _fmt((i + 1) / n)])
            writer.writerow([_fmt(delays[-1]), "1"])


def write_outputs(rows: list[dict], out_dir: str | Path, stem: str) -> None:
    """Write ``<stem>_raw.csv``, ``<stem>_agg.csv`` and the delay CDFs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_raw_csv(rows, out / f"{stem}_raw.csv")
    write_agg_csv(aggregate(rows), out / f"{stem}_agg.csv")
    write_delay_cdfs(rows, out)


def run_experiment(
    spec: ExperimentSpec,
    stem: str,
    desk: bool = False,
    seeds=None,
    variants=None,
    out_dir: str | Path = "results",
    jobs: int = 1,
    overrides: dict | None = None,
) -> list[dict]:
    """Run every task of ``spec`` and write its outputs under ``stem``."""
    tasks = build_tasks(spec, desk, seeds=seeds, variants=variants, overrides=overrides)
    rows = run_tasks(tasks, jobs=jobs)
    write_outputs(rows, out_dir, stem)
    return rows


def read_rows(path: str | Path) -> list[dict]:
    with Path(path).open() as fh:
        first = fh.readline()
        if not first.startswith("#schema="):
            raise ValueError(f"{path}: missing schema line")
        return list(csv.DictReader(fh))


def transmission_reduction(baseline_rows: list[dict], candidate_rows: list[dict]) -> list[dict]:
    """Relative transmission savings of candidate vs baseline per sweep value."""

    def by_sweep(rows):
        acc: dict[str, list[float]] = {}
        for r in rows:
            acc.setdefault(r["sweep"], []).append(float(r["data_tx"]))
        return {k: sum(v) / len(v) for k, v in acc.items()}

    base = by_sweep(baseline_rows)
    cand = by_sweep(candidate_rows)
    common = sorted(set(base) & set(cand), key=_sweep_sort)
    if not common:
        raise ValueError("no matching sweep values between the two files")
    out = []
    for sweep in common:
        b, c = base[sweep], cand[sweep]
        out.append(
            {
                "sweep": sweep,
                "baseline_tx": b,
                "candidate_tx": c,
                "reduction_pct": float("nan") if b == 0 else 100.0 * (b - c) / b,
            }
        )
    return out
