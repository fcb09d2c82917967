"""Batch runner: sweeps, seed replication, CSV output, aggregation."""
from __future__ import annotations

import csv
import math
from array import array
from bisect import bisect_right
from functools import cache
from pathlib import Path

from .config import ConfigError, ScenarioConfig
from .engine import Simulation
from .metrics import SUMMARY_COLUMNS
from .presets import VARIANTS, ExperimentSpec

RAW_SCHEMA = "#schema=nobcr-raw-1"
AGG_SCHEMA = "#schema=nobcr-agg-1"

_KEY_COLUMNS = ["experiment", "variant", "sweep", "seed"]


def run_one(task: dict) -> dict:
    """One (variant, sweep point, seed) simulation; must stay picklable.

    ``task["config"]`` is the whole run as ``build_tasks`` resolved it, variant
    settings and seed included, so it is run as it stands; ``variant`` and
    ``seed`` only label the row.
    """
    metrics = Simulation(ScenarioConfig.from_mapping(task["config"])).run()
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
    """Every (sweep point, variant, seed) run of ``spec``, each with its whole
    config: the only place where a run's config is put together.

    A task's ``config`` merges, in this order, the profile base, the sweep
    point, ``overrides`` (``--set``, or a config file's own keys), the
    variant's settings and ``seed``.  No user value is dropped without a
    word: a ``ConfigError`` is raised before any run when ``overrides`` sets
    a key the sweep varies (every row would keep its point's label but run
    the override), when the merged point sets a field that a variant fixes
    to another value (compared as parsed, so ``"0.40"`` equals ``0.4``),
    sets ``seed``, which comes from ``seeds`` alone, or when a seed or a
    variant is named twice.
    """
    base, sweep, default_seeds = spec.profile(desk)
    seeds = list(default_seeds if seeds is None else seeds)
    names = list(variants) if variants else list(spec.variants)
    unknown = [v for v in names if v not in VARIANTS]
    if unknown:
        raise ValueError(f"unknown variants: {unknown}")
    for what, values in (("seeds", seeds), ("variants", names)):
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:  # one run counted twice would shrink every interval
            raise ConfigError(f"repeated {what}: {repeated}")
    swept = sorted({key for _, changes in sweep for key in changes} & set(overrides or ()))
    if swept:
        raise ConfigError(
            f"{spec.name} sweeps {', '.join(swept)} over points "
            f"{', '.join(label for label, _ in sweep)}: an override would run every point alike"
        )
    tasks = []
    for label, changes in sweep:
        point = {**base, **changes, **(overrides or {})}
        if "seed" in point:
            raise ConfigError("seed cannot be set in the config: seeds come from --seeds")
        given = ScenarioConfig.from_mapping(point)  # fail fast on bad keys
        for name in names:
            settings = VARIANTS[name].settings
            run = ScenarioConfig.from_mapping({**point, **settings})
            for key, fixed in settings.items():
                if key in point and getattr(given, key) != getattr(run, key):
                    raise ConfigError(
                        f"{spec.name} sweep {label}: variant {name} fixes {key} = {fixed}, "
                        f"but the config sets {key} = {point[key]}"
                    )
            for seed in seeds:
                tasks.append(
                    {
                        "experiment": spec.name,
                        "variant": name,
                        "sweep": label,
                        "seed": seed,
                        "config": {**point, **settings, "seed": seed},
                    }
                )
    return tasks


def run_tasks(tasks: list[dict], jobs: int = 1) -> list[dict]:
    """Run every task and return the rows in key order.

    With one worker (``jobs`` or the task count at most 1) the tasks run in
    this process.  Otherwise a process pool of ``min(jobs, len(tasks))``
    workers runs them; the pool module is imported only here, so a run in
    this process never pays for it.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1:
        rows = [run_one(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
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


def _write_csv(path: Path, schema: str, header: list[str], rows) -> None:
    """Write the schema line, the header and each row of values, ``_fmt``-ed."""
    with path.open("w", newline="") as fh:
        fh.write(schema + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for values in rows:
            writer.writerow([_fmt(v) for v in values])


def write_raw_csv(rows: list[dict], path: Path) -> None:
    columns = _KEY_COLUMNS + SUMMARY_COLUMNS
    _write_csv(path, RAW_SCHEMA, columns, ([row[c] for c in columns] for row in rows))


def _t_tail(t: float, df: int) -> float:
    """P(T > t) for t > 0, by the finite sums of Abramowitz & Stegun 26.7.3
    (odd df) and 26.7.4 (even df) in c = cos^2 theta = df / (df + t^2)."""
    c = df / (df + t * t)
    odd = df % 2
    term, total = 1.0, 0.0
    for k in range(1, df // 2 + 1):
        total += term
        term *= c * (2 * k - 1 + odd) / (2 * k + odd)
    if odd:
        # pi/2 - theta = atan2(sqrt(df), t); sin theta cos theta = t sqrt(df) / (df + t^2)
        return (math.atan2(math.sqrt(df), t) - t * math.sqrt(df) / (df + t * t) * total) / math.pi
    return 0.5 - 0.5 * t / math.sqrt(df + t * t) * total


@cache
def t_quantile(q: float, df: int) -> float:
    """Quantile of Student's t with ``df`` degrees of freedom, for 0.5 <= q < 1.

    Newton's method from t = 0 on the upper tail, which for integer df is a
    finite sum (Abramowitz & Stegun 26.7.3/26.7.4): O(df) terms per step, and
    df = seeds - 1.  The tail is convex for t >= 0, so every step stays below
    the root and the iteration rises monotonically onto it; the slope's
    ``lgamma`` normaliser alters the step size, not the root.  Once a step is
    below 1e-9 t the quadratic convergence leaves less than the tail rounding.

    Agrees with ``scipy.stats.t.ppf`` to 5e-14 (relative) for df <= 400 at the
    90, 95 and 99 % levels, and to 7e-13 up to df = 5000: the rounding of c is
    raised to powers up to df/2, so the error grows with df.
    """
    if not 0.5 <= q < 1.0 or df < 1:
        raise ValueError(f"t_quantile needs 0.5 <= q < 1 and df >= 1, got q={q} df={df}")
    log_pdf0 = math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df) - 0.5 * math.log(math.pi * df)
    target = 1.0 - q
    t, tail = 0.0, 0.5
    for _ in range(200):
        step = (tail - target) / math.exp(log_pdf0 - 0.5 * (df + 1) * math.log1p(t * t / df))
        t += step
        if abs(step) <= 1e-9 * t:
            return t
        tail = _t_tail(t, df)
    raise ArithmeticError(f"t_quantile did not converge: q={q} df={df}")


def mean_ci(values: list[float], level: float = 0.95) -> tuple[float, float]:
    """Mean and half-width of the t confidence interval."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = t_quantile(0.5 + level / 2, n - 1) * math.sqrt(var / n)
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
        for metric in SUMMARY_COLUMNS:
            mean, half = mean_ci([float(m[metric]) for m in members])
            agg[f"{metric}_mean"] = mean
            agg[f"{metric}_ci95"] = half
        out.append(agg)
    return out


def write_agg_csv(aggs: list[dict], path: Path) -> None:
    columns = ["experiment", "variant", "sweep", "n_seeds"]
    for metric in SUMMARY_COLUMNS:
        columns += [f"{metric}_mean", f"{metric}_ci95"]
    _write_csv(path, AGG_SCHEMA, columns, ([agg[c] for c in columns] for agg in aggs))


_CDF_BLOCK = 1024  # samples one sorted run adds to a merge chunk, ties aside


def write_delay_cdfs(rows: list[dict], out_dir: Path) -> None:
    """Write ``delay_cdf_<variant>_<sweep>.csv`` per (variant, sweep) that has
    delay samples: the empirical CDF of the samples pooled over its seeds,
    thinned to every ``step``-th sorted sample (``step = max(1, n // 500)``
    of ``n``) and closed by the largest sample at 1.  One group is held at a
    time (:func:`_thinned_cdf`), and no list of every pooled sample is built.
    """
    groups: dict[tuple[str, str], list] = {}
    for row in rows:
        delays = row.get("_delays")
        if delays:
            groups.setdefault((row["variant"], row["sweep"]), []).append(delays)
    for (variant, sweep), samples in sorted(groups.items()):
        path = out_dir / f"delay_cdf_{variant}_{sweep}.csv"
        _write_csv(path, "#schema=nobcr-delay-cdf-1", ["delay", "cdf"], _thinned_cdf(samples))


def _thinned_cdf(samples: list) -> list[tuple]:
    """The CDF points of one group, from its rows' ``_delays`` (each a list
    or an ``array("d")``, none empty).

    Each row is sorted into an array of its own, and the sorted runs are
    merged in bounded chunks: a chunk takes from every run the samples at or
    below the smallest end of the runs' next ``_CDF_BLOCK`` samples, so every
    sample left is larger than the chunk's.  Each chunk is sorted in one
    call, and it yields every sample whose index in the pooled order is a
    multiple of ``step``.
    """
    runs = [array("d", sorted(delays)) for delays in samples]
    n = sum(map(len, runs))
    step = max(1, n // 500)
    starts = [0] * len(runs)
    points = []
    done = 0  # pooled index of the next chunk's first sample
    while done < n:
        bound = min(
            run[min(start + _CDF_BLOCK, len(run)) - 1]
            for run, start in zip(runs, starts)
            if start < len(run)
        )
        chunk = []
        for r, run in enumerate(runs):
            end = bisect_right(run, bound, starts[r])
            chunk += run[starts[r]:end]
            starts[r] = end
        chunk.sort()
        for i in range(-done % step, len(chunk), step):
            points.append((chunk[i], (done + i + 1) / n))
        done += len(chunk)
    points.append((max(run[-1] for run in runs), "1"))
    return points


def write_outputs(rows: list[dict], out_dir: str | Path, stem: str) -> list[dict]:
    """Write ``<stem>_raw.csv``, ``<stem>_agg.csv`` and the delay CDFs; return
    the aggregate rows written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_raw_csv(rows, out / f"{stem}_raw.csv")
    aggs = aggregate(rows)
    write_agg_csv(aggs, out / f"{stem}_agg.csv")
    write_delay_cdfs(rows, out)
    return aggs


def run_experiment(
    spec: ExperimentSpec,
    stem: str,
    desk: bool = False,
    seeds=None,
    variants=None,
    out_dir: str | Path = "results",
    jobs: int = 1,
    overrides: dict | None = None,
) -> tuple[list[dict], list[dict]]:
    """Run every task of ``spec`` and write its outputs under ``stem``; return
    the raw and the aggregate rows written."""
    tasks = build_tasks(spec, desk, seeds=seeds, variants=variants, overrides=overrides)
    rows = run_tasks(tasks, jobs=jobs)
    return rows, write_outputs(rows, out_dir, stem)


def read_rows(path: str | Path) -> list[dict]:
    """The rows of a raw CSV, as written by :func:`write_raw_csv`; any other
    file, an aggregate or a delay CDF included, is a ``ValueError``."""
    with Path(path).open() as fh:
        first = fh.readline().rstrip("\r\n")
        if not first.startswith("#schema="):
            raise ValueError(f"{path}: missing schema line")
        if first != RAW_SCHEMA:
            raise ValueError(f"{path}: not a raw CSV: found {first}, expected {RAW_SCHEMA}")
        return list(csv.DictReader(fh))


def _by_pair(rows: list[dict], what: str) -> dict[tuple[str, str], dict]:
    """The rows of one variant keyed by (sweep, seed)."""
    variants = sorted({r["variant"] for r in rows})
    if len(variants) != 1:
        raise ValueError(f"{what}: expected one variant, found {variants}")
    keyed: dict[tuple[str, str], dict] = {}
    for r in rows:
        key = (r["sweep"], r["seed"])
        if key in keyed:
            raise ValueError(f"{what}: (sweep, seed) {key} appears twice")
        keyed[key] = r
    return keyed


def paired_differences(baseline: list[dict], candidate: list[dict]) -> list[dict]:
    """Candidate minus baseline, run by run, for every ``SUMMARY_COLUMNS`` key.

    Each input holds the raw rows of one variant.  Rows are paired on (sweep,
    seed): topology, mobility and traffic come from seed-keyed streams that no
    variant setting touches, so a pair differs only by the variant.  Per sweep
    point and metric, the result holds the number of pairs, the mean paired
    difference and the half-width of its 95% t interval (``mean_ci``).
    """
    base = _by_pair(baseline, "baseline")
    cand = _by_pair(candidate, "candidate")
    common = base.keys() & cand.keys()
    if not common:
        raise ValueError("no (sweep, seed) pair in common between the two files")
    sweeps: dict[str, list[tuple[str, str]]] = {}
    for key in sorted(common, key=lambda k: (_sweep_sort(k[0]), int(k[1]))):
        sweeps.setdefault(key[0], []).append(key)
    out = []
    for sweep, keys in sweeps.items():
        for metric in SUMMARY_COLUMNS:
            diffs = [float(cand[k][metric]) - float(base[k][metric]) for k in keys]
            mean, half = mean_ci(diffs)
            out.append({"sweep": sweep, "metric": metric, "pairs": len(keys), "mean": mean,
                        "ci": half})
    return out
