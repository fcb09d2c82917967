"""Command line entry points: batch runs, scripted scenarios, comparisons."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .config import ConfigError, ScenarioConfig, parse_kv_file, parse_pairs
from .metrics import Metrics
from .presets import PRESETS, VARIANTS, ExperimentSpec
from .scenario import load_script, run_scenario


def parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        seeds = list(range(int(lo), int(hi) + 1))
    else:
        seeds = [int(part) for part in text.split(",") if part]
    if not seeds:
        raise ConfigError(f"--seeds {text!r} names no seed")
    return seeds


def worker_count(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def parse_sets(pairs: list[str]) -> dict[str, str]:
    return parse_pairs(("--set", pair) for pair in pairs)


def file_spec(path: Path) -> ExperimentSpec:
    """A config file as a one-point experiment: sweep ``-``, variant nobcr,
    the keys the file sets, and the file's seed (default 1) as its seed list.

    Only the keys the file sets are passed on, so a default the file leaves
    alone never clashes with a variant's settings.
    """
    own = parse_kv_file(path)
    seed = ScenarioConfig.from_mapping(own).seed  # validate the file on its own
    own.pop("seed", None)
    point = (("-", {}),)
    return ExperimentSpec(
        name=path.stem,
        base=own,
        desk={},
        sweep=point,
        desk_sweep=point,
        variants=("nobcr",),
        seeds=(seed,),
        desk_seeds=(seed,),
    )


def cmd_run(args) -> int:
    overrides = parse_sets(args.set)
    seeds = parse_seeds(args.seeds) if args.seeds is not None else None
    if args.target in PRESETS:
        spec = PRESETS[args.target]
        stem = f"{spec.name}_{'desk' if args.desk else 'full'}"
    else:
        path = Path(args.target)
        if not path.exists():
            print(f"error: {args.target!r} is neither a preset nor a config file", file=sys.stderr)
            print(f"presets: {', '.join(sorted(PRESETS))}", file=sys.stderr)
            return 2
        if args.desk:  # a config file is its own profile; --desk would change nothing
            raise ConfigError("--desk applies to presets only, not to a config file")
        spec = file_spec(path)
        stem = path.stem
    rows, aggs = harness.run_experiment(
        spec,
        stem,
        desk=args.desk,
        seeds=seeds,
        variants=args.variant,
        out_dir=args.out,
        jobs=args.jobs,
        overrides=overrides or None,
    )
    print(f"{spec.name}: {len(rows)} runs written to {args.out}/")
    for agg in aggs:
        print(
            f"  {agg['variant']:<12s} sweep={agg['sweep']:<6s} "
            f"delivery={agg['delivery_ratio_mean']:.3f} "
            f"tx={agg['data_tx_mean']:.0f} "
            f"delay={agg['mean_delay_mean']*1000:.1f}ms"
        )
    return 0


def _print_script_result(metrics: Metrics, log, quiet: bool) -> None:
    if not quiet:
        for line in log.lines():
            print(line)
    print("-- delivered --")
    for pid in sorted(metrics.delivered_to):
        nodes = sorted(metrics.delivered_nodes(pid))
        print(f"  {pid}: {nodes}")
    s = metrics.summary()
    print(
        f"-- counters -- tx={s['data_tx']:.0f} encoded={s['encoded_tx']:.0f} "
        f"gratis_coded={s['encoded_tx_gratis']:.0f} decode_failures={s['decode_failures']:.0f}"
    )


def cmd_script(args) -> int:
    metrics, log = run_scenario(load_script(args.file), **parse_sets(args.set))
    _print_script_result(metrics, log, args.quiet)
    return 0


def cmd_report(args) -> int:
    base = harness.read_rows(args.baseline)
    cand = harness.read_rows(args.candidate)
    rows = harness.paired_differences(base, cand)
    print(f"{args.candidate} minus {args.baseline}, paired on (sweep, seed), mean ± 95% CI")
    for row in rows:
        print(
            f"  sweep={row['sweep']:<6s} {row['metric']:<20s} pairs={row['pairs']:<3d} "
            f"{row['mean']:+12.6g} ± {row['ci']:.6g}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nobcr",
        description="Broadcast protocol simulator: batch experiments, scripted scenarios, comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a preset experiment or a config file")
    run.add_argument("target", help=f"preset ({', '.join(sorted(PRESETS))}) or config file")
    run.add_argument("--desk", action="store_true", help="small fast profile of a preset")
    run.add_argument("--seeds", help="seed list: 1..10 or 1,2,5")
    run.add_argument("--variant", action="append", help=f"one of {', '.join(sorted(VARIANTS))}; "
                     "it fixes its protocol fields, and a config that sets one otherwise is an error")
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a field of the preset or the config file, parsed by the "
                     "field's type; each key once, not seed (use --seeds), not a key the preset "
                     "sweeps, nor a field the variant fixes, to another value")
    run.add_argument("--out", default="results")
    run.add_argument("--jobs", type=worker_count, default=1, help="worker processes, at least 1")
    run.set_defaults(func=cmd_run)

    script = sub.add_parser("script", help="run a scripted scenario and print its event log")
    script.add_argument("file")
    script.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a field of the script's config, parsed by the "
                        "field's type; each key once")
    script.add_argument("--quiet", action="store_true", help="suppress the event log")
    script.set_defaults(func=cmd_script)

    report = sub.add_parser("report", help="paired differences between two variants' raw CSVs")
    report.add_argument("baseline")
    report.add_argument("candidate")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError and ScriptError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
