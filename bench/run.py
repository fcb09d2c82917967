"""Benchmark of the nobcr simulator: one workload, one seed, one result line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload static-lightweight --seed 1 --seconds 28 --trace 0

Every pass of the workload runs in a fresh interpreter (rep.py).  The first
pass is traced: it warms the file cache, counts the events every pass
simulates, gives the per-layer split and the reference digests.  Untraced
passes then repeat for ``--seconds``; each gives one sample of set-up time,
host time and peak memory, and must reproduce the traced digests exactly.
Set-up time and memory report the median pass.  Host time reports the
fastest pass: on a shared host, interference only ever adds time, and it
comes in slow phases lasting many seconds, so the fastest pass is the
steadiest estimate of the program's own cost (NOTES.md has the spreads).
Every run is checked (see rep.row_problems); a run that raises, fails a
check or changes its digest counts as failed.

The output lists the digest of each run and every metric by name and unit
(the per-layer ones too with ``--trace 1``), and ends with one JSON line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# a run must end within 180 s; stop starting passes well before that
DEADLINE_S = 165.0


class PassFailed(Exception):
    pass


def run_pass(root: Path, workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One rep.py child; its process group is killed if it overruns."""
    cmd = [sys.executable, str(HERE / "rep.py"), str(root), workload, str(seed), "1" if traced else "0"]
    proc = subprocess.Popen(
        cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"pass overran {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"pass exited with {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "nobcr" / "__init__.py").is_file():
        print(f"error: no program to measure: {root / 'src' / 'nobcr'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    start = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    attempted = failed = 0
    try:
        reference = run_pass(root, workload.name, args.seed, True, remaining())
    except PassFailed as exc:
        print(f"error: traced pass failed: {exc}", file=sys.stderr)
        return 1
    attempted += len(reference["runs"])
    failed += sum(1 for run in reference["runs"] if run["problems"])
    expected = [run["digest"] for run in reference["runs"]]
    events = reference["layers"]["engine.events"]

    passes: list[dict] = []
    loop_start = time.perf_counter()
    last = 0.0
    while not passes or (
        time.perf_counter() - loop_start < args.seconds and remaining() > 2 * last
    ):
        t0 = time.perf_counter()
        attempted += workload.runs_per_pass
        try:
            result = run_pass(root, workload.name, args.seed, False, remaining())
        except PassFailed as exc:
            print(f"error: untraced pass failed: {exc}", file=sys.stderr)
            failed += workload.runs_per_pass
            break
        last = time.perf_counter() - t0
        got = result["runs"]
        if len(got) != len(expected):
            failed += workload.runs_per_pass
        else:
            failed += sum(1 for run, digest in zip(got, expected) if run["problems"] or run["digest"] != digest)
        passes.append(result)
    if not passes:
        return 1

    walls = [p["wall_s"] for p in passes]
    runs = reference["runs"]
    deliveries = sum(run["deliveries"] for run in runs)
    possible = sum(run["generated"] * (run["n_nodes"] - 1) for run in runs)
    metrics = {
        "wall_s": min(walls),
        "events_per_s": events / min(walls),
        "setup_s": statistics.median([p["setup_s"] for p in passes]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
        "delivery_ratio": deliveries / possible,
        "tx_per_delivery": sum(run["data_tx"] for run in runs) / deliveries,
        **reference["layers"],
        "config.import_s": statistics.median([p["import_s"] for p in passes]),
        "trace.overhead_ratio": reference["wall_s"] / min(walls),
    }
    shown = spec["end_to_end"] + (spec["per_layer"] if args.trace else [])
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(f"workload {workload.name}  seed {args.seed}  passes {len(passes)}+1 traced  "
          f"events/pass {events}")
    for run in runs:
        problems = "; ".join(run["problems"]) or "ok"
        print(f"  run {run['variant']} seed {run['seed']}  digest {run['digest']}  checks {problems}")
    for p in passes:
        print(f"  pass wall {p['wall_s']:.4f} s  setup {p['setup_s']:.4f} s  rss {p['peak_rss_mb']:.1f} MB")
    for m in shown:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(f"fail_rate = {failed / attempted:.6g} ({failed} of {attempted} runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
