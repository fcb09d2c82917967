"""Byte-identity pin on the raw CSV of a fixed set of runs.

Eleven short runs (every variant on the dense-sources desk profile, plus a
mobile pair) are written with ``harness.write_raw_csv`` and the file's
sha256 is compared with the digest recorded before the refactors it guards.
A refactor or a speed-up must leave the digest alone.  An intended change of
behaviour (a protocol fix such as ROADMAP item 1) updates ``RAW_SHA256`` here
and says so, with the shift in results, in CHANGES.md.
"""
import hashlib

from nobcr import harness
from nobcr.presets import PRESETS, VARIANTS

RAW_SHA256 = "dc777f200ae2fdf6855fa19402835fb795f7246f218beea085f86e04dc5b23dd"

CASES = [
    ("dense-sources", "10", tuple(VARIANTS)),
    ("mobility", "10", ("nobcr", "pdp-cu")),
]


def _tasks():
    tasks = []
    for preset, sweep, variants in CASES:
        swept = harness.build_tasks(
            PRESETS[preset], desk=True, seeds=[1], variants=variants,
            overrides={"sim_duration": 10},
        )
        tasks += [t for t in swept if t["sweep"] == sweep]
    return tasks


def test_raw_csv_digest_is_pinned(tmp_path):
    tasks = _tasks()
    assert len(tasks) == len(VARIANTS) + 2
    path = tmp_path / "pin_raw.csv"
    harness.write_raw_csv(harness.run_tasks(tasks, jobs=1), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RAW_SHA256
