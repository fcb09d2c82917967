"""Byte-identity pin on the raw CSV of a fixed set of runs.

Eleven short runs (every variant on the dense-sources desk profile, plus a
mobile pair) are written with ``harness.write_raw_csv`` and the file's
sha256 is compared with the digest recorded before the refactors it guards.
Those runs never get past sequence number 64, so they never wrap the MC/U
window; a second pin (``SMALL_WINDOW_SHA256``) runs the MC/U variants with a
4-packet window long enough to wrap it many times.  Both keep M/U marks for
5 s and pool entries for 2 s, far longer than one flood lasts, so a third
pin (``SHORT_EXPIRY_SHA256``) runs the mark, pool and table users with
expiries of a few hundred milliseconds, where entries lapse mid-flood.  None
of those samples detector storage, so a fourth pin (``STORAGE_SHA256``) runs
the storage desk, whose periodic samples read ``ReceptionTable.item_count``
and the lightweight pool's item count into the storage columns.  A
refactor or a speed-up must leave every digest alone.  An intended change of
behaviour (a protocol fix such as ROADMAP item 1) updates the digests here
and says so, with the shift in results, in CHANGES.md.
"""
import hashlib

from nobcr import harness
from nobcr.presets import PRESETS, VARIANTS

RAW_SHA256 = "dc777f200ae2fdf6855fa19402835fb795f7246f218beea085f86e04dc5b23dd"
SMALL_WINDOW_SHA256 = "aa1b8c7509d26c4c10a05285da42bb7cc1eacef39617cba870a481e3dfdfc559"
SHORT_EXPIRY_SHA256 = "04042b469b6fa45aa528e2847b7c3183811c03afa1cc4fbaf9aa97335e2eff67"
STORAGE_SHA256 = "bfdacf82b0199e6b500eb5536c596eaacfd11f08b6dab057815941a9e7ca3e81"

CASES = [
    ("dense-sources", "10", tuple(VARIANTS)),
    ("mobility", "10", ("nobcr", "pdp-cu")),
]
SMALL_WINDOW_CASES = [("dense-sources", "10", ("nobcr", "nobcr-table", "pdp-mcu"))]
SMALL_WINDOW = {"mcu_window": 4, "pkt_rate": 4, "sim_duration": 20}
SHORT_EXPIRY_CASES = [("dense-sources", "10", ("nobcr", "nobcr-table", "codeb", "pdp-mu"))]
SHORT_EXPIRY = {
    "sim_duration": 10, "mark_expiry": 0.2, "pool_lifetime": 0.3, "table_expiry": 0.3,
}
STORAGE_CASES = [("storage", "10", ("nobcr", "nobcr-table", "codeb"))]


def _tasks(cases, overrides):
    tasks = []
    for preset, sweep, variants in cases:
        swept = harness.build_tasks(
            PRESETS[preset], desk=True, seeds=[1], variants=variants, overrides=overrides,
        )
        tasks += [t for t in swept if t["sweep"] == sweep]
    return tasks


def _digest(tasks, path):
    harness.write_raw_csv(harness.run_tasks(tasks, jobs=1), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_raw_csv_digest_is_pinned(tmp_path):
    tasks = _tasks(CASES, {"sim_duration": 10})
    assert len(tasks) == len(VARIANTS) + 2
    assert _digest(tasks, tmp_path / "pin_raw.csv") == RAW_SHA256


def test_small_window_raw_csv_digest_is_pinned(tmp_path):
    tasks = _tasks(SMALL_WINDOW_CASES, SMALL_WINDOW)
    assert len(tasks) == 3
    assert _digest(tasks, tmp_path / "pin_raw.csv") == SMALL_WINDOW_SHA256


def test_short_expiry_raw_csv_digest_is_pinned(tmp_path):
    tasks = _tasks(SHORT_EXPIRY_CASES, SHORT_EXPIRY)
    assert len(tasks) == 4
    assert _digest(tasks, tmp_path / "pin_raw.csv") == SHORT_EXPIRY_SHA256


def test_storage_raw_csv_digest_is_pinned(tmp_path):
    tasks = _tasks(STORAGE_CASES, {"sim_duration": 12})
    assert len(tasks) == 3
    assert _digest(tasks, tmp_path / "pin_raw.csv") == STORAGE_SHA256
