"""Byte-identity pins on the raw CSV of fixed sets of runs, one digest per row.

Eleven short runs (every variant on the dense-sources desk profile, plus a
mobile pair) are written with ``harness.write_raw_csv``; the sha256 of the
schema and header lines and the sha256 of each row, in file order, are
compared with the digests recorded before the refactors they guard.  Those
runs never get past sequence number 64, so they never wrap the MC/U window; a
second pin (``SMALL_WINDOW``) runs the MC/U variants with a 4-packet window
long enough to wrap it many times.  Both keep M/U marks for 5 s and pool
entries for 2 s, far longer than one flood lasts, so a third pin
(``SHORT_EXPIRY``) runs the mark, pool and table users with expiries of a few
hundred milliseconds, where entries lapse mid-flood.  None of those samples
detector storage, so a fourth pin (``STORAGE``) runs the storage desk, whose
periodic samples read ``ReceptionTable.item_count`` and the lightweight
pool's item count into the storage columns.

A refactor or a speed-up must leave every digest alone.  An intended change
of behaviour re-records only the rows of the variants it changes, and says
so, with the shift in results, in CHANGES.md; since every row is keyed by its
experiment and variant, a failure names the runs that moved.
"""
import hashlib

from nobcr import harness
from nobcr.presets import PRESETS, VARIANTS

# sha256 of the schema line plus the column header, shared by every pin
HEADER_SHA256 = "c6f560a20b80887bc1f05e6cd97e89766010c0a2ab8806f772b22a7dc5adc260"

RAW_ROWS = [
    ("dense-sources", "codeb", "8cd924b93febc720242d81a4c8a4929fb187ad52e6bed88b6be015e722923adc"),
    ("dense-sources", "nobcr", "c1b2edd07eef2973d3d6ef66120e12910194fdc6d7765aa4f189cacc29823733"),
    ("dense-sources", "nobcr-nocr", "074c5b125af45407167c4d05a40195affe85985675fc672798534eb46e785aa2"),
    ("dense-sources", "nobcr-table", "986102b7124f22358e362dc02abba862b0569e6f3fc0abee94e173c7b2eaaf43"),
    ("dense-sources", "pdp-cu", "218de12f42ca4f218ba1b58440e9128b36bc1916de0a1165b3902cb8ced8621a"),
    ("dense-sources", "pdp-cu-rad", "6033aeb299bc0676499aa9d668821a9b7de0cba02d6e0ca982c1b39c0304ea76"),
    ("dense-sources", "pdp-mcu", "01e95daf2c2ebdc183009358a28a5e30eed9dcfe236f0bcd15c0040528a1269c"),
    ("dense-sources", "pdp-mu", "1d1aa984d254d905b1fee517e652bd7f73042559f1a4bd5bb430b4d2933cfb24"),
    ("dense-sources", "pdp-ru", "43b24f64cc4e809bfed392db00572e2d84dfdc437be7b97933a7186270e8d163"),
    ("mobility", "nobcr", "078b7ea2280d311a00969a26dc1e852d184144fde308e80f2e95037f6511248a"),
    ("mobility", "pdp-cu", "6dd9386b96f40e704a95e413be0b8bd5edf7e4f7858db75ba018a418608083b4"),
]
SMALL_WINDOW_ROWS = [
    ("dense-sources", "nobcr", "f9bbf4898b1311c01d838f4baabe2935147a29dc73c39b9ad798ac2e73415fe5"),
    ("dense-sources", "nobcr-table", "a29109b4a54623cb25b8d28726f098a274ea99ae410d4e71d33ece46c408c45b"),
    ("dense-sources", "pdp-mcu", "4c4ef688bf1254a829f97d8bad30521d307951b0131503d44616cc48d3657774"),
]
SHORT_EXPIRY_ROWS = [
    ("dense-sources", "codeb", "9af99d4cf0763d3f20e6b9e4f168fb66a9c3fd5bb28e6842a3603980876893ca"),
    ("dense-sources", "nobcr", "d3e4a3e5fa27ee8af5529ee447b33a06ac3e422668d567b402fbfdbb6b02f927"),
    ("dense-sources", "nobcr-table", "65d59f9646ca9037f55118ffe588b7c5edba9957f19fc40d3bb13a0b27ce376c"),
    ("dense-sources", "pdp-mu", "1d1aa984d254d905b1fee517e652bd7f73042559f1a4bd5bb430b4d2933cfb24"),
]
STORAGE_ROWS = [
    ("storage", "codeb", "93b826baa6818c8b2e23eb84eb5c9a038e98615decca34bf1c0d051d41a13876"),
    ("storage", "nobcr", "bca6fce3d14f0fa760e64de3c6e9bc4d0486b0c45794414b4b6eac816b9f70e9"),
    ("storage", "nobcr-table", "3ffd0470177c1d457a69b8f783ced3ab053fc6feb6d707ddcdde09c3c029aa11"),
]

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


def _digests(tasks, path):
    """(header digest, [(experiment, variant, row digest)] in file order)."""
    harness.write_raw_csv(harness.run_tasks(tasks, jobs=1), path)
    schema, header, *rows = path.read_bytes().splitlines(keepends=True)
    rows_out = []
    for line in rows:
        experiment, variant = line.decode().split(",", 2)[:2]
        rows_out.append((experiment, variant, hashlib.sha256(line).hexdigest()))
    return hashlib.sha256(schema + header).hexdigest(), rows_out


def _check(cases, overrides, expected_rows, path):
    tasks = _tasks(cases, overrides)
    assert len(tasks) == len(expected_rows)
    header, rows = _digests(tasks, path)
    assert header == HEADER_SHA256
    assert rows == expected_rows


def test_raw_csv_digest_is_pinned(tmp_path):
    _check(CASES, {"sim_duration": 10}, RAW_ROWS, tmp_path / "pin_raw.csv")


def test_small_window_raw_csv_digest_is_pinned(tmp_path):
    _check(SMALL_WINDOW_CASES, SMALL_WINDOW, SMALL_WINDOW_ROWS, tmp_path / "pin_raw.csv")


def test_short_expiry_raw_csv_digest_is_pinned(tmp_path):
    _check(SHORT_EXPIRY_CASES, SHORT_EXPIRY, SHORT_EXPIRY_ROWS, tmp_path / "pin_raw.csv")


def test_storage_raw_csv_digest_is_pinned(tmp_path):
    _check(STORAGE_CASES, {"sim_duration": 12}, STORAGE_ROWS, tmp_path / "pin_raw.csv")
