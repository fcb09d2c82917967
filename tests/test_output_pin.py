"""Byte-identity pins on the raw CSV of fixed sets of runs, one digest per row.

Eleven short runs (every variant on the dense-sources desk profile, plus a
mobile pair) are written with ``harness.write_raw_csv``; the sha256 of the
schema and header lines and the sha256 of each row, in file order, are
compared with the digests recorded before the refactors they guard.  Those
runs never get past sequence number 64, so they never wrap the MC/U window; a
second pin (``SMALL_WINDOW``) runs the MC/U variants with a 4-packet window
long enough to wrap it many times.  Both keep reception-table marks for 5 s
and pool entries for 2 s (5 s under ``codeb``), far longer than one flood
lasts, so a third pin (``SHORT_EXPIRY``) runs the pool and table users (table
coding and M/U) with expiries of a few hundred milliseconds, where entries
lapse mid-flood.  ``codeb`` fixes its pool lifetime, so its own pin
(``SHORT_EXPIRY_CODEB``) shortens only the table expiry: its pool entries
live 5 s.  None of those samples detector storage, so a last pin
(``STORAGE``) runs the storage desk, whose periodic samples read
``ReceptionTable.item_count`` and the lightweight pool's item count into the
storage columns.

A sixth pin (``SCRIPT_LOG_ROWS``) covers what the raw CSV never shows, the
event log: the sha256 of the full ``nobcr script`` stdout (log lines,
deliveries and counters) of each shipped script.

A refactor or a speed-up must leave every digest alone.  An intended change
of behaviour re-records only the rows of the variants it changes, and says
so, with the shift in results, in CHANGES.md; since every row is keyed by its
experiment and variant, a failure names the runs that moved.

``PYTHONPATH=src python tests/test_output_pin.py`` prints every pin's current
rows in the form of the literals below, marking each row that differs from
the recorded one, so that re-recording is a copy of the marked lines.  It
exits 1 when the header or any row is marked, so a shell check can gate on
it.
"""
import contextlib
import hashlib
import io

import pytest

from nobcr import cli, harness
from nobcr.presets import PRESETS, VARIANTS
from nobcr.scenario import script_dir

# sha256 of the schema line plus the column header, shared by every pin
HEADER_SHA256 = "c6f560a20b80887bc1f05e6cd97e89766010c0a2ab8806f772b22a7dc5adc260"

RAW_ROWS = [
    ("dense-sources", "codeb", "b17ba6c678a03d45d9b8cd6cdcbd6dc5e4316b2b330b396a30d0b7644373df77"),
    ("dense-sources", "nobcr", "79889134fe7e599f5fd50fd0a2219b2105fba98966d597da34b1256104ceb71e"),
    ("dense-sources", "nobcr-nocr", "074c5b125af45407167c4d05a40195affe85985675fc672798534eb46e785aa2"),
    ("dense-sources", "nobcr-table", "354ab9981c67759c8cb9897093707a16a439b9580398ed0c86211964f9eb47ee"),
    ("dense-sources", "pdp-cu", "218de12f42ca4f218ba1b58440e9128b36bc1916de0a1165b3902cb8ced8621a"),
    ("dense-sources", "pdp-cu-rad", "6033aeb299bc0676499aa9d668821a9b7de0cba02d6e0ca982c1b39c0304ea76"),
    ("dense-sources", "pdp-mcu", "01e95daf2c2ebdc183009358a28a5e30eed9dcfe236f0bcd15c0040528a1269c"),
    ("dense-sources", "pdp-mu", "ea4e8b630d74dc47ad9204dc211d82ac6514e9dc007226a3944f1e73d2701d53"),
    ("dense-sources", "pdp-ru", "43b24f64cc4e809bfed392db00572e2d84dfdc437be7b97933a7186270e8d163"),
    ("mobility", "nobcr", "078b7ea2280d311a00969a26dc1e852d184144fde308e80f2e95037f6511248a"),
    ("mobility", "pdp-cu", "6dd9386b96f40e704a95e413be0b8bd5edf7e4f7858db75ba018a418608083b4"),
]
SMALL_WINDOW_ROWS = [
    ("dense-sources", "nobcr", "75e3374553523277e745888be5f4a3439f6097b05f7a4144fe3706440e6a2965"),
    ("dense-sources", "nobcr-table", "461e69ee777ac647355248611614032f6600eb69e04835464c125e3e1dd2f0c5"),
    ("dense-sources", "pdp-mcu", "4c4ef688bf1254a829f97d8bad30521d307951b0131503d44616cc48d3657774"),
]
SHORT_EXPIRY_ROWS = [
    ("dense-sources", "nobcr", "c2c01ea0a7f2b8924404a45049bb8c17a646d808f29fbaad2200a3c3a402925d"),
    ("dense-sources", "nobcr-table", "0907e107d409ec293e80e90bee8e834bb9470c51e96e54107a8f4dbde7064088"),
    ("dense-sources", "pdp-mu", "ea4e8b630d74dc47ad9204dc211d82ac6514e9dc007226a3944f1e73d2701d53"),
]
SHORT_EXPIRY_CODEB_ROWS = [
    ("dense-sources", "codeb", "d1c9a22fd1f9f77b26b054298f474e858eec11cf915caa7c8f79d50990c07744"),
]
STORAGE_ROWS = [
    ("storage", "codeb", "0715655dd668b1496db3244c3c69594e3bbe111b17b2fb2a5e4085d45e03908f"),
    ("storage", "nobcr", "d0c7c1c65a1b7608097a024894fd9af13e553fbf5ad33283e314d064c1f4d6b3"),
    ("storage", "nobcr-table", "be6d86a7d46923527502bdbd73d8cd5f02eed390d34aebbff3fbcc7ec4a78242"),
]
# (shipped script, sha256 of its ``nobcr script`` stdout)
SCRIPT_LOG_ROWS = [
    ("gratis_rule.json", "8c2bb2fcebd1710d7f75a1c68487043a45da460d623984086d75e9e1ef21307d"),
    ("sequence_gap.json", "4f69aa8c5ec2914e4b411b92723fa5542277703cb483780e8ad8e596ced65578"),
]

CASES = [
    ("dense-sources", "10", tuple(VARIANTS)),
    ("mobility", "10", ("nobcr", "pdp-cu")),
]
SMALL_WINDOW_CASES = [("dense-sources", "10", ("nobcr", "nobcr-table", "pdp-mcu"))]
SMALL_WINDOW = {"mcu_window": 4, "pkt_rate": 4, "sim_duration": 20}
SHORT_EXPIRY_CASES = [("dense-sources", "10", ("nobcr", "nobcr-table", "pdp-mu"))]
SHORT_EXPIRY = {
    "sim_duration": 10, "pool_lifetime": 0.3, "table_expiry": 0.3,
}
SHORT_EXPIRY_CODEB_CASES = [("dense-sources", "10", ("codeb",))]
SHORT_EXPIRY_CODEB = {"sim_duration": 10, "table_expiry": 0.3}
STORAGE_CASES = [("storage", "10", ("nobcr", "nobcr-table", "codeb"))]

# name of the recorded rows: (cases, overrides, rows), one entry per pin
PINS = {
    "RAW_ROWS": (CASES, {"sim_duration": 10}, RAW_ROWS),
    "SMALL_WINDOW_ROWS": (SMALL_WINDOW_CASES, SMALL_WINDOW, SMALL_WINDOW_ROWS),
    "SHORT_EXPIRY_ROWS": (SHORT_EXPIRY_CASES, SHORT_EXPIRY, SHORT_EXPIRY_ROWS),
    "SHORT_EXPIRY_CODEB_ROWS": (
        SHORT_EXPIRY_CODEB_CASES, SHORT_EXPIRY_CODEB, SHORT_EXPIRY_CODEB_ROWS,
    ),
    "STORAGE_ROWS": (STORAGE_CASES, {"sim_duration": 12}, STORAGE_ROWS),
}


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


def _script_digest(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["script", str(script_dir() / name)]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _check(cases, overrides, expected_rows, path):
    tasks = _tasks(cases, overrides)
    assert len(tasks) == len(expected_rows)
    header, rows = _digests(tasks, path)
    assert header == HEADER_SHA256
    assert rows == expected_rows


def test_raw_csv_digest_is_pinned(tmp_path):
    _check(*PINS["RAW_ROWS"], tmp_path / "pin_raw.csv")


def test_small_window_raw_csv_digest_is_pinned(tmp_path):
    _check(*PINS["SMALL_WINDOW_ROWS"], tmp_path / "pin_raw.csv")


def test_short_expiry_raw_csv_digest_is_pinned(tmp_path):
    _check(*PINS["SHORT_EXPIRY_ROWS"], tmp_path / "pin_raw.csv")


def test_short_expiry_codeb_raw_csv_digest_is_pinned(tmp_path):
    _check(*PINS["SHORT_EXPIRY_CODEB_ROWS"], tmp_path / "pin_raw.csv")


def test_storage_raw_csv_digest_is_pinned(tmp_path):
    _check(*PINS["STORAGE_ROWS"], tmp_path / "pin_raw.csv")


@pytest.mark.parametrize("row", SCRIPT_LOG_ROWS, ids=[name for name, _ in SCRIPT_LOG_ROWS])
def test_script_event_log_digest_is_pinned(row):
    name, _ = row
    assert (name, _script_digest(name)) == row


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, (cases, overrides, recorded) in PINS.items():
            header, rows = _digests(_tasks(cases, overrides), Path(tmp) / "pin_raw.csv")
            if header != HEADER_SHA256:
                differs = True
                print(f"# HEADER_SHA256 differs: {header}")
            print(f"{name} = [")
            for row in rows:
                new = row not in recorded
                differs |= new
                print('    ("{}", "{}", "{}"),{}'.format(*row, "  # differs" if new else ""))
            print("]")
    print("SCRIPT_LOG_ROWS = [")
    for name, _ in SCRIPT_LOG_ROWS:
        row = (name, _script_digest(name))
        new = row not in SCRIPT_LOG_ROWS
        differs |= new
        print('    ("{}", "{}"),{}'.format(*row, "  # differs" if new else ""))
    print("]")
    raise SystemExit(1 if differs else 0)
