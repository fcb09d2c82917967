"""Output checks, process-count independence, run.py and compare."""
import json
import subprocess
import sys
from pathlib import Path

from compare import verdict
from rep import row_digest, row_problems, run_pass
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent


def good_row(**changes):
    row = {"generated": 10.0, "deliveries": 40.0, "delivery_ratio": 0.8, "data_tx": 12.0,
           "encoded_tx": 5.0, "encoded_tx_gratis": 2.0, "_n_nodes": 6, "_delays": [0.2, 0.1]}
    row.update(changes)
    return row


def test_output_checks_pass_a_consistent_row():
    assert row_problems(good_row()) == []


def test_output_checks_flag_each_violation():
    assert row_problems(good_row(deliveries=51.0))
    assert row_problems(good_row(encoded_tx_gratis=6.0))
    assert row_problems(good_row(encoded_tx=13.0, encoded_tx_gratis=0.0))
    assert row_problems(good_row(delivery_ratio=1.01))
    assert row_problems(good_row(delivery_ratio=-0.1))


def test_digest_ignores_delay_order_only():
    assert row_digest(good_row()) == row_digest(good_row(_delays=[0.1, 0.2]))
    assert row_digest(good_row()) != row_digest(good_row(_delays=[0.1, 0.3]))
    assert row_digest(good_row()) != row_digest(good_row(data_tx=13.0))


def test_sweep_digests_do_not_depend_on_process_count(tmp_path):
    workload = WORKLOADS["sweep-table"]
    serial, _ = run_pass(workload, 5, tmp_path, jobs=1, sim_duration=8.0)
    pooled, _ = run_pass(workload, 5, tmp_path, jobs=2, sim_duration=8.0)
    assert len(serial) == workload.runs_per_pass
    assert [row_digest(r) for r in serial] == [row_digest(r) for r in pooled]
    assert not list(tmp_path.iterdir())  # the CSV directory is cleaned up


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "mobile-flood", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_end_to_end_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep-table", "--seed", "2",
         "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    assert verdict(parent, faster, True, 0.1) == (1.0, "improved")
    assert verdict(parent, [v * 1.2 for v in parent], True, 0.1)[1] == "worse"
    assert verdict(parent, list(parent), True, 0.1)[1] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, [v * 0.98 for v in noisy], True, 0.1)[1] == "unresolved"
    assert verdict(parent, faster, False, 0.1)[1] == "worse"
