"""Batch runner: task expansion, ordering, CSV formats, aggregation math."""
import math
import os
import random
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import nobcr
from nobcr.config import ConfigError, ScenarioConfig
from nobcr.harness import (
    RAW_SCHEMA,
    aggregate,
    build_tasks,
    mean_ci,
    paired_differences,
    read_rows,
    run_one,
    run_tasks,
    t_quantile,
    write_agg_csv,
    write_delay_cdfs,
    write_raw_csv,
)
from nobcr.metrics import SUMMARY_COLUMNS
from nobcr.presets import PRESETS, VARIANTS

from oracles import layered_config, write_pooled_delay_cdfs

TINY = {
    "n_nodes": 5,
    "area_side": 300,
    "sim_duration": 4.0,
    "n_sources": 1,
    "pkt_rate": 1.0,
    "traffic_delay": 0.5,
    "traffic_cutoff": 1.0,
    "hello_enabled": False,
    "collisions": False,
}


def tiny_task(variant="nobcr", sweep="-", seed=1, experiment="tiny"):
    """A task as ``build_tasks`` makes one: its config is the whole run."""
    return {
        "experiment": experiment,
        "variant": variant,
        "sweep": sweep,
        "seed": seed,
        "config": {**TINY, **VARIANTS[variant].settings, "seed": seed},
    }


class TestBuildTasks:
    def test_desk_profile_expands_fully(self):
        spec = PRESETS["sparse-sources"]
        tasks = build_tasks(spec, desk=True)
        # 3 sweep points x 4 variants x 10 desk seeds
        assert len(tasks) == 120
        sweeps = {t["sweep"] for t in tasks}
        assert sweeps == {"10", "20", "30"}
        assert {t["variant"] for t in tasks} == set(spec.variants)
        assert {t["seed"] for t in tasks} == set(range(1, 11))

    def test_explicit_seeds_and_variants(self):
        tasks = build_tasks(PRESETS["sparse-sources"], desk=True, seeds=[5, 9], variants=["nobcr"])
        assert len(tasks) == 6
        assert all(t["variant"] == "nobcr" for t in tasks)
        assert {t["seed"] for t in tasks} == {5, 9}

    def test_overrides_beat_sweep_changes(self):
        """An override would beat the sweep point's own value while each row
        kept the point's label, so an override of any swept key is rejected
        before any run."""
        swept = "sparse-sources sweeps n_sources over points 10, 20, 30"
        with pytest.raises(ConfigError, match=swept):
            build_tasks(PRESETS["sparse-sources"], desk=True, overrides={"n_sources": 7})
        swept = "scalability sweeps area_side, n_nodes over points 40, 60, 80"
        with pytest.raises(ConfigError, match=swept):
            build_tasks(PRESETS["scalability"], True, overrides={"n_nodes": "9", "area_side": 500})

    def test_bad_override_fails_before_any_run(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            build_tasks(PRESETS["storage"], desk=True, overrides={"not_a_knob": 1})

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variants"):
            build_tasks(PRESETS["storage"], desk=True, variants=["nobcr", "bogus"])


def _assert_layered(spec, desk, overrides, seeds=(1, 2)):
    """Each task's config, run as it stands, is the layered resolution."""
    base, sweep, _ = spec.profile(desk)
    changes = dict(sweep)
    tasks = build_tasks(spec, desk, seeds=list(seeds), overrides=overrides)
    assert len(tasks) == len(sweep) * len(spec.variants) * len(seeds)
    for task in tasks:
        expected = layered_config(
            base, changes[task["sweep"]], overrides, task["variant"], task["seed"]
        )
        assert ScenarioConfig.from_mapping(task["config"]) == expected, task


# fields no variant fixes, with values that keep every preset's config valid
FREE_FIELDS = {
    "tx_range": st.floats(50, 500),
    "mac_jitter": st.floats(0, 0.1),
    "pkt_size": st.integers(1, 2048),
    "pkt_rate": st.floats(0.1, 8),
    "collisions": st.booleans(),
    "traffic_delay": st.floats(0, 5),
    "hello_interval": st.floats(0.1, 3),
    "mcu_window": st.integers(1, 128),
    "table_expiry": st.floats(0.05, 10),
    "sim_duration": st.floats(1, 400),
    "mobility_warmup": st.floats(0, 200),
    "gratis_rule_off": st.booleans(),
    "sample_storage": st.booleans(),
}


class TestResolution:
    """``build_tasks`` is the one place a run's config is put together."""

    @pytest.mark.parametrize("desk", [False, True], ids=["full", "desk"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_task_config_is_the_layered_resolution(self, preset, desk):
        _assert_layered(PRESETS[preset], desk, {})

    @settings(max_examples=40, deadline=None)
    @given(
        preset=st.sampled_from(sorted(PRESETS)),
        desk=st.booleans(),
        overrides=st.fixed_dictionaries(
            {},
            optional={
                key: st.one_of(values, values.map(str))  # str: as ``--set`` gives it
                for key, values in FREE_FIELDS.items()
            },
        ),
    )
    def test_overrides_of_free_fields_resolve_as_layers(self, preset, desk, overrides):
        _assert_layered(PRESETS[preset], desk, overrides, seeds=(1,))

    def test_only_rad_sweep_points_clash_with_a_variant(self):
        clashes = []
        for preset, spec in sorted(PRESETS.items()):
            for desk in (False, True):
                for variant in VARIANTS:
                    try:
                        build_tasks(spec, desk, seeds=[1], variants=[variant])
                    except ConfigError:
                        clashes.append((preset, variant))
        fixing = sorted(v for v, spec in VARIANTS.items() if "rad_max" in spec.settings)
        assert len(fixing) == 7
        # each profile of rad-sweep sweeps rad_max
        assert sorted(clashes) == sorted([("rad-sweep", v) for v in fixing] * 2)
        assert not set(fixing) & set(PRESETS["rad-sweep"].variants)

    @pytest.mark.parametrize(
        "overrides, variant, key, fixed, given",
        [
            ({"rad_max": "0.1"}, "nobcr", "rad_max", "0.4", "0.1"),
            ({"coding": "table"}, "nobcr", "coding", "lightweight", "table"),
            ({"pool_lifetime": 0.3}, "codeb", "pool_lifetime", "5.0", "0.3"),
            ({"coded_redundancy": "on"}, "pdp-cu", "coded_redundancy", "False", "on"),
        ],
    )
    def test_a_value_the_variant_fixes_otherwise_is_rejected(
        self, overrides, variant, key, fixed, given
    ):
        with pytest.raises(ConfigError) as err:
            build_tasks(PRESETS["dense-sources"], True, seeds=[1], variants=[variant],
                        overrides=overrides)
        message = str(err.value)
        assert f"variant {variant} fixes {key} = {fixed}" in message
        assert f"sets {key} = {given}" in message

    def test_equal_values_pass_as_parsed(self):
        overrides = {"rad_max": "0.40", "termination": "MCU", "coded_redundancy": "yes"}
        tasks = build_tasks(PRESETS["dense-sources"], True, seeds=[1], variants=["nobcr"],
                            overrides=overrides)
        base, sweep, _ = PRESETS["dense-sources"].profile(True)
        assert [ScenarioConfig.from_mapping(t["config"]) for t in tasks] == [
            layered_config(base, changes, overrides, "nobcr", 1) for _, changes in sweep
        ]

    def test_a_seed_in_the_config_is_rejected(self):
        with pytest.raises(ConfigError, match="seeds come from --seeds"):
            build_tasks(PRESETS["storage"], True, overrides={"seed": 9})

    def test_run_one_runs_the_task_config_as_it_stands(self):
        # the labels do not re-resolve the run: a config resolved for pdp-cu
        # and seed 2 runs as such whatever the labels say
        task = tiny_task(variant="pdp-cu", seed=2)
        relabelled = {**task, "variant": "nobcr", "seed": 1}
        strip = lambda row: {k: v for k, v in row.items() if k not in ("variant", "seed")}
        assert strip(run_one(relabelled)) == strip(run_one(task))


class TestRunTasks:
    def test_rows_sorted_by_key_with_numeric_sweeps(self):
        tasks = [
            tiny_task(variant=v, sweep=s, seed=seed)
            for v in ("pdp-cu", "nobcr")
            for s in ("10", "2")
            for seed in (2, 1)
        ]
        random.Random(0).shuffle(tasks)
        rows = run_tasks(tasks)
        keys = [(r["variant"], r["sweep"], r["seed"]) for r in rows]
        assert keys == [
            ("nobcr", "2", 1),
            ("nobcr", "2", 2),
            ("nobcr", "10", 1),
            ("nobcr", "10", 2),
            ("pdp-cu", "2", 1),
            ("pdp-cu", "2", 2),
            ("pdp-cu", "10", 1),
            ("pdp-cu", "10", 2),
        ]

    def test_parallel_matches_serial(self):
        tasks = [tiny_task(seed=s) for s in (1, 2, 3)]
        serial = run_tasks(tasks, jobs=1)
        parallel = run_tasks([dict(t) for t in tasks], jobs=2)
        strip = lambda rows: [{k: v for k, v in r.items() if k != "_delays"} for r in rows]
        assert strip(serial) == strip(parallel)
        assert [r["_delays"] for r in serial] == [r["_delays"] for r in parallel]

    @pytest.mark.parametrize(
        "jobs, n_tasks, workers", [(8, 3, 3), (2, 5, 2), (3, 3, 3), (1, 3, 1), (4, 1, 1), (0, 2, 1)]
    )
    def test_pool_starts_no_more_workers_than_tasks(self, monkeypatch, jobs, n_tasks, workers):
        import concurrent.futures

        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        rows = run_tasks([tiny_task(seed=s) for s in range(1, n_tasks + 1)], jobs=jobs)
        # one worker runs the tasks in this process, with no pool
        assert started == ([workers] if workers > 1 else [])
        assert [r["seed"] for r in rows] == list(range(1, n_tasks + 1))

    def test_run_one_row_shape(self):
        row = run_one(tiny_task())
        for column in ("experiment", "variant", "sweep", "seed", *SUMMARY_COLUMNS):
            assert column in row
        assert isinstance(row["_delays"], array) and row["_delays"].typecode == "d"
        assert row["generated"] > 0


class TestMeanCi:
    def test_matches_t_interval(self):
        values = [1.0, 2.0, 3.0, 4.0]
        mean, half = mean_ci(values)
        assert mean == 2.5
        sem = math.sqrt(sum((v - mean) ** 2 for v in values) / 3 / 4)
        lo, hi = stats.t.interval(0.95, 3, loc=mean, scale=sem)
        assert half == pytest.approx((hi - lo) / 2)
        assert half == pytest.approx(2.0542602, abs=1e-6)

    def test_single_sample_has_no_interval(self):
        assert mean_ci([7.25]) == (7.25, 0.0)

    def test_constant_samples(self):
        mean, half = mean_ci([3.0, 3.0, 3.0])
        assert (mean, half) == (3.0, 0.0)

    def test_quantile_is_computed_once_per_level_and_df(self):
        t_quantile.cache_clear()
        first = mean_ci([1.0, 2.0, 4.0], level=0.9)
        misses = t_quantile.cache_info().misses
        assert mean_ci([1.0, 2.0, 4.0], level=0.9) == first
        info = t_quantile.cache_info()
        assert (info.hits, info.misses) == (1, misses)


class TestTQuantile:
    @pytest.mark.parametrize("level", [0.90, 0.95, 0.99])
    def test_matches_scipy(self, level):
        q = 0.5 + level / 2
        for df in [*range(1, 401), 1000, 5000]:
            assert t_quantile(q, df) == pytest.approx(stats.t.ppf(q, df), rel=1e-12, abs=0)

    QS = [0.5, 0.55, 0.75, 0.9, 0.95, 0.975, 0.995, 0.9995]

    @pytest.mark.parametrize("q", QS)
    def test_cauchy_closed_form(self, q):
        assert t_quantile(q, 1) == pytest.approx(math.tan(math.pi * (q - 0.5)), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("q", QS)
    def test_two_df_closed_form(self, q):
        exact = (2 * q - 1) / math.sqrt(2 * q * (1 - q))
        assert t_quantile(q, 2) == pytest.approx(exact, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("q, df", [(0.4, 3), (1.0, 3), (0.975, 0)])
    def test_rejects_arguments_outside_its_domain(self, q, df):
        with pytest.raises(ValueError):
            t_quantile(q, df)


def _loaded_by_import(roots: tuple[str, ...]) -> str:
    """The modules under ``roots`` that a fresh interpreter holds after
    importing ``nobcr``, ``nobcr.harness`` and ``nobcr.cli``."""
    src = Path(nobcr.__file__).resolve().parents[1]
    code = (
        "import nobcr, nobcr.harness, nobcr.cli, sys; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return out.stdout.strip()


def test_importing_the_package_loads_no_numeric_library():
    # scipy.stats alone took ~1.4 s and ~78 MB of every fresh process; the
    # runtime needs neither it nor numpy
    assert _loaded_by_import(("scipy", "numpy")) == "[]"


def test_importing_the_package_loads_no_process_pool():
    # concurrent.futures.process costs ~2.5 MB and 12-20 ms; only a sweep
    # fanned out over several workers uses it
    assert _loaded_by_import(("concurrent", "multiprocessing")) == "[]"


def test_importing_the_package_loads_no_statistics_module():
    # statistics pulls in fractions and decimal, ~0.4 MB and ~3 ms per
    # process; the delay median and percentile are written out in
    # nobcr.metrics instead
    assert _loaded_by_import(("statistics", "fractions", "decimal")) == "[]"


def synth_row(variant, sweep, seed, **metrics):
    row = {"experiment": "x", "variant": variant, "sweep": sweep, "seed": seed}
    for column in SUMMARY_COLUMNS:
        row[column] = 0.0
    row.update(metrics)
    return row


class TestAggregate:
    def test_group_means_and_seed_counts(self):
        rows = [
            synth_row("a", "1", 1, delivery_ratio=0.8, data_tx=100),
            synth_row("a", "1", 2, delivery_ratio=0.9, data_tx=120),
            synth_row("a", "2", 1, delivery_ratio=0.5, data_tx=300),
        ]
        aggs = aggregate(rows)
        assert [(g["variant"], g["sweep"], g["n_seeds"]) for g in aggs] == [
            ("a", "1", 2),
            ("a", "2", 1),
        ]
        first = aggs[0]
        assert first["delivery_ratio_mean"] == pytest.approx(0.85)
        assert first["data_tx_mean"] == pytest.approx(110.0)
        mean, half = mean_ci([0.8, 0.9])
        assert first["delivery_ratio_ci95"] == pytest.approx(half)
        assert aggs[1]["delivery_ratio_ci95"] == 0.0

    def test_numeric_sweep_ordering(self):
        rows = [synth_row("a", s, 1) for s in ("10", "2", "30")]
        aggs = aggregate(rows)
        assert [g["sweep"] for g in aggs] == ["2", "10", "30"]


class TestCsvRoundTrip:
    def test_raw_csv_schema_and_columns(self, tmp_path):
        rows = run_tasks([tiny_task(seed=1), tiny_task(seed=2)])
        path = tmp_path / "raw.csv"
        write_raw_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == RAW_SCHEMA
        header = lines[1].split(",")
        assert header[:4] == ["experiment", "variant", "sweep", "seed"]
        assert header[4:] == SUMMARY_COLUMNS
        assert "decode_late" in header
        assert len(lines) == 4

    def test_read_rows_round_trip(self, tmp_path):
        rows = run_tasks([tiny_task()])
        path = tmp_path / "raw.csv"
        write_raw_csv(rows, path)
        back = read_rows(path)
        assert len(back) == 1
        assert back[0]["variant"] == "nobcr"
        assert float(back[0]["delivery_ratio"]) == pytest.approx(
            float(f"{rows[0]['delivery_ratio']:.6g}")
        )

    def test_read_rows_requires_schema_line(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="missing schema line"):
            read_rows(path)

    def test_read_rows_accepts_only_a_raw_csv(self, tmp_path):
        # report pairs raw rows on their seed: an aggregate or a delay CDF has none
        rows = run_tasks([tiny_task()])
        write_agg_csv(aggregate(rows), tmp_path / "agg.csv")
        write_delay_cdfs(rows, tmp_path)
        for path, schema in [
            (tmp_path / "agg.csv", "#schema=nobcr-agg-1"),
            (tmp_path / "delay_cdf_nobcr_-.csv", "#schema=nobcr-delay-cdf-1"),
        ]:
            with pytest.raises(ValueError) as err:
                read_rows(path)
            assert str(err.value) == f"{path}: not a raw CSV: found {schema}, expected {RAW_SCHEMA}"
        # the right schema line over a header without some key columns
        raw = tmp_path / "raw.csv"
        write_raw_csv(rows, raw)
        lines = raw.read_text().splitlines()
        keep = [i for i, c in enumerate(lines[1].split(",")) if c not in ("experiment", "sweep")]
        raw.write_text("\n".join(
            [lines[0]] + [",".join(line.split(",")[i] for i in keep) for line in lines[1:]]
        ) + "\n")
        with pytest.raises(ValueError) as err:
            read_rows(raw)
        assert str(err.value) == f"{raw}: raw CSV lacks columns experiment, sweep"

    def test_identical_task_writes_identical_bytes(self, tmp_path):
        # the repeatability contract end to end: same config and seed, same file
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_raw_csv(run_tasks([tiny_task(seed=3)]), first)
        write_raw_csv(run_tasks([tiny_task(seed=3)]), second)
        assert first.read_bytes() == second.read_bytes()

    def test_agg_csv_header_pairs(self, tmp_path):
        aggs = aggregate([synth_row("a", "1", 1)])
        path = tmp_path / "agg.csv"
        write_agg_csv(aggs, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#schema=nobcr-agg")
        header = lines[1].split(",")
        assert header[:4] == ["experiment", "variant", "sweep", "n_seeds"]
        assert header[4:6] == ["generated_mean", "generated_ci95"]
        assert len(header) == 4 + 2 * len(SUMMARY_COLUMNS)


class TestDelayCdfs:
    def test_cdf_file_shape(self, tmp_path):
        rows = [
            synth_row("a", "1", 1),
            synth_row("a", "1", 2),
            synth_row("b", "1", 1),
        ]
        rows[0]["_delays"] = [0.3, 0.1]
        rows[1]["_delays"] = [0.2, 0.4]
        rows[2]["_delays"] = []
        write_delay_cdfs(rows, tmp_path)
        produced = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert produced == ["delay_cdf_a_1.csv"]
        lines = (tmp_path / "delay_cdf_a_1.csv").read_text().splitlines()
        assert lines[0] == "#schema=nobcr-delay-cdf-1"
        assert lines[1] == "delay,cdf"
        points = [tuple(map(float, ln.split(","))) for ln in lines[2:]]
        assert points[0] == (0.1, 0.25)
        assert points[-1] == (0.4, 1.0)
        delays = [p[0] for p in points]
        cdf = [p[1] for p in points]
        assert delays == sorted(delays)
        assert cdf == sorted(cdf)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b"]),
                st.sampled_from(["1", "10"]),
                st.sampled_from(["list", "array", "empty", "absent"]),
                st.integers(0, 1500),
                st.integers(0, 2**32),
            ),
            max_size=6,
        )
    )
    @example([("a", "1", "list", 700, 1), ("a", "1", "array", 400, 2), ("a", "1", "empty", 0, 3)])
    # several merge chunks of write_delay_cdfs, with ties across the rows
    @example([("b", "10", "array", 9000, 4), ("b", "10", "list", 6000, 5), ("b", "10", "array", 3000, 6)])
    def test_cdf_files_equal_the_pooled_sort(self, specs):
        rows = []
        for seed, (variant, sweep, kind, n, stream) in enumerate(specs):
            rng = random.Random(stream)
            # few decimals on some rows, so that equal delays meet across rows
            delays = [round(rng.expovariate(20.0), rng.choice([2, 4, 12])) for _ in range(n)]
            row = synth_row(variant, sweep, seed)
            if kind != "absent":
                row["_delays"] = array("d", delays) if kind == "array" else [] if kind == "empty" else delays
            rows.append(row)
        with tempfile.TemporaryDirectory() as got, tempfile.TemporaryDirectory() as want:
            write_delay_cdfs(rows, Path(got))
            write_pooled_delay_cdfs(rows, Path(want))
            names = sorted(p.name for p in Path(want).iterdir())
            assert sorted(p.name for p in Path(got).iterdir()) == names
            for name in names:
                assert (Path(got) / name).read_bytes() == (Path(want) / name).read_bytes()

    def test_large_sample_is_thinned(self, tmp_path):
        row = synth_row("a", "9", 1)
        row["_delays"] = [i / 10000 for i in range(10000)]
        write_delay_cdfs([row], tmp_path)
        lines = (tmp_path / "delay_cdf_a_9.csv").read_text().splitlines()
        assert len(lines) <= 2 + 501
        assert lines[-1].endswith(",1")


def _raw(variant, sweep, seed, **values):
    """A raw row as read back from a CSV: every summary column, as text."""
    row = {"experiment": "e", "variant": variant, "sweep": sweep, "seed": str(seed)}
    row.update({metric: "0" for metric in SUMMARY_COLUMNS})
    row.update({metric: str(v) for metric, v in values.items()})
    return row


class TestPairedDifferences:
    def test_pairs_on_sweep_and_seed(self):
        base = [_raw("a", "10", s, data_tx=tx) for s, tx in [(1, 100), (2, 200), (3, 300)]]
        base.append(_raw("a", "20", 1, data_tx=50))
        # listed in another order, one seed the baseline lacks
        cand = [_raw("b", "10", s, data_tx=tx) for s, tx in [(3, 290), (1, 95), (2, 180), (4, 1)]]
        out = paired_differences(base, cand)
        assert [(r["sweep"], r["metric"]) for r in out] == [("10", m) for m in SUMMARY_COLUMNS]
        tx = next(r for r in out if r["metric"] == "data_tx")
        mean, half = mean_ci([-5.0, -20.0, -10.0])
        assert (tx["pairs"], tx["mean"], tx["ci"]) == (3, mean, half)
        assert mean == pytest.approx(-35 / 3)
        delivery = next(r for r in out if r["metric"] == "delivery_ratio")
        assert (delivery["mean"], delivery["ci"]) == (0.0, 0.0)

    def test_one_interval_per_sweep_point(self):
        base = [_raw("a", sw, s, hello_tx=10) for sw in ("20", "10") for s in (1, 2)]
        cand = [_raw("b", sw, s, hello_tx=10 + int(sw)) for sw in ("20", "10") for s in (1, 2)]
        out = [r for r in paired_differences(base, cand) if r["metric"] == "hello_tx"]
        assert [(r["sweep"], r["pairs"], r["mean"], r["ci"]) for r in out] == [
            ("10", 2, 10.0, 0.0), ("20", 2, 20.0, 0.0),
        ]

    def test_more_than_one_variant_rejected(self):
        mixed = [_raw("a", "10", 1), _raw("b", "10", 2)]
        with pytest.raises(ValueError, match="baseline: expected one variant"):
            paired_differences(mixed, [_raw("a", "10", 1)])
        with pytest.raises(ValueError, match="candidate: expected one variant"):
            paired_differences([_raw("a", "10", 1)], mixed)

    def test_repeated_key_rejected(self):
        twice = [_raw("a", "10", 1), _raw("a", "10", 1, data_tx=5)]
        with pytest.raises(ValueError, match="appears twice"):
            paired_differences([_raw("a", "10", 1)], twice)

    def test_disjoint_keys_rejected(self):
        with pytest.raises(ValueError, match="no \\(sweep, seed\\) pair in common"):
            paired_differences([_raw("a", "10", 1)], [_raw("a", "10", 2)])
