"""Command line surface: exit codes, output files, printed summaries."""
import pytest

from nobcr import harness
from nobcr.cli import main, parse_seeds, parse_sets
from nobcr.config import ConfigError
from nobcr.harness import build_tasks, read_rows
from nobcr.presets import PRESETS
from nobcr.scenario import script_dir

# shrink a sources-sweep preset to something that finishes in about a second;
# n_sources is the swept key, so it is left to the points, and 30 nodes hold
# the largest desk point
FAST = [
    "--set", "n_nodes=30",
    "--set", "area_side=400",
    "--set", "sim_duration=5",
    "--set", "pkt_rate=1.0",
]


class TestParsers:
    def test_seed_range(self):
        assert parse_seeds("3..6") == [3, 4, 5, 6]

    def test_seed_list(self):
        assert parse_seeds("1,4,9") == [1, 4, 9]
        assert parse_seeds("7") == [7]

    def test_sets(self):
        assert parse_sets(["a=1", "b = x y "]) == {"a": "1", "b": "x y"}

    def test_sets_requires_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_sets(["oops"])

    def test_sets_reject_a_repeated_key(self):
        # the config-file parser, so the last value does not win without a word
        with pytest.raises(ConfigError, match="--set: duplicate key 'a'"):
            parse_sets(["a=1", " a = 2"])


class TestRunCommand:
    def test_preset_desk_run(self, tmp_path, capsys):
        rc = main(
            ["run", "sparse-sources", "--desk", "--seeds", "1", "--variant", "nobcr",
             "--out", str(tmp_path), *FAST]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sparse-sources: 3 runs written" in out
        # one aggregate line per sweep point
        assert out.count("delivery=") == 3
        raw = read_rows(tmp_path / "sparse-sources_desk_raw.csv")
        assert len(raw) == 3
        assert {r["sweep"] for r in raw} == {"10", "20", "30"}
        assert (tmp_path / "sparse-sources_desk_agg.csv").exists()

    def test_config_file_run(self, tmp_path, capsys):
        cfg = tmp_path / "mine.cfg"
        cfg.write_text(
            "n_nodes = 8\n"
            "area_side = 400\n"
            "sim_duration = 5\n"
            "n_sources = 2\n"
            "hello_enabled = off  # views: the true adjacency\n"
        )
        rc = main(["run", str(cfg), "--seeds", "1,2", "--out", str(tmp_path)])
        assert rc == 0
        raw = read_rows(tmp_path / "mine_raw.csv")
        assert len(raw) == 2
        assert {r["variant"] for r in raw} == {"nobcr"}
        assert {r["sweep"] for r in raw} == {"-"}
        assert (tmp_path / "mine_agg.csv").exists()
        assert (tmp_path / "delay_cdf_nobcr_-.csv").exists()
        assert "mine: 2 runs written" in capsys.readouterr().out

    def test_config_file_seed_is_the_default(self, tmp_path):
        cfg = tmp_path / "seeded.cfg"
        cfg.write_text("n_nodes = 6\narea_side = 300\nsim_duration = 5\nn_sources = 1\nseed = 7\n")
        assert main(["run", str(cfg), "--variant", "pdp-cu", "--out", str(tmp_path)]) == 0
        raw = read_rows(tmp_path / "seeded_raw.csv")
        assert [(r["variant"], r["seed"]) for r in raw] == [("pdp-cu", "7")]

    def test_desk_with_a_config_file_exits_2(self, tmp_path, capsys):
        # a config file is its own profile, so --desk would change nothing
        cfg = tmp_path / "mine.cfg"
        cfg.write_text("n_nodes = 6\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--desk", "--out", str(out)]) == 2
        assert "--desk applies to presets only" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_target_exits_2(self, tmp_path, capsys):
        rc = main(["run", "no-such-preset", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "neither a preset nor a config file" in err
        assert "sparse-sources" in err  # the help list

    def test_a_directory_target_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
        assert "neither a preset nor a config file" in capsys.readouterr().err

    def test_an_out_that_is_a_file_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "run_tasks", lambda tasks, jobs=1: ran.extend(tasks) or [])
        out = tmp_path / "taken"
        out.write_text("")
        rc = main(["run", "storage", "--desk", "--seeds", "1", "--set", "sim_duration=5",
                   "--out", str(out)])
        assert rc == 2
        assert f"error: {out}: File exists" in capsys.readouterr().err
        assert ran == []

    def test_unknown_variant_exits_2(self, tmp_path, capsys):
        rc = main(
            ["run", "storage", "--desk", "--seeds", "1", "--variant", "bogus",
             "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "unknown variants" in capsys.readouterr().err

    def test_bad_override_key_exits_2(self, tmp_path, capsys):
        rc = main(
            ["run", "storage", "--desk", "--seeds", "1", "--set", "warp_factor=9",
             "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds", ["5..1", ",", ""])
    def test_seeds_naming_no_seed_exit_2(self, tmp_path, capsys, seeds):
        # an empty seed list must not fall back to the preset's default seeds
        rc = main(["run", "storage", "--desk", "--seeds", seeds, "--out", str(tmp_path)])
        assert rc == 2
        assert "names no seed" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert build_tasks(PRESETS["storage"], desk=True, seeds=[]) == []

    @pytest.mark.parametrize(
        "target, extra, variant, key",
        [
            ("dense-sources", ["--variant", "nobcr", "--set", "rad_max=0.1"], "nobcr", "rad_max"),
            ("dense-sources", ["--variant", "nobcr", "--set", "coding=table"], "nobcr", "coding"),
            # every RAD point of the sweep would run at nobcr's 0.4
            ("rad-sweep", ["--variant", "nobcr"], "nobcr", "rad_max"),
            ("dense-sources", ["--variant", "codeb", "--set", "pool_lifetime=0.3"], "codeb",
             "pool_lifetime"),
        ],
    )
    def test_value_a_variant_fixes_otherwise_exits_2(
        self, tmp_path, capsys, target, extra, variant, key
    ):
        out = tmp_path / "out"
        rc = main(["run", target, "--desk", "--seeds", "1", *extra, "--out", str(out)])
        assert rc == 2
        assert f"variant {variant} fixes {key} = " in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_value_a_variant_fixes_otherwise_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "mine.cfg"
        cfg.write_text(
            "n_nodes = 8\narea_side = 400\nsim_duration = 5\nn_sources = 2\n"
            "rad_max = 0.05\ncoding = table\n"
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "variant nobcr fixes rad_max = 0.4, but the config sets rad_max = 0.05" in err
        assert not out.exists()

    def test_set_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "dense-sources", "--desk", "--set", "seed=9", "--out", str(out)])
        assert rc == 2
        assert "seeds come from --seeds" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_value_equal_to_the_variant_runs(self, tmp_path):
        body = "n_nodes = 8\narea_side = 400\nsim_duration = 5\nn_sources = 2\n"
        raws = []
        for name, extra in [("plain", ""), ("equal", "termination = mcu\nrad_max = 0.40\n")]:
            (tmp_path / name).mkdir()
            cfg = tmp_path / name / "mine.cfg"
            cfg.write_text(body + extra)
            out = tmp_path / name / "out"
            assert main(["run", str(cfg), "--set", "coding=Lightweight", "--out", str(out)]) == 0
            raws.append((out / "mine_raw.csv").read_bytes())
        assert raws[0] == raws[1]

    @pytest.mark.parametrize(
        "extra, repeat",
        [
            (["--seeds", "1,1", "--variant", "pdp-cu"], "repeated seeds: [1]"),
            (["--seeds", "1", "--variant", "pdp-cu", "--variant", "pdp-cu"],
             "repeated variants: ['pdp-cu']"),
        ],
        ids=["seed", "variant"],
    )
    def test_a_repeated_seed_or_variant_exits_2(self, tmp_path, capsys, extra, repeat):
        # one run counted twice would read as two seeds with no spread
        out = tmp_path / "out"
        assert main(["run", "dense-sources", "--desk", *extra, "--out", str(out)]) == 2
        assert repeat in capsys.readouterr().err
        assert not out.exists()

    def test_a_repeated_set_key_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "storage", "--desk", "--seeds", "1", "--set", "sim_duration=5",
                   "--set", "sim_duration=6", "--out", str(out)])
        assert rc == 2
        assert "duplicate key 'sim_duration'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        # no silent serial run: the parser rejects the value before any run
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", "storage", "--desk", "--seeds", "1", "--jobs", jobs, "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_set_exits_2(self, tmp_path, capsys):
        rc = main(["run", "storage", "--desk", "--set", "oops", "--out", str(tmp_path)])
        assert rc == 2
        assert "key=value" in capsys.readouterr().err


class TestScriptCommand:
    def test_shipped_script_quiet(self, capsys):
        rc = main(["script", str(script_dir() / "sequence_gap.json"), "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "-- delivered --" in out
        assert "PacketId(source=0, sn=2): [1, 2, 3, 4]" in out
        assert "-- counters --" in out

    def test_event_log_printed_without_quiet(self, capsys):
        rc = main(["script", str(script_dir() / "sequence_gap.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "drop-term-late" in out

    def test_set_overrides_script_config(self, capsys):
        rc = main(
            ["script", str(script_dir() / "sequence_gap.json"), "--quiet",
             "--set", "termination=mcu"]
        )
        assert rc == 0
        assert "PacketId(source=0, sn=1): [1, 2, 3, 4]" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["sequence_gap.json", "gratis_rule.json"])
    def test_fixed_topology_under_mobility_exits_2(self, capsys, name):
        # sequence_gap gives positions, gratis_rule an adjacency
        rc = main(
            ["script", str(script_dir() / name), "--quiet", "--set", "hello_enabled=on",
             "--set", "speed_min=1", "--set", "speed_max=5"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "fixed topology (adjacency or positions) needs a static run" in captured.err
        assert captured.out == ""

    def test_unknown_set_key_exits_2(self, capsys):
        rc = main(["script", str(script_dir() / "gratis_rule.json"), "--set", "bogus=1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error: unknown config keys: ['bogus']" in captured.err
        assert captured.out == ""

    def test_a_repeated_set_key_exits_2(self, capsys):
        rc = main(["script", str(script_dir() / "gratis_rule.json"), "--quiet",
                   "--set", "collisions=on", "--set", "collisions=off"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "duplicate key 'collisions'" in captured.err
        assert captured.out == ""

    def test_missing_script_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["script", str(missing)]) == 2
        assert f"error: {missing}: No such file or directory" in capsys.readouterr().err

    def test_invalid_script_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"config\": {\"n_nodes\": 2}}")
        rc = main(["script", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


def _raw_csv(path, runs):
    """A raw CSV of (variant, seed, data_tx) runs of experiment x at sweep 10,
    other columns 1."""
    from nobcr.metrics import SUMMARY_COLUMNS

    lines = ["#schema=nobcr-raw-1",
             ",".join(["experiment", "variant", "sweep", "seed"] + SUMMARY_COLUMNS)]
    for variant, seed, tx in runs:
        values = [str(tx) if m == "data_tx" else "1" for m in SUMMARY_COLUMNS]
        lines.append(",".join(["x", variant, "10", str(seed)] + values))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestReportCommand:
    def test_paired_table(self, tmp_path, capsys):
        base = _raw_csv(tmp_path / "base.csv", [("pdp-cu", 1, 200), ("pdp-cu", 2, 100), ("pdp-cu", 3, 300)])
        cand = _raw_csv(tmp_path / "cand.csv", [("nobcr", 3, 290), ("nobcr", 1, 190), ("nobcr", 2, 90)])
        rc = main(["report", base, cand])
        assert rc == 0
        out = capsys.readouterr().out
        assert "paired on (sweep, seed)" in out
        (tx,) = [line for line in out.splitlines() if " data_tx " in line]
        assert "pairs=3" in tx and "-10 ± 0" in tx

    def test_mixed_variants_exit_2(self, tmp_path, capsys):
        base = _raw_csv(tmp_path / "base.csv", [("pdp-cu", 1, 200)])
        mixed = _raw_csv(tmp_path / "mixed.csv", [("pdp-cu", 1, 200), ("nobcr", 2, 100)])
        rc = main(["report", base, mixed])
        assert rc == 2
        assert "expected one variant" in capsys.readouterr().err

    def test_schemaless_input_exits_2(self, tmp_path, capsys):
        base = tmp_path / "base.csv"
        base.write_text("sweep,data_tx\n10,200\n")
        rc = main(["report", str(base), str(base)])
        assert rc == 2
        assert "missing schema line" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        base = _raw_csv(tmp_path / "base.csv", [("pdp-cu", 1, 200)])
        missing = tmp_path / "nope.csv"
        assert main(["report", base, str(missing)]) == 2
        assert f"error: {missing}: No such file or directory" in capsys.readouterr().err

    def test_non_raw_input_exits_2(self, tmp_path, capsys):
        base = _raw_csv(tmp_path / "base.csv", [("pdp-cu", 1, 200)])
        agg = tmp_path / "x_agg.csv"
        agg.write_text("#schema=nobcr-agg-1\nexperiment,variant,sweep,n_seeds\nx,nobcr,10,1\n")
        rc = main(["report", base, str(agg)])
        assert rc == 2
        assert f"{agg}: not a raw CSV: found #schema=nobcr-agg-1" in capsys.readouterr().err


def test_entry_point_is_installed():
    # console script wiring: the module must expose main() returning int
    from nobcr import cli

    assert callable(cli.main)
