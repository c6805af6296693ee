"""Config plumbing, table rendering, runner behavior, CLI contract."""

import json
import math

import numpy as np
import pytest

from dipnesim import cli
from dipnesim.cli import main
from dipnesim.experiments import (
    EXPERIMENTS,
    ResultTable,
    make_config,
    read_config_file,
    run_experiment,
)


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = make_config("interference")
        assert cfg["theta_split"] == pytest.approx(math.pi / 5)
        assert cfg["family"] == "vacuum"
        assert cfg["cutoff"] == 30

    def test_string_values_converted(self):
        cfg = make_config(
            "kitten", {"squeeze_min": "2.5", "k_list": "1, 3 ,5", "infinite": "false"}
        )
        assert cfg["squeeze_min"] == 2.5
        assert cfg["k_list"] == (1, 3, 5)
        assert cfg["infinite"] is False

    def test_native_values_accepted(self):
        cfg = make_config("kitten", {"squeeze_min": 2.5, "k_list": (1, 3), "infinite": True})
        assert cfg["squeeze_min"] == 2.5
        assert cfg["k_list"] == (1, 3)
        assert cfg["infinite"] is True

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="valid names"):
            make_config("warp-drive")

    def test_unknown_keys_listed(self):
        with pytest.raises(ValueError, match="bogus"):
            make_config("kitten", {"bogus": 1})

    def test_bad_value_reports_key(self):
        with pytest.raises(ValueError, match="squeeze_min"):
            make_config("kitten", {"squeeze_min": "not-a-number"})

    def test_invalid_family_lists_names(self):
        with pytest.raises(ValueError, match="photon-both"):
            make_config("interference", {"family": "nope"})

    def test_values_read_only(self):
        cfg = make_config("gaussdrive")
        with pytest.raises(TypeError):
            cfg.values["r_min"] = 1.0

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nr_steps = 3\nr_max=1.5\n", encoding="utf-8")
        raw = read_config_file(path)
        assert raw == {"r_steps": "3", "r_max": "1.5"}
        cfg = make_config("gaussdrive", raw)
        assert cfg["r_steps"] == 3
        assert cfg["r_max"] == 1.5

    def test_config_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key = value"):
            read_config_file(path)


class TestResultTable:
    def test_csv_layout(self):
        table = ResultTable(
            columns=("a", "b"),
            rows=((1, 0.5), (2, float("inf"))),
            metadata=(("experiment", "demo"), ("version", "0.0")),
        )
        text = table.to_csv()
        assert text == "# experiment = demo\n# version = 0.0\na,b\n1,0.5\n2,inf\n"

    def test_json_layout(self):
        table = ResultTable(
            columns=("a",), rows=((1,),), metadata=(("experiment", "demo"),)
        )
        payload = json.loads(table.to_json())
        assert payload["columns"] == ["a"]
        assert payload["rows"] == [[1]]
        assert payload["metadata"]["experiment"] == "demo"

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            ResultTable(columns=("a", "b"), rows=((1,),), metadata=())

    def test_string_cells_must_stay_csv_safe(self):
        table = ResultTable(columns=("a",), rows=(("x,y",),), metadata=())
        with pytest.raises(ValueError):
            table.to_csv()

    def test_column_and_meta_access(self):
        table = ResultTable(
            columns=("a", "b"), rows=((1, 2.0), (3, 4.0)), metadata=(("k", "v"),)
        )
        assert table.column("b") == [2.0, 4.0]
        assert table.meta("k") == "v"
        with pytest.raises(KeyError):
            table.meta("missing")


class TestInterferenceRun:
    def test_vacuum_family_collapses_to_theory(self):
        cfg = make_config("interference", {"fraction_count": 5, "cutoff": 20})
        table = run_experiment(cfg)
        assert max(table.column("abs_error")) < 1e-12
        fractions = table.column("fraction")
        assert fractions == sorted(fractions)
        # undisplaced end points carry no interference loss
        assert table.rows[0][1] == pytest.approx(0.0, abs=1e-12)
        assert table.rows[-1][1] == pytest.approx(0.0, abs=1e-12)

    def test_pi_phase_flips_sign(self):
        base = {"fraction_count": 3, "cutoff": 16}
        plain = run_experiment(make_config("interference", base))
        flipped = run_experiment(
            make_config("interference", {**base, "phase": math.pi})
        )
        mid_plain = plain.rows[1][1]
        mid_flipped = flipped.rows[1][1]
        assert mid_plain > 0.0
        assert mid_flipped == pytest.approx(-mid_plain, abs=1e-8)

    def test_phase_must_be_zero_or_pi(self):
        with pytest.raises(ValueError, match="phase"):
            run_experiment(make_config("interference", {"phase": 0.3}))

    def test_photon_cores_also_collapse(self):
        cfg = make_config(
            "interference",
            {"fraction_count": 3, "cutoff": 20, "family": "photon-both"},
        )
        table = run_experiment(cfg)
        assert max(table.column("abs_error")) < 1e-10

    def test_cutoff_120_matches_theory(self):
        # l_intf reads the gadget out from two-mode marginals, so no
        # 121^4-amplitude state (above MAX_JOINT_DIM) is ever built
        cfg = make_config(
            "interference",
            {"fraction_count": 3, "cutoff": 120, "family": "photon-both"},
        )
        table = run_experiment(cfg)
        assert max(table.column("abs_error")) <= 1e-9
        assert 0.0 <= float(table.meta("max_clipped_sector_mass")) < 1e-100

    def test_erasure_cutoff_key_removed(self):
        with pytest.raises(ValueError, match="unknown keys for interference: erasure_cutoff"):
            make_config("interference", {"erasure_cutoff": 24})


class TestKittenRun:
    @pytest.fixture(scope="class")
    def table(self):
        cfg = make_config(
            "kitten",
            {"squeeze_min": 4, "squeeze_max": 10, "squeeze_steps": 2,
             "k_list": "0,1,2", "cutoff": 300},
        )
        return run_experiment(cfg)

    def test_columns_and_order(self, table):
        assert table.columns[:2] == ("squeeze_photons", "k")
        keys = [(r[0], r[1]) for r in table.rows]
        assert keys == sorted(keys)

    def test_probabilities_in_range(self, table):
        for p in table.column("probability"):
            assert 0.0 < p < 1.0

    def test_leakage_recorded_small(self, table):
        assert float(table.meta("max_leakage")) < 1e-6

    def test_zero_squeezing_rows(self):
        cfg = make_config(
            "kitten",
            {"squeeze_min": 0, "squeeze_max": 4, "squeeze_steps": 2,
             "k_list": "0,1", "cutoff": 200},
        )
        table = run_experiment(cfg)
        by_key = {(r[0], r[1]): r for r in table.rows}
        assert by_key[(0.0, 0)][2] == 1.0
        assert by_key[(0.0, 1)][2] == 0.0
        assert math.isnan(by_key[(0.0, 1)][3])

    def test_infinite_flag(self):
        cfg = make_config(
            "kitten", {"infinite": True, "k_list": "1", "cutoff": 300}
        )
        table = run_experiment(cfg)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert math.isinf(row[0])
        assert math.isnan(row[2])
        assert row[3] == pytest.approx(3.2483, abs=2e-3)

    def test_cutoff_gate_suggests_size(self):
        with pytest.raises(ValueError, match="at least"):
            run_experiment(
                make_config("kitten", {"squeeze_max": 30, "cutoff": 200})
            )


class TestCatfitRun:
    def test_fit_parameters_exposed(self):
        cfg = make_config(
            "catfit",
            {"squeeze_min": 5, "squeeze_max": 5, "squeeze_steps": 1,
             "k_list": "1", "cutoff": 200},
        )
        table = run_experiment(cfg)
        row = table.rows[0]
        assert table.columns[2] == "fidelity"
        assert row[2] > 0.98
        assert row[7] == pytest.approx(math.pi)

    def test_rejects_zero_squeezing(self):
        with pytest.raises(ValueError, match="positive"):
            run_experiment(
                make_config(
                    "catfit",
                    {"squeeze_min": 0, "squeeze_max": 4, "squeeze_steps": 2},
                )
            )


class TestNumberdiffRun:
    @pytest.fixture(scope="class")
    def table(self):
        cfg = make_config("numberdiff", {"k": 3, "cutoff": 80, "joint_cutoff": 120})
        return run_experiment(cfg)

    def test_completeness(self, table):
        joint = [r[4] for r in table.rows if r[0] == "joint"]
        assert sum(joint) == pytest.approx(1.0, abs=1e-8)

    def test_marginal_consistent(self, table):
        joint = {(r[1], r[2]): r[4] for r in table.rows if r[0] == "joint"}
        diffs = {r[3]: r[4] for r in table.rows if r[0] == "difference"}
        by_hand: dict[int, float] = {}
        for (n0, n1), p in joint.items():
            by_hand[n0 - n1] = by_hand.get(n0 - n1, 0.0) + p
        for d, p in diffs.items():
            assert p == pytest.approx(by_hand.get(d, 0.0), abs=1e-12)

    def test_odd_k_excludes_equal_counts(self, table):
        assert float(table.meta("p_equal_counts")) < 1e-10
        equal = [r[4] for r in table.rows if r[0] == "joint" and r[1] == r[2]]
        assert sum(equal) < 1e-10

    def test_even_k_keeps_equal_counts(self):
        cfg = make_config("numberdiff", {"k": 2, "cutoff": 60, "joint_cutoff": 100})
        table = run_experiment(cfg)
        assert float(table.meta("p_equal_counts")) > 1e-4

    def test_lo_rule_variants_differ(self):
        base = {"k": 1, "cutoff": 50, "joint_cutoff": 80}
        a = run_experiment(make_config("numberdiff", base))
        b = run_experiment(
            make_config("numberdiff", {**base, "lo_rule": "sqrt-of-plus-2"})
        )
        amp_a = float(a.meta("lo_amplitude"))
        amp_b = float(b.meta("lo_amplitude"))
        mean = float(a.meta("kitten_mean_photons"))
        assert amp_a == pytest.approx(math.sqrt(mean) + 2.0, abs=1e-12)
        assert amp_b == pytest.approx(math.sqrt(mean + 2.0), abs=1e-12)

    def test_joint_cutoff_validated(self):
        with pytest.raises(ValueError, match="joint_cutoff"):
            run_experiment(
                make_config("numberdiff", {"cutoff": 100, "joint_cutoff": 50})
            )


class TestMatchRun:
    def test_small_grid(self):
        cfg = make_config(
            "match",
            {"source_k": "1,3", "target_k": "1,3", "squeeze_photons": 5,
             "cutoff": 120, "work_cutoff": 240},
        )
        table = run_experiment(cfg)
        by_key = {(r[0], r[1]): r for r in table.rows}
        assert by_key[(1, 1)][2] == 0.0
        assert by_key[(3, 3)][2] == 0.0
        assert by_key[(1, 3)][2] > 0.0
        assert by_key[(3, 1)][2] < 0.0
        for row in table.rows:
            assert 0.0 <= row[3] < 1.0


class TestGaussdriveRun:
    def test_frozen_strong_limits(self):
        cfg = make_config("gaussdrive", {"r_steps": 2})
        table = run_experiment(cfg)
        strong = {
            (r[0], round(r[1], 6)): r[4] for r in table.rows
        }
        assert strong[(1.0, 0.0)] == pytest.approx(0.2, abs=1e-12)
        r0 = round(math.asinh(math.sqrt(0.1)), 6)
        assert strong[(1.0, r0)] == pytest.approx(0.3177932267776061, abs=1e-9)

    def test_zero_drive_row(self):
        cfg = make_config("gaussdrive", {"r_steps": 1, "r0_photons": "0.0"})
        table = run_experiment(cfg)
        assert table.rows[0][3] == 0.0


class TestOracleCheckRun:
    @pytest.fixture(scope="class")
    def table(self):
        cfg = make_config("oracle-check", {"circuits": 30, "cutoff": 60})
        return run_experiment(cfg)

    def test_all_within_tolerance(self, table):
        assert table.meta("within_tolerance") == "yes"

    def test_empty_circuit_exact(self, table):
        first = table.rows[0]
        assert first[0] == "g000"
        assert first[1] == 0.0
        assert first[2] == 0.0

    def test_c_equal_row_present(self, table):
        last = table.rows[-1]
        assert last[0] == "c_equal"
        assert last[1] < 1e-9

    def test_deterministic_given_seed(self):
        cfg = make_config("oracle-check", {"circuits": 8, "cutoff": 30})
        a = run_experiment(cfg).to_csv()
        b = run_experiment(cfg).to_csv()
        assert a == b

    def test_seed_changes_circuits(self):
        a = run_experiment(
            make_config("oracle-check", {"circuits": 8, "cutoff": 30, "seed": 1})
        )
        b = run_experiment(
            make_config("oracle-check", {"circuits": 8, "cutoff": 30, "seed": 2})
        )
        assert a.to_csv() != b.to_csv()


class TestDeterminism:
    @pytest.mark.parametrize(
        "experiment,params",
        [
            ("interference", {"fraction_count": 3, "cutoff": 12}),
            ("kitten", {"squeeze_min": 3, "squeeze_max": 3, "squeeze_steps": 1,
                        "k_list": "1", "cutoff": 120}),
            ("numberdiff", {"k": 1, "cutoff": 40, "joint_cutoff": 60}),
            ("gaussdrive", {"r_steps": 3}),
        ],
    )
    def test_byte_identical_reruns(self, experiment, params):
        cfg = make_config(experiment, params)
        assert run_experiment(cfg).to_csv() == run_experiment(cfg).to_csv()


class TestCli:
    def test_csv_to_stdout(self, capsys):
        code = main(["gaussdrive", "--r_steps", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("# experiment = gaussdrive")
        assert "fraction_exact" in out

    def test_json_flag(self, capsys):
        code = main(["gaussdrive", "--r_steps", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["experiment"] == "gaussdrive"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code = main(["gaussdrive", "--r_steps", "2", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8").startswith("# experiment")

    def test_unwritable_out_exit(self, tmp_path, capsys):
        code = main(["gaussdrive", "--r_steps", "2", "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "missing" in captured.err

    def test_config_error_exit(self, capsys):
        code = main(["kitten", "--no_such_key", "1"])
        assert code == 2
        assert "no_such_key" in capsys.readouterr().err

    def test_dangling_key_exit(self, capsys):
        code = main(["gaussdrive", "--r_steps"])
        assert code == 2

    def test_missing_config_file_exit(self, capsys):
        code = main(["gaussdrive", "--config", "/does/not/exist.cfg"])
        assert code == 2

    def test_override_beats_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("r_steps = 2\nr_max = 1.0\n", encoding="utf-8")
        code = main(
            ["gaussdrive", "--config", str(path), "--r_max", "3.0", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["r_max"] == "3.0"

    @pytest.mark.parametrize(
        "exc",
        [np.linalg.LinAlgError("singular"), FloatingPointError("overflow"), MemoryError("too big")],
        ids=lambda exc: type(exc).__name__,
    )
    def test_numerical_failure_exit(self, exc, monkeypatch, capsys):
        def fail(config):
            raise exc

        monkeypatch.setattr(cli, "run_experiment", fail)
        code = main(["gaussdrive", "--r_steps", "2"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert type(exc).__name__ in err and str(exc) in err

    def test_experiment_names_complete(self):
        assert set(EXPERIMENTS) == {
            "catfit", "gaussdrive", "interference", "kitten",
            "match", "numberdiff", "oracle-check",
        }
