"""Config plumbing, table rendering, runner behavior, CLI contract."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    depth_first_factors,
    fit_target,
    full_state_oracle_rows,
    numberdiff_box_mass,
    numberdiff_by_beamsplit,
    numberdiff_by_mode_action,
)

from dipnesim import __version__, circuits, cli
from dipnesim.circuits import apply_element
from dipnesim.cli import main
from dipnesim.experiments import (
    EXPERIMENTS,
    RUNNERS,
    ResultTable,
    _base_metadata,
    _enumerated_circuits,
    _fmt,
    _product_factors,
    _squeeze_sweep,
    make_config,
    read_config_file,
    run_experiment,
)
from dipnesim.catfit import fit_squeezed_cat
from dipnesim.fock import FockState, LeakageWarning, ModeLayout, vacuum_state
from dipnesim.kitten import KittenSpec, kitten_direct
from dipnesim.measure import mean_quadrature
from dipnesim.states import Squeeze

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _reject_constant(token):
    raise ValueError(f"non-RFC 8259 JSON token {token}")


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

    def test_json_writes_non_finite_cells_as_csv_text(self):
        # RFC 8259 has no NaN or Infinity token
        table = ResultTable(
            columns=("a", "b", "c"),
            rows=((float("inf"), float("nan"), 0.5), (-math.inf, 1, "x")),
            metadata=(("experiment", "demo"),),
        )
        payload = json.loads(table.to_json(), parse_constant=_reject_constant)
        assert payload["rows"] == [["inf", "nan", 0.5], ["-inf", 1, "x"]]

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            ResultTable(columns=("a", "b"), rows=((1,),), metadata=())

    def test_string_cells_must_stay_csv_safe(self):
        table = ResultTable(columns=("a",), rows=(("x,y",),), metadata=())
        with pytest.raises(ValueError):
            table.to_csv()

    def test_csv_columns_render_as_fmt_cell_by_cell(self):
        # exact float, int and str columns skip _fmt; bools, numpy scalars
        # and mixed columns still go through it, with the same text
        rows = (
            ("joint", 3, -0.0, True, np.float64(0.1), np.int64(7), 1, float("nan")),
            ("joint", -2, 1e-300, False, np.float64(2.0), np.int64(-1), 2.5, math.inf),
            ("difference", 0, 0.5, True, np.float64(-3e7), np.int64(0), "x", -math.inf),
        )
        table = ResultTable(columns=tuple("abcdefgh"), rows=rows, metadata=(("k", "v"),))
        want = ["# k = v", "a,b,c,d,e,f,g,h"] + [",".join(map(_fmt, row)) for row in rows]
        assert table.to_csv() == "\n".join(want) + "\n"
        assert ResultTable(columns=("a",), rows=(), metadata=()).to_csv() == "a\n"
        with pytest.raises(ValueError):
            ResultTable(columns=("a", "b"), rows=(("x", 1), ("y\n", 2)), metadata=()).to_csv()
        # a runner's raw figure reads in the metadata as _fmt writes it as a cell
        config = make_config("gaussdrive")
        for row in rows:
            figures = list(zip("abcdefgh", row))
            assert _base_metadata(config, figures)[-9:] == (*((k, _fmt(v)) for k, v in figures), ("version", __version__))
        with pytest.raises(ValueError):
            _base_metadata(config, [("note", "two\nlines")])

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

    def test_each_input_guard_mass_computed_once(self, monkeypatch):
        # the LeakageWarning check and max_input_guard_mass read the same
        # cached value: one computation per distinct input state, the two
        # undisplaced cores included
        calls = []
        real = FockState.guard_band_mass.func

        def spy(state):
            calls.append(state)
            return real(state)

        monkeypatch.setattr(FockState.guard_band_mass, "func", spy)
        cfg = make_config("interference", {"fraction_count": 5, "cutoff": 20, "family": "photon0"})
        table = run_experiment(cfg)
        assert len(calls) == len({id(state) for state in calls}) == 10
        assert float(table.meta("max_input_guard_mass")) == max(real(state) for state in calls)

    @pytest.mark.parametrize("budget", ["inf", "nan"])
    def test_budget_must_be_finite(self, budget):
        with pytest.raises(ValueError, match="displacement_photons must be finite"):
            run_experiment(make_config("interference", {"displacement_photons": budget}))

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

    def test_infinite_squeeze_max_rejected(self):
        # an infinite grid end is not the infinite=true point
        with pytest.raises(ValueError, match="squeeze_max < inf"):
            run_experiment(make_config("kitten", {"squeeze_max": "inf"}))

    def test_rows_do_not_depend_on_cutoff(self):
        # every column is closed form; the cutoff enters only max_leakage
        small, large = (
            run_experiment(make_config("kitten", {"squeeze_max": 30, "cutoff": cutoff}))
            for cutoff in (200, 1000)
        )
        assert small.rows == large.rows

    def test_truncated_kitten_warns_and_reports_its_tail(self):
        cfg = make_config(
            "kitten",
            {"theta_sub": 0.1, "squeeze_min": 20, "squeeze_max": 20, "squeeze_steps": 1, "cutoff": 441},
        )
        with pytest.warns(LeakageWarning):
            table = run_experiment(cfg)
        with pytest.warns(LeakageWarning):
            want = kitten_direct(KittenSpec(20.0, 0.1, 9, 441)).state.leakage
        assert want > 1e-2
        assert float(dict(table.metadata)["max_leakage"]) == want

    def test_raises_at_infinite_squeezing_on_a_small_cutoff(self):
        cfg = make_config("kitten", {"infinite": True, "k_list": "1,3", "cutoff": 60})
        with pytest.raises(ValueError, match="infinite-squeezing limit; raise it"):
            run_experiment(cfg)

    def test_warns_once_per_truncated_point(self):
        # one LeakageWarning per point whose kitten_direct warns: 13 of 25 here
        params = {"theta_sub": 0.1, "squeeze_min": 0, "squeeze_max": 20, "squeeze_steps": 5, "cutoff": 441}
        cfg = make_config("kitten", params)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(cfg)
        got = [str(w.message) for w in caught if issubclass(w.category, LeakageWarning)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for photons in _squeeze_sweep(cfg)[1:]:
                for k in cfg["k_list"]:
                    kitten_direct(KittenSpec(photons, 0.1, k, 441))
        assert got == [str(w.message) for w in caught] and len(got) == 13


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

    @staticmethod
    def _joint(table, d):
        dist = np.zeros((d, d))
        for section, n0, n1, _, p in table.rows:
            if section == "joint":
                dist[n0, n1] = p
        return dist

    def test_builds_no_beamsplitter_plan_nor_dense_exponential(self, monkeypatch):
        def never(*args):
            raise AssertionError("numberdiff reached the beamsplitter plan or an exponential")

        for name in ("_bs_plan", "_expm", "beamsplit", "_mode_action"):
            monkeypatch.setattr(circuits, name, never)
        config = make_config("numberdiff", {"k": 1, "cutoff": 40, "joint_cutoff": 64})
        table = run_experiment(config)
        # the untruncated displacement leaves 1.1e-10 outside the box, and
        # total_probability reads what stays in it
        box = float(numberdiff_box_mass(config, dps=30))
        assert 1.0 - box > 1e-10
        assert float(table.meta("total_probability")) == pytest.approx(box, rel=0, abs=1e-14)

    def test_default_matches_the_beamsplitter_path(self):
        # the padded kitten against the truncated coherent oscillator through
        # the (161, 161) sector plan, and exp(x (a+ - a)) on the 161 levels as
        # packed _mode_action batches; the oscillator's tail past 160 is ~1e-15
        config = make_config("numberdiff")
        table = run_experiment(config)
        got = self._joint(table, config["joint_cutoff"] + 1)
        np.testing.assert_allclose(got, numberdiff_by_beamsplit(config), rtol=0, atol=1e-15)
        np.testing.assert_allclose(got, numberdiff_by_mode_action(config), rtol=0, atol=1e-15)
        assert float(table.meta("max_leakage")) < 1e-15

    def test_shared_levels_hold_against_a_wide_joint_cutoff(self):
        base = {"k": 1, "cutoff": 40}
        narrow = run_experiment(make_config("numberdiff", {**base, "joint_cutoff": 64}))
        wide = run_experiment(make_config("numberdiff", {**base, "joint_cutoff": 200}))
        gap = np.abs(self._joint(narrow, 65) - self._joint(wide, 201)[:65, :65]).max()
        assert gap <= 1e-15

    def test_out_of_box_mass_warns_once(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = run_experiment(make_config("numberdiff", {"k": 3, "cutoff": 30, "joint_cutoff": 30}))
        texts = [str(w.message) for w in caught if issubclass(w.category, LeakageWarning)]
        ours = [text for text in texts if text.startswith("numberdiff")]
        outside = 1.0 - float(table.meta("total_probability"))
        assert outside > 1e-8
        assert ours == [f"numberdiff counts beyond joint_cutoff=30: {outside:.3e} probability against a cutoff "
                        "(threshold 1e-08)"]


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

    def test_diagonal_keeps_own_fit_and_guard_mass_is_reported(self):
        cfg = make_config(
            "match",
            {"source_k": "1,3", "target_k": "3", "squeeze_photons": 5,
             "cutoff": 120, "work_cutoff": 240},
        )
        table = run_experiment(cfg)
        own = fit_squeezed_cat(fit_target(kitten_direct(KittenSpec(5.0, math.pi / 5, 3, 120))))
        assert table.rows[1] == (3, 3, 0.0, own.squeeze_fraction)
        assert 0.0 <= float(table.meta("max_guard_mass")) < 1e-8

    def test_max_leakage_is_the_largest_kitten_tail(self):
        params = {"source_k": "1,5", "target_k": "9", "squeeze_photons": 20, "theta_sub": 0.2,
                  "cutoff": 150, "work_cutoff": 160}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LeakageWarning)
            table = run_experiment(make_config("match", params))
            tails = [kitten_direct(KittenSpec(20.0, 0.2, k, 150)).state.leakage for k in (1, 5, 9)]
        assert float(table.meta("max_leakage")) == max(tails) > 1e-8


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

    @pytest.mark.parametrize("key,value", [("r_max", "inf"), ("r_min", "nan")])
    def test_non_finite_sweep_end_rejected(self, key, value):
        with pytest.raises(ValueError, match="r_max < inf"):
            run_experiment(make_config("gaussdrive", {key: value}))

    @pytest.mark.parametrize(
        "key,message", [("d0_list", "d0 must be positive"), ("r0_photons", "r0_photons")], ids=["d0_list", "r0_photons"]
    )
    def test_nan_list_entry_rejected(self, key, message):
        with pytest.raises(ValueError, match=message):
            run_experiment(make_config("gaussdrive", {key: "nan"}))

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


class TestEnumeratedCircuits:
    def test_seed_7_circuits_are_pinned(self):
        # the draws come from random.Random(7).random(), whose sequence
        # Python keeps across versions; a change to the stream shows here
        want = [
            ("g000", 1, []),
            ("g001", 2, [
                ("displace", 1, -0.669539485227014 - 0.15356051909559745j),
                ("squeeze", 0, Squeeze(0.30223071995682604, 0.2355921702057036)),
            ]),
            ("g002", 3, [
                ("displace", 0, 0.5151366014439843 - 0.982575052922816j),
                ("displace", 0, 0.5702150170691539 - 0.19439226845046104j),
                ("phase", 1, 6.133991735520491),
            ]),
            ("g003", 1, [("phase", 0, 0.906381420237418)]),
            ("g004", 2, [("squeeze", 1, Squeeze(0.20421791397718123, 3.6543016029772506))]),
        ]
        assert list(_enumerated_circuits(7, 5, 3)) == want

    def test_draws_lie_in_their_ranges(self):
        counts, pairs = set(), set()
        for seed in range(200):
            for i, (circuit_id, n_modes, elements) in enumerate(_enumerated_circuits(seed, 100, 3)):
                assert (circuit_id, n_modes) == (f"g{i:03d}", 1 + i % 3)
                if i == 0:
                    assert elements == []
                    continue
                assert 1 <= len(elements) <= 6
                counts.add(len(elements))
                disp_left, squeeze_left = 2.0, 0.5
                for element in elements:
                    kind, mode = element[:2]
                    assert 0 <= mode < n_modes
                    if kind == "displace":
                        mag = abs(element[2])
                        assert 0.3 * disp_left * (1 - 1e-12) <= mag < 0.9 * disp_left * (1 + 1e-12)
                        disp_left -= mag
                    elif kind == "squeeze":
                        squeeze = element[2]
                        assert 0.3 * squeeze_left * (1 - 1e-12) <= squeeze.r < 0.9 * squeeze_left * (1 + 1e-12)
                        assert 0.0 <= squeeze.theta < 2.0 * math.pi
                        squeeze_left -= squeeze.r
                    elif kind == "phase":
                        assert 0.0 <= element[2] < 2.0 * math.pi
                    else:
                        assert kind == "beamsplit" and n_modes > 1
                        assert 0 <= element[2] < n_modes and element[2] != mode
                        assert 0.1 <= element[3] < 1.4
                        pairs.add((n_modes, mode, element[2]))
        # every count and every ordered pair of distinct modes is drawn
        assert counts == set(range(1, 7))
        assert pairs == {(n, a, b) for n in (2, 3) for a in range(n) for b in range(n) if a != b}

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            next(_enumerated_circuits(-7, 3, 3))
        assert main(["oracle-check", "--seed", "-1"]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err


class TestProductFactors:
    @pytest.mark.parametrize("seed", [7, *range(501, 511)])
    def test_rows_match_full_state_oracle(self, seed):
        table = run_experiment(make_config("oracle-check", {"seed": seed}))
        want = full_state_oracle_rows(seed, 100, 60, 3)
        assert [row[0] for row in table.rows[:-1]] == [row[0] for row in want]
        for col in (1, 2):
            dev = max(abs(got[col] - ref[col]) for got, ref in zip(table.rows, want))
            assert dev <= 1e-14

    @pytest.mark.parametrize("seed", [7, 501])
    def test_some_circuit_joins_all_modes(self, seed):
        # keeps the outer-product join and the 3-mode kernels on the checked path
        joined = 0
        circuits = [(n_modes, elements) for _, n_modes, elements in _enumerated_circuits(seed, 100, 3)]
        for factors in _product_factors(circuits, 60):
            joined += any(len(modes) == 3 for modes, _ in factors.values())
        assert joined >= 1

    @pytest.mark.parametrize("seed", [7, 501])
    def test_lockstep_matches_depth_first_bits(self, seed):
        # each circuit alone, element by element, gives the same amplitudes
        circuits = [(n_modes, elements) for _, n_modes, elements in _enumerated_circuits(seed, 60, 3)]
        for (n_modes, elements), factors in zip(circuits, _product_factors(circuits, 20)):
            want = depth_first_factors(n_modes, 20, elements)
            for mode in range(n_modes):
                assert factors[mode][0] == want[mode][0]
                assert factors[mode][1].amplitudes.tobytes() == want[mode][1].amplitudes.tobytes()

    def test_rows_do_not_depend_on_circuit_count(self):
        few = run_experiment(make_config("oracle-check", {"seed": 7, "circuits": 42})).to_csv()
        many = run_experiment(make_config("oracle-check", {"seed": 7, "circuits": 100})).to_csv()
        rows = lambda csv: [line for line in csv.splitlines() if line.startswith("g")]
        assert len(rows(few)) == 42
        assert rows(few) == rows(many)[:42]

    def test_leakage_warning_texts_per_row(self):
        # at cutoff 8 the guard band holds more than LEAK_THRESHOLD; the
        # lockstep run warns with the same texts as each circuit run alone
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            run_experiment(make_config("oracle-check", {"seed": 7, "circuits": 30, "cutoff": 8}))
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            for _, n_modes, elements in _enumerated_circuits(7, 30, 3):
                depth_first_factors(n_modes, 8, elements)
        texts = sorted(str(w.message) for w in got if w.category is LeakageWarning)
        assert len(texts) >= 5
        assert texts == sorted(str(w.message) for w in want if w.category is LeakageWarning)

    def test_joined_factor_is_one_buffer(self):
        # every element after the join runs in place on the joined factor:
        # the peak is that one 61^3 state, not an input and an output
        elements = [
            ("displace", 0, 0.5 + 0.2j),
            ("squeeze", 2, Squeeze(0.3, 0.4)),
            ("beamsplit", 0, 1, 0.6),
            ("beamsplit", 1, 2, 0.9),
            ("beamsplit", 0, 2, 0.3),
            ("squeeze", 1, Squeeze(0.2, 1.1)),
            ("displace", 0, -0.3 + 0.4j),
            ("phase", 2, 0.7),
        ]
        circuits._bs_plan(61, 61)  # build the sector plan outside the trace
        tracemalloc.start()
        try:
            (factors,) = _product_factors([(3, elements)], 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        modes, state = factors[0]
        assert len(modes) == 3
        assert peak <= 1.2 * state.amplitudes.nbytes

    def test_in_place_squeeze_warns(self):
        # a squeeze past the cutoff on a joined factor runs in place and
        # warns with the text of the circuit run alone
        elements = [("displace", 0, 0.4), ("beamsplit", 0, 1, 0.5), ("squeeze", 1, Squeeze(1.5, 0.0))]
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            (factors,) = _product_factors([(2, elements)], 10)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            alone = depth_first_factors(2, 10, elements)
        texts = [str(w.message) for w in got if w.category is LeakageWarning]
        assert len(texts) == 1 and texts[0].startswith("squeeze_op(r=1.5): ")
        assert texts == [str(w.message) for w in want if w.category is LeakageWarning]
        assert factors[0][1].amplitudes.tobytes() == alone[0][1].amplitudes.tobytes()

    def test_merge_order(self):
        # each mode is touched first, so the merged factors list their modes
        # out of order: (2, 0), then (1, 2, 0)
        elements = [
            ("displace", 0, 0.6 + 0.3j),
            ("squeeze", 1, Squeeze(0.3, 0.8)),
            ("displace", 2, -0.4 + 0.5j),
            ("beamsplit", 2, 0, 0.7),
            ("phase", 0, 1.1),
            ("beamsplit", 1, 0, 0.4),
        ]
        full = vacuum_state(ModeLayout((30, 30, 30)))
        for count, element in enumerate(elements, start=1):
            full = apply_element(full, element)
            (factors,) = _product_factors([(3, elements[:count])], 30)
            for mode in range(3):
                modes, state = factors[mode]
                local = modes.index(mode)
                assert state.mean_photons(local) == pytest.approx(full.mean_photons(mode), abs=1e-14)
                assert mean_quadrature(state, local) == pytest.approx(
                    mean_quadrature(full, mode), abs=1e-14
                )
        modes, state = factors[0]
        assert modes == (1, 2, 0)
        got = np.transpose(state.nd, np.argsort(modes))
        np.testing.assert_allclose(got, full.nd, rtol=0, atol=1e-14)


_TINY = [
    ("interference", {"fraction_count": 3, "cutoff": 12}),
    ("kitten", {"squeeze_min": 3, "squeeze_max": 3, "squeeze_steps": 1, "k_list": "1", "cutoff": 120}),
    ("numberdiff", {"k": 1, "cutoff": 40, "joint_cutoff": 60}),
    ("gaussdrive", {"r_steps": 3}),
    ("catfit", {"squeeze_min": 3, "squeeze_max": 3, "squeeze_steps": 1, "k_list": "1", "cutoff": 120}),
    ("match", {"source_k": "1", "target_k": "1,3", "squeeze_photons": 3, "cutoff": 120, "work_cutoff": 200}),
    ("oracle-check", {"circuits": 4, "cutoff": 30}),
]


class TestDeterminism:
    @pytest.mark.parametrize("experiment,params", _TINY)
    def test_byte_identical_reruns(self, experiment, params):
        cfg = make_config(experiment, params)
        assert run_experiment(cfg).to_csv() == run_experiment(cfg).to_csv()
        # every runner returns (columns, rows, figures) and builds no table itself
        assert {name for name, _ in _TINY} == set(RUNNERS)
        columns, rows, figures = RUNNERS[experiment](cfg)
        assert rows and all(len(row) == len(columns) for row in rows)
        assert all(len(figure) == 2 and isinstance(figure[0], str) for figure in figures)


class TestThreadIndependence:
    # threaded BLAS reductions split their sums by thread count; the tables
    # must not depend on it
    @staticmethod
    def _stdout_default_and_one_thread(args):
        argv = [sys.executable, "-m", "dipnesim.cli", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        # the CLI pins the pool to one thread unless told otherwise, so the
        # other side asks for two
        env["OPENBLAS_NUM_THREADS"] = "2"
        default = subprocess.run(argv, env=env, capture_output=True, check=True).stdout
        env["OPENBLAS_NUM_THREADS"] = "1"
        return default, subprocess.run(argv, env=env, capture_output=True, check=True).stdout

    def test_oracle_check_same_bytes_under_one_blas_thread(self):
        default, single = self._stdout_default_and_one_thread(["oracle-check", "--seed", "7", "--circuits", "42"])
        assert default and default == single

    def test_interference_cutoff_120_same_bytes_under_one_blas_thread(self):
        # the displaced inputs come from the banded action, with no BLAS call
        default, single = self._stdout_default_and_one_thread(
            ["interference", "--family", "photon-both", "--cutoff", "120"]
        )
        assert default and default == single

    def test_numberdiff_same_bytes_under_one_blas_thread(self):
        # the split is a gather and both products with the displacement
        # matrix are einsum loops, not BLAS; the default config is d = 161
        for args in (["--k", "1", "--cutoff", "40", "--joint_cutoff", "64"], []):
            default, single = self._stdout_default_and_one_thread(["numberdiff", *args])
            assert default and default == single

    def test_interference_same_bytes_under_one_blas_thread(self):
        # l_intf's reduced density matrices and sector gathers are BLAS products
        default, single = self._stdout_default_and_one_thread(
            ["interference", "--family", "photon-both+squeeze-i", "--cutoff", "30", "--fraction_count", "5"]
        )
        assert default and default == single


_NUMPY_ONLY_SCRIPT = """
import json, sys
import dipnesim, dipnesim.cli

def unwanted_modules():
    # scipy, and numpy.random with the secrets -> hashlib -> OpenSSL chain it loads
    names, prefixes = ("scipy", "numpy.random", "secrets", "hashlib", "_hashlib"), ("scipy.", "numpy.random.")
    return sorted(m for m in sys.modules if m in names or m.startswith(prefixes))

loaded = {"import": unwanted_modules()}
for argv in json.loads(sys.argv[1]):
    code = dipnesim.cli.main(argv + ["--out", sys.argv[2]])
    loaded[argv[0]] = unwanted_modules() if code == 0 else f"exit {code}"
print(json.dumps(loaded))
"""


class TestNumpyOnly:
    def test_import_and_runs_load_no_scipy(self, tmp_path):
        # scipy is a test oracle only; the package and its experiments run on numpy,
        # and oracle-check draws its circuits from random, not numpy.random
        runs = [
            ["kitten", "--k_list", "1,3", "--squeeze_steps", "2", "--squeeze_max", "5"],
            ["interference", "--fraction_count", "3", "--family", "photon-both+squeeze-i"],
            ["match", "--source_k", "1", "--target_k", "3"],
            ["oracle-check", "--circuits", "6", "--cutoff", "40"],
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-W", "ignore", "-c", _NUMPY_ONLY_SCRIPT]
        argv += [json.dumps(runs), str(tmp_path / "table.csv")]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        loaded = json.loads(proc.stdout)
        assert loaded == {"import": [], **{run[0]: [] for run in runs}}


_BLAS_POOL_SCRIPT = """
import ctypes, json, os, sys
import numpy as np

libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
names = [n for n in os.listdir(libs) if n.startswith("libscipy_openblas64_")] if os.path.isdir(libs) else []
if not names:
    print("null")
    sys.exit()
pool = ctypes.CDLL(os.path.join(libs, names[0])).scipy_openblas_get_num_threads64_
pool.argtypes, pool.restype = [], ctypes.c_int
seen = [pool()]
import dipnesim, dipnesim.cli
seen.append(pool())
seen.append(dipnesim.cli.main(["gaussdrive", "--r_steps", "2", "--out", sys.argv[1]]))
seen.append(pool())
print(json.dumps(seen))
"""


class TestBlasPool:
    @staticmethod
    def _pool_sizes(tmp_path, **threads):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(name, None)
        env.update(threads)
        argv = [sys.executable, "-c", _BLAS_POOL_SCRIPT, str(tmp_path / "table.csv")]
        seen = json.loads(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout)
        if seen is None:
            pytest.skip("numpy bundles no scipy-openblas library here")
        return seen

    def test_import_leaves_the_pool_and_a_call_pins_it(self, tmp_path):
        start, imported, code, after = self._pool_sizes(tmp_path)
        assert (imported, code, after) == (start, 0, 1)

    @pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_a_thread_variable_leaves_the_pool_alone(self, tmp_path, variable):
        start, imported, code, after = self._pool_sizes(tmp_path, **{variable: "2"})
        assert (imported, code, after) == (start, 0, start)


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

    def test_json_flag_is_rfc_8259(self, capsys):
        # infinite squeezing gives inf and nan cells
        assert main(["kitten", "--infinite", "true", "--k_list", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert payload["rows"][0][:3] == ["inf", 1, "nan"]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code = main(["gaussdrive", "--r_steps", "2", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8").startswith("# experiment")

    def test_out_to_a_device(self, capsys):
        # /dev/null seeks but refuses truncate
        assert main(["gaussdrive", "--r_steps", "2", "--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    def test_out_to_a_pipe(self, capsys):
        read, write = os.pipe()
        try:
            code = main(["gaussdrive", "--r_steps", "2", "--out", f"/dev/fd/{write}"])
        finally:
            os.close(write)
        with os.fdopen(read, "rb") as fh:
            piped = fh.read().decode()
        assert code == 0 and capsys.readouterr() == ("", "")
        assert piped == run_experiment(make_config("gaussdrive", {"r_steps": 2})).to_csv()

    def test_unwritable_out_exit(self, tmp_path, capsys):
        code = main(["gaussdrive", "--r_steps", "2", "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "missing" in captured.err

    def test_unwritable_out_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        def never(config):
            raise AssertionError("run_experiment called before --out was checked")

        monkeypatch.setattr(cli, "run_experiment", never)
        code = main(["match", "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        assert "missing" in capsys.readouterr().err

    def test_failed_run_keeps_existing_out(self, tmp_path, monkeypatch, capsys):
        def fail(config):
            raise ValueError("bad run")

        target = tmp_path / "table.csv"
        target.write_text("previous table\n", encoding="utf-8")
        monkeypatch.setattr(cli, "run_experiment", fail)
        code = main(["gaussdrive", "--r_steps", "2", "--out", str(target)])
        assert code == 2
        assert target.read_text(encoding="utf-8") == "previous table\n"

    def test_out_file_replaces_existing(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        target.write_text("x" * 100000, encoding="utf-8")
        assert main(["gaussdrive", "--r_steps", "2", "--out", str(target)]) == 0
        main(["gaussdrive", "--r_steps", "2"])
        assert target.read_text(encoding="utf-8") == capsys.readouterr().out

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

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help(self, flag, capsys):
        assert main(["kitten", flag]) == 0 and main([flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: dipne-sim EXPERIMENT")
        assert all(name in out for name in EXPERIMENTS)

    @pytest.mark.parametrize("argv", [[], ["--json"], ["kitte"], ["bogus", "--r_steps", "2"]])
    def test_unknown_or_missing_experiment_exit(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert all(name in captured.err for name in EXPERIMENTS)

    def test_option_without_value_exit(self, capsys):
        assert main(["gaussdrive", "--out"]) == 2
        assert capsys.readouterr().err.startswith("error: --out needs a value")

    @pytest.mark.parametrize("option", ["--out", "--config"])
    @pytest.mark.parametrize("spelling", ["equals", "separate"])
    def test_empty_option_value_exit(self, option, spelling, capsys):
        argv = [f"{option}="] if spelling == "equals" else [option, ""]
        assert main(["gaussdrive", "--r_steps", "2"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {option} needs a value")

    def test_equals_forms(self, tmp_path, capsys):
        config, target = tmp_path / "run.cfg", tmp_path / "table.csv"
        config.write_text("r_steps = 2\n", encoding="utf-8")
        assert main(["gaussdrive", f"--config={config}", f"--out={target}"]) == 0
        assert capsys.readouterr().out == ""
        assert "# r_steps = 2" in target.read_text(encoding="utf-8")

    def test_import_loads_neither_argparse_nor_locale(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        script = "import sys, dipnesim.cli; print(sorted({'argparse', 'locale'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_experiment_names_complete(self):
        assert set(EXPERIMENTS) == {
            "catfit", "gaussdrive", "interference", "kitten",
            "match", "numberdiff", "oracle-check",
        }


def test_package_exports_resolve():
    # the names the output checks of bench/workloads.py import from the
    # package: a missing one would fail every run of their workload
    from dipnesim import (  # noqa: F401
        FockState,
        KittenSpec,
        ModeLayout,
        Squeeze,
        fit_squeezed_cat,
        interference_loss_theory,
        kitten_direct,
        make_config,
        squeeze_op,
    )
    import dipnesim

    assert [name for name in dipnesim.__all__ if not hasattr(dipnesim, name)] == []
    assert len(set(dipnesim.__all__)) == len(dipnesim.__all__)
