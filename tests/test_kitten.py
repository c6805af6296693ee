"""Tests for the heralded-kitten module.

The closed form of KittenSpec.core() is checked against the two-mode
beamsplitter simulation (tests/oracles.py: an independent code path
through circuits.beamsplit and number post-selection), against the
log-space series of the shifted source (kitten_series and
kitten_probability_series in tests/oracles.py), against the k = 0
analytic reduction, and against completeness of the herald distribution.
"""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from oracles import (
    displacement_estimate,
    kitten_by_subtraction,
    kitten_horner_row,
    kitten_probability_series,
    kitten_series,
    normalize,
)

from dipnesim.experiments import make_config, run_experiment
from dipnesim.fock import LeakageWarning
from dipnesim.kitten import (
    KittenSpec,
    _build,
    antisqueezed_kitten,
    herald_tails,
    kitten_direct,
    kitten_probability,
    peak_estimate,
)
from dipnesim.states import Squeeze, squeezed_vacuum

THETA = math.pi / 5


class TestSpecValidation:
    def test_negative_photons(self):
        with pytest.raises(ValueError, match="squeeze_photons"):
            KittenSpec(-1.0, THETA, 1, 50)

    def test_nan_photons(self):
        with pytest.raises(ValueError, match="squeeze_photons"):
            KittenSpec(math.nan, THETA, 1, 50)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, -0.3, 2.0])
    def test_theta_range(self, theta):
        with pytest.raises(ValueError, match="theta_sub"):
            KittenSpec(1.0, theta, 1, 50)

    def test_negative_k(self):
        with pytest.raises(ValueError, match="k must"):
            KittenSpec(1.0, THETA, -1, 50)

    def test_cutoff(self):
        with pytest.raises(ValueError, match="cutoff"):
            KittenSpec(1.0, THETA, 1, 0)

    def test_infinite_flag(self):
        assert KittenSpec(math.inf, THETA, 1, 50).infinite
        assert not KittenSpec(10.0, THETA, 1, 50).infinite


class TestCachedCore:
    def test_every_call_returns_the_same_tuple(self):
        spec = KittenSpec(6.0, THETA, 5, 100)
        first = spec.core()
        assert spec.core() is first and spec.core() is first

    def test_amplitudes_refuse_writes(self):
        _, coeffs = KittenSpec(math.inf, THETA, 3, 100).core()
        with pytest.raises(ValueError, match="read-only"):
            coeffs[1] = 0.0

    def test_overflowing_spec_constructs_and_raises_in_core(self):
        spec = KittenSpec(math.inf, THETA, 5000, 6000)
        assert spec.infinite
        for _ in range(2):  # a core that raises is not kept
            with pytest.raises(ValueError, match="k=5000 kitten's amplitudes overflow"):
                spec.core()


class TestAgainstTwoModeSimulation:
    @pytest.mark.parametrize("k,photons,cutoff", [
        (1, 10.0, 100),
        (2, 10.0, 100),
        (3, 4.0, 80),
        (5, 10.0, 100),
        (0, 6.0, 80),
    ])
    def test_amplitudes_match(self, k, photons, cutoff):
        spec = KittenSpec(photons, THETA, k, cutoff)
        direct = kitten_direct(spec)
        pipeline = kitten_by_subtraction(spec)
        assert np.max(np.abs(
            direct.state.amplitudes - pipeline.state.amplitudes
        )) < 1e-8

    def test_probability_matches(self):
        spec = KittenSpec(10.0, THETA, 1, 100)
        assert kitten_probability(spec) == pytest.approx(
            kitten_by_subtraction(spec).probability, abs=1e-10
        )

    def test_mean_photons_match(self):
        spec = KittenSpec(8.0, THETA, 2, 100)
        direct = kitten_direct(spec)
        pipeline = kitten_by_subtraction(spec)
        assert direct.mean_photons == pytest.approx(
            pipeline.mean_photons, abs=1e-8
        )

    def test_other_subtraction_angle(self):
        spec = KittenSpec(6.0, 0.4, 2, 110)
        direct = kitten_direct(spec)
        pipeline = kitten_by_subtraction(spec)
        assert np.max(np.abs(
            direct.state.amplitudes - pipeline.state.amplitudes
        )) < 1e-8


class TestDirectState:
    def test_normalized(self):
        state = kitten_direct(KittenSpec(10.0, THETA, 3, 120)).state
        assert state.is_normalized()

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_parity_support(self, k):
        amps = kitten_direct(KittenSpec(6.0, THETA, k, 80)).state.amplitudes
        # forbidden parity levels are bitwise zero, not merely small
        assert not np.any(amps[1 - (k % 2) :: 2])

    def test_amplitudes_real_nonnegative(self):
        amps = kitten_direct(KittenSpec(5.0, THETA, 2, 60)).state.amplitudes
        assert np.all(amps.imag == 0.0)
        assert np.all(amps.real >= 0.0)

    def test_k0_is_weaker_squeezed_vacuum(self):
        # heralding zero counts just rescales tanh r by cos^2(theta)
        photons = 3.0
        out = kitten_direct(KittenSpec(photons, THETA, 0, 60))
        r = math.asinh(math.sqrt(photons))
        r_eff = math.atanh(math.cos(THETA) ** 2 * math.tanh(r))
        ref = normalize(squeezed_vacuum(Squeeze(r_eff, math.pi), 60))
        assert np.max(np.abs(out.state.amplitudes - ref.amplitudes)) < 1e-12

    def test_zero_squeezing_k0_is_vacuum(self):
        out = kitten_direct(KittenSpec(0.0, THETA, 0, 20))
        assert out.probability == 1.0
        assert out.mean_photons == 0.0
        assert out.state.amplitudes[0] == 1.0

    def test_zero_squeezing_with_heralds_raises(self):
        with pytest.raises(ValueError, match="probability 0"):
            kitten_direct(KittenSpec(0.0, THETA, 1, 20))

    def test_infinite_k0_is_squeezed_vacuum(self):
        # no count off infinite squeezing leaves S(r')|0> with tanh r' = cos^2(theta)
        out = kitten_direct(KittenSpec(math.inf, THETA, 0, 100))
        r_sub = math.atanh(math.cos(THETA) ** 2)
        ref = normalize(squeezed_vacuum(Squeeze(r_sub, math.pi), 100))
        assert np.max(np.abs(out.state.amplitudes - ref.amplitudes)) < 1e-12
        assert out.mean_photons == pytest.approx(math.sinh(r_sub) ** 2, rel=1e-12)
        assert out.mean_photons == pytest.approx(0.7494, abs=1e-4)
        assert math.isnan(out.probability)

    def test_infinite_probability_is_nan(self):
        out = kitten_direct(KittenSpec(math.inf, THETA, 1, 200))
        assert math.isnan(out.probability)

    def test_infinite_tail_rejected(self):
        # peak near k / (2 * 0.005) = 200, far beyond cutoff 20
        with pytest.raises(ValueError, match="tail mass"):
            kitten_direct(KittenSpec(math.inf, 0.1, 2, 20))

    def test_finite_tail_warns_and_records(self):
        with pytest.warns(LeakageWarning):
            out = kitten_direct(KittenSpec(30.0, THETA, 2, 12))
        assert out.state.leakage > 1e-3
        # conditional state is renormalized within the cutoff
        assert out.state.is_normalized(tol=1e-12)


class TestHeraldDistribution:
    def test_zero_squeezing(self):
        assert kitten_probability(KittenSpec(0.0, THETA, 0, 10)) == 1.0
        assert kitten_probability(KittenSpec(0.0, THETA, 3, 10)) == 0.0

    @pytest.mark.parametrize("photons,kmax", [(2.0, 60), (5.0, 200)])
    def test_completeness(self, photons, kmax):
        total = sum(
            kitten_probability(KittenSpec(photons, THETA, k, 10))
            for k in range(kmax)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_infinite_raises(self):
        with pytest.raises(ValueError, match="undefined"):
            kitten_probability(KittenSpec(math.inf, THETA, 1, 100))

    def test_no_count_closed_form(self):
        # P(0) = 1 / (cosh r sqrt(1 - tanh^2 r cos^4 theta))
        r = math.asinh(math.sqrt(10.0))
        expected = 1.0 / (
            math.cosh(r) * math.sqrt(1.0 - math.tanh(r) ** 2 * math.cos(THETA) ** 4)
        )
        p0 = kitten_probability(KittenSpec(10.0, THETA, 0, 10))
        assert p0 == pytest.approx(expected, rel=1e-13)

    def test_no_count_closed_form_at_a_million_photons(self):
        # the source spreads over far more than the 64000 levels the
        # series oracle sums; the closed form needs none of them
        photons, theta = 1e6, 0.01
        # the formula above, with cosh^2 r - sinh^2 r cos^4 = 1 + S sin^2 (1 + cos^2)
        # so that no digits cancel
        expected = 1.0 / math.sqrt(1.0 + photons * math.sin(theta) ** 2 * (1.0 + math.cos(theta) ** 2))
        p0 = kitten_probability(KittenSpec(photons, theta, 0, 10))
        assert p0 == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("photons,theta,want", [
        (20.0, 0.393, 1.9401462350884964517e-17),
        (19.17, math.pi / 8, 4.8766731685300286866e-18),
    ])
    def test_large_k_probability_matches_50_digit_value(self, photons, theta, want):
        # (cosh r' / cosh r) c.c evaluated in 50-digit mpmath; r' taken
        # through tanh r, which rounds near 1, is 1e-13 off at k = 220
        got = kitten_probability(KittenSpec(photons, theta, 220, 10))
        assert got == pytest.approx(want, rel=5e-14, abs=0.0)

    def test_odd_cumulative_peak_near_thirty_percent(self):
        # scanning the squeezing strength, the chance of an odd herald
        # (k = 1..9) tops out just under 0.3 at this subtraction angle
        best = max(
            sum(
                kitten_probability(KittenSpec(photons, THETA, k, 10))
                for k in (1, 3, 5, 7, 9)
            )
            for photons in np.linspace(6.0, 14.0, 33)
        )
        assert best == pytest.approx(0.2935, abs=2e-3)


class TestEstimates:
    def test_peak_zero_counts(self):
        assert peak_estimate(0, THETA) == 0.0

    def test_peak_frozen_value(self):
        assert peak_estimate(1, THETA) == pytest.approx(2.3592, abs=1e-4)

    def test_displacement_frozen_value(self):
        assert displacement_estimate(1, THETA) == pytest.approx(1.5360, abs=1e-4)

    def test_peak_linear_in_k(self):
        assert peak_estimate(9, THETA) == pytest.approx(
            9 * peak_estimate(1, THETA), rel=1e-12
        )

    def test_zero_angle_sentinel(self):
        assert peak_estimate(4, 0.0) == math.inf
        assert displacement_estimate(4, 0.0) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            peak_estimate(-1, THETA)
        with pytest.raises(ValueError):
            peak_estimate(2, math.pi / 2)

    def test_peak_tracks_infinite_limit_mode(self):
        # the estimate carries an O(1/k) bias (the exact envelope mode is
        # near (k - 1/2) / tan^2), so check a large-k small-angle point
        k, angle = 20, 0.15
        amps = kitten_direct(KittenSpec(math.inf, angle, k, 3000)).state.amplitudes
        level = int(np.argmax(np.abs(amps)))
        estimate = peak_estimate(k, angle)
        assert abs(level - estimate) / estimate < 0.05

    def test_estimate_stays_inside_central_hump(self):
        # at the working angle the estimate is cruder, but still lands
        # where the envelope carries at least half its maximum weight
        k = 6
        w = np.abs(
            kitten_direct(KittenSpec(math.inf, THETA, k, 400)).state.amplitudes
        ) ** 2
        nearest = round(peak_estimate(k, THETA) / 2) * 2  # support is even here
        assert w[nearest] >= 0.5 * w.max()


class TestMeanPhotonTrends:
    def test_monotone_and_linear_in_k(self):
        ks = np.arange(1, 10)
        means = np.array([
            kitten_direct(KittenSpec(math.inf, THETA, int(k), 1500)).mean_photons
            for k in ks
        ])
        assert np.all(np.diff(means) > 0)
        slope, intercept = np.polyfit(ks, means, 1)
        fit = slope * ks + intercept
        r2 = 1.0 - np.sum((means - fit) ** 2) / np.sum((means - means.mean()) ** 2)
        assert r2 >= 0.99

    def test_mean_grows_as_angle_shrinks(self):
        angles = [0.9, 0.7, 0.5, 0.3]
        means = [
            kitten_direct(KittenSpec(8.0, a, 2, 300)).mean_photons
            for a in angles
        ]
        assert np.all(np.diff(means) > 0)


class TestAgainstSeriesOracle:
    """KittenSpec.core() against the log-space series of the shifted source."""

    @pytest.mark.parametrize("photons", [1.0, 20.0, 60.0])
    @pytest.mark.parametrize("k", [200, 250])
    def test_large_k_state_matches(self, k, photons):
        spec = KittenSpec(photons, THETA, k, 1000)
        want = kitten_series(spec)
        got = kitten_direct(spec)
        assert np.max(np.abs(got.state.amplitudes - want.state.amplitudes)) <= 1e-12
        assert got.mean_photons == pytest.approx(want.mean_photons, rel=1e-12)
        built = antisqueezed_kitten(spec, 0.0, 1000).amplitudes
        assert np.max(np.abs(built - want.state.amplitudes)) <= 1e-12

    @pytest.mark.parametrize("photons", [0.1, 1.0, 19.17, 200.0])
    @pytest.mark.parametrize("theta", [math.pi / 8, THETA, 0.4, 1.2])
    def test_probability_matches_horizon_sum(self, theta, photons):
        for k in (0, 1, 2, 3, 9, 50, 120, 208, 220, 250):
            spec = KittenSpec(photons, theta, k, 10)
            want = kitten_probability_series(spec)
            if want > 1e-280:
                assert kitten_probability(spec) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_sweep_at_k_200_gives_finite_rows(self):
        cfg = make_config("kitten", {
            "k_list": "200", "squeeze_min": 19, "squeeze_max": 20, "squeeze_steps": 2, "cutoff": 1000,
        })
        rows = run_experiment(cfg).rows
        assert len(rows) == 2
        assert np.all(np.isfinite(np.array(rows, dtype=float)))


class TestLoudFailure:
    @pytest.mark.parametrize("spec", [
        KittenSpec(0.0, THETA, 1, 20),  # zero squeezing heralds nothing
        KittenSpec(1e-6, THETA, 250, 400),  # every level underflows
    ])
    def test_zero_mass_raises(self, spec):
        message = rf"k={spec.k} kitten has norm\^2 0 on cutoff {spec.cutoff}"
        with pytest.raises(ValueError, match=message):
            kitten_direct(spec)
        with pytest.raises(ValueError, match=message.replace(str(spec.cutoff), "30")):
            antisqueezed_kitten(spec, 0.3, 30)

    def test_overflow_raises(self):
        spec = KittenSpec(math.inf, THETA, 5000, 6000)
        for build in (spec.core, lambda: kitten_direct(spec), lambda: antisqueezed_kitten(spec, 0.0, 100)):
            with pytest.raises(ValueError, match="k=5000 kitten's amplitudes overflow"):
                build()


def _batch_rows(cutoff: int) -> list:
    """(spec, rho) rows of mixed k (0-9), antisqueezing of both signs,
    finite and infinite squeezing, and R = r' + rho = 0 exactly."""
    rows = []
    for k in range(10):
        spec = KittenSpec(math.inf if k % 3 == 0 else 1.5 + 2.0 * k, THETA, k, cutoff)
        rows += [(spec, rho) for rho in (-0.4, 0.0, 0.35, -spec.core()[0])]
    return rows


class TestRowBatch:
    CUTOFF = 150

    def test_rows_equal_one_row_calls_bit_for_bit(self):
        rows = _batch_rows(self.CUTOFF)
        for batch in (rows, rows[::-1]):
            amps, kept, tails = _build(batch, self.CUTOFF)
            for i, row in enumerate(batch):
                one_amps, one_kept, one_tails = _build([row], self.CUTOFF)
                assert amps[i].tobytes() == one_amps[0].tobytes()
                assert (kept[i], tails[i]) == (one_kept[0], one_tails[0])

    def test_rows_follow_the_one_kitten_oracle(self):
        rows = _batch_rows(self.CUTOFF)
        amps, kept, tails = _build(rows, self.CUTOFF)
        for i, (spec, rho) in enumerate(rows):
            want, want_kept, want_tail = kitten_horner_row(spec, rho, self.CUTOFF)
            assert amps[i].tobytes() == want.tobytes()
            assert (kept[i], tails[i]) == (want_kept, want_tail)

    def test_public_builds_are_one_row_calls(self):
        spec = KittenSpec(6.0, THETA, 5, self.CUTOFF)
        for rho, state in ((0.0, kitten_direct(spec).state), (-0.3, antisqueezed_kitten(spec, -0.3, self.CUTOFF))):
            amps, kept, tails = _build([(spec, rho)], self.CUTOFF)
            assert state.amplitudes.tobytes() == (amps[0] / math.sqrt(kept[0])).astype(complex).tobytes()
            assert state.leakage == tails[0]

    def test_herald_tails_are_kitten_direct_leakages(self):
        specs = [KittenSpec(photons, 0.1, k, 441) for photons in (5.0, 20.0) for k in (1, 4, 9)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LeakageWarning)
            tails = herald_tails(specs)
            want = [kitten_direct(spec).state.leakage for spec in specs]
        assert tails == want and max(want) > 1e-2
        assert herald_tails([]) == []
        mixed = [specs[0], KittenSpec(5.0, 0.1, 1, 400)]
        with pytest.raises(ValueError, match="one cutoff"):
            herald_tails(mixed)


_LAYERING_SCRIPT = """
import importlib, json, sys, types
# a bare package object, so that only the module's own imports run
package = types.ModuleType("dipnesim")
package.__path__ = [sys.argv[1]]
sys.modules["dipnesim"] = package
importlib.import_module("dipnesim." + sys.argv[2])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("dipnesim."))))
"""

# the modules each one may load: the squeezed-cat kernel (states) and the
# kitten closed form sit at the bottom of the import graph, below the fit
# and free of cycles, and none of them loads analytics or the circuits
_LAYERS = {"states": {"fock"}, "kitten": {"fock", "states"}, "catfit": {"fock", "states", "kitten"}}


@pytest.mark.parametrize("module", sorted(_LAYERS))
def test_module_imports_only_layers_below(module):
    import dipnesim

    argv = [sys.executable, "-c", _LAYERING_SCRIPT, dipnesim.__path__[0], module]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    assert set(json.loads(proc.stdout)) == {f"dipnesim.{m}" for m in _LAYERS[module] | {module}}
