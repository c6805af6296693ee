"""Tests for the heralded-kitten module.

The closed-form builder is checked against the two-mode beamsplitter
simulation (tests/oracles.py: an independent code path through
circuits.beamsplit and number post-selection), against
the k = 0 analytic reduction, and against completeness of the herald
distribution.
"""

import math
import warnings

import numpy as np
import pytest

from oracles import displacement_estimate, kitten_by_subtraction

from dipnesim.fock import LeakageWarning
from dipnesim.kitten import (
    KittenSpec,
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
        ref = squeezed_vacuum(Squeeze(r_eff, math.pi), 60).normalize()
        assert np.max(np.abs(out.state.amplitudes - ref.amplitudes)) < 1e-12

    def test_zero_squeezing_k0_is_vacuum(self):
        out = kitten_direct(KittenSpec(0.0, THETA, 0, 20))
        assert out.probability == 1.0
        assert out.mean_photons == 0.0
        assert out.state.amplitudes[0] == 1.0

    def test_zero_squeezing_with_heralds_raises(self):
        with pytest.raises(ValueError, match="probability 0"):
            kitten_direct(KittenSpec(0.0, THETA, 1, 20))

    def test_infinite_k0_raises(self):
        with pytest.raises(ValueError, match="non-normalizable"):
            kitten_direct(KittenSpec(math.inf, THETA, 0, 100))

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

    def test_unconverged_sum_raises(self):
        # 64000 levels hold only part of this herald distribution
        with pytest.raises(ValueError, match="did not converge"):
            kitten_probability(KittenSpec(1e6, 0.01, 0, 10))

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
