"""Closed forms against brute force and against the simulator."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from dipnesim import analytics, catfit
from dipnesim import (
    KittenSpec,
    LeakageWarning,
    ModeLayout,
    Squeeze,
    apply_element,
    basis_state,
    beamsplit,
    coherent,
    fit_squeezed_cat,
    fit_squeezed_cats,
    kitten_direct,
    make_config,
    mean_quadrature,
    run_experiment,
)
from dipnesim.analytics import (
    MATCH_TOLERANCE,
    GaussianMoments,
    MatchResult,
    antisqueezed_kitten,
    c_equal,
    c_equal_bruteforce,
    gaussian_propagate,
    interference_loss_theory,
    mean_photons_from_moments,
    squeeze_fraction_strong,
    squeeze_to_match,
    vacuum_moments,
)
from dipnesim.catfit import kitten_target
from oracles import (
    antisqueezed,
    erasure_residual,
    fit_target,
    kitten_series,
    poisson_pn,
    squeeze_to_match_bisect,
)


class TestInterferenceLossTheory:
    def test_frozen_value(self):
        v = interference_loss_theory(
            math.sqrt(0.5), math.sqrt(0.5), math.pi / 5, math.pi / 10
        )
        assert v == pytest.approx(0.2795084971874738, abs=1e-12)

    def test_pi_shift_flips_sign_exactly(self):
        args = (0.7 + 0.2j, 0.4 - 0.1j, 0.5, 0.3)
        assert interference_loss_theory(*args) == -interference_loss_theory(
            *args, pi_shift=True
        )

    def test_vanishes_without_amplitude(self):
        assert interference_loss_theory(0.0, 1.0, 0.4, 0.2) == 0.0
        assert interference_loss_theory(1.0, 0.0, 0.4, 0.2) == 0.0

    def test_orthogonal_phases_vanish(self):
        # Re[a1 conj(a2)] = 0 for a quarter-turn pair
        assert interference_loss_theory(1.0, 1.0j, 0.4, 0.2) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            interference_loss_theory(1.0, 1.0, math.pi / 2, 0.1)
        with pytest.raises(ValueError):
            interference_loss_theory(1.0, 1.0, 0.1, -0.2)


class TestCEqual:
    def test_trivial_values(self):
        assert c_equal(0, 0) == 1.0 + 0.0j
        assert c_equal(1, 1) == 0.0 + 0.0j

    def test_frozen_two_zero(self):
        assert c_equal(2, 0) == pytest.approx(1j / math.sqrt(2), abs=1e-15)
        assert c_equal_bruteforce(2, 0) == pytest.approx(1j / math.sqrt(2), abs=1e-15)

    def test_matches_bruteforce_everywhere(self):
        for n in range(9):
            for m in range(9):
                assert c_equal(n, m) == pytest.approx(
                    c_equal_bruteforce(n, m), abs=1e-9
                ), (n, m)

    def test_odd_odd_exactly_zero(self):
        for n in range(1, 9, 2):
            for m in range(1, 9, 2):
                assert c_equal(n, m) == 0.0
                assert c_equal_bruteforce(n, m) == 0.0

    def test_odd_total_zero(self):
        assert c_equal(3, 2) == 0.0
        assert c_equal_bruteforce(3, 2) == 0.0

    def test_symmetric_in_arguments(self):
        for n, m in [(4, 2), (6, 0), (8, 4), (5, 3)]:
            assert c_equal(n, m) == pytest.approx(c_equal(m, n), abs=1e-15)

    @pytest.mark.parametrize("n,m", [(2, 0), (4, 2), (2, 2), (6, 4), (3, 1)])
    def test_matches_beamsplit_simulation(self, n, m):
        st = basis_state(ModeLayout((n + m, n + m)), (n, m))
        out = beamsplit(st, 0, 1, math.pi / 4)
        p = (n + m) // 2
        assert complex(out.nd[p, p]) == pytest.approx(c_equal(n, m), abs=1e-12)

    def test_beamsplit_distribution_complete(self):
        st = basis_state(ModeLayout((6, 6)), (4, 2))
        out = beamsplit(st, 0, 1, math.pi / 4)
        assert np.sum(np.abs(out.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_magnitude_bounded(self):
        for n in range(0, 9, 2):
            assert abs(c_equal(n, n)) <= 1.0 + 1e-15

    def test_bruteforce_guard(self):
        with pytest.raises(ValueError, match="24"):
            c_equal_bruteforce(14, 12)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            c_equal(-1, 2)
        with pytest.raises(ValueError):
            c_equal_bruteforce(2, -1)


class TestErasureResidual:
    def test_frozen_pair(self):
        exact, approx = erasure_residual(1.0, 10.0)
        assert exact == pytest.approx(0.049875621120889946, abs=1e-15)
        assert approx == pytest.approx(0.05, abs=1e-15)

    def test_approximation_overestimates(self):
        for aw, a_s in [(0.5, 1.0), (1.0, 3.0), (2.0, 5.0)]:
            exact, approx = erasure_residual(aw, a_s)
            assert exact < approx

    def test_ratio_approaches_one(self):
        exact, approx = erasure_residual(1.0, 1e3)
        assert approx / exact == pytest.approx(1.0, abs=1e-6)

    def test_zero_weak_field(self):
        assert erasure_residual(0.0, 2.0) == (0.0, 0.0)

    def test_strong_must_be_positive(self):
        with pytest.raises(ValueError):
            erasure_residual(1.0, 0.0)


class TestPoisson:
    def test_vacuum(self):
        assert poisson_pn(0.0, 0) == 1.0
        assert poisson_pn(0.0, 3) == 0.0

    def test_completeness(self):
        total = sum(poisson_pn(2.0, n) for n in range(80))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mean(self):
        alpha = 1.3 + 0.4j
        mean = sum(n * poisson_pn(alpha, n) for n in range(80))
        assert mean == pytest.approx(abs(alpha) ** 2, abs=1e-10)

    def test_matches_coherent_amplitudes(self):
        alpha = 1.3 + 0.4j
        st = coherent(alpha, 40)
        probs = np.abs(st.amplitudes) ** 2
        for n in range(20):
            assert probs[n] == pytest.approx(poisson_pn(alpha, n), abs=1e-12)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            poisson_pn(1.0, -1)


class TestSqueezeFractionStrong:
    def test_frozen_unsqueezed_seed(self):
        exact, strong = squeeze_fraction_strong(1.0, 0.0, 5.0)
        assert strong == pytest.approx(0.2, abs=1e-15)
        assert exact == pytest.approx(0.2, rel=1e-3)

    def test_frozen_tenth_photon_seed(self):
        r0 = math.asinh(math.sqrt(0.1))
        _, strong = squeeze_fraction_strong(1.0, r0, 4.0)
        assert strong == pytest.approx(0.3177932267776061, abs=1e-12)

    def test_zero_drive_zero_fraction(self):
        exact, _ = squeeze_fraction_strong(1.0, 0.0, 0.0)
        assert exact == 0.0

    def test_within_one_percent_by_r_three(self):
        for r0 in (0.0, 0.31, 1.0):
            for r in (3.0, 4.0):
                exact, strong = squeeze_fraction_strong(1.0, r0, r)
                assert abs(exact - strong) / strong < 0.01

    def test_tight_at_large_r(self):
        exact, strong = squeeze_fraction_strong(1.0, 0.5, 8.0)
        assert abs(exact - strong) / strong < 1e-4

    def test_monotone_toward_limit(self):
        d0, r0 = 0.8, 0.4
        rs = np.linspace(r0 + 1.0, r0 + 6.0, 21)
        gaps = []
        for r in rs:
            exact, strong = squeeze_fraction_strong(d0, r0, float(r))
            gaps.append(abs(exact - strong))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            squeeze_fraction_strong(0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            squeeze_fraction_strong(1.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            squeeze_fraction_strong(1.0, 0.1, -1.0)

    @pytest.mark.parametrize("args", [(math.nan, 0.1, 1.0), (1.0, math.nan, 1.0), (1.0, 0.1, math.nan)])
    def test_nan_rejected(self, args):
        with pytest.raises(ValueError):
            squeeze_fraction_strong(*args)


class TestGaussianMoments:
    def test_vacuum(self):
        g = vacuum_moments(2)
        assert g.n_modes == 2
        assert not g.mean.any()
        assert np.array_equal(g.cov, np.eye(4))

    def test_shape_and_symmetry_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianMoments(np.zeros(2), np.array([[1.0, 0.1], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            GaussianMoments(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            GaussianMoments(np.zeros(2), np.eye(4))

    def test_symmetry_tolerance_scales_with_cov(self):
        # a 1e-9 asymmetry is rounding on entries of 1e5, not on entries of 1
        big = np.array([[1e5, 2.0], [2.0 + 1e-9, 1e-5]])
        GaussianMoments(np.zeros(2), big)
        with pytest.raises(ValueError, match="symmetric"):
            GaussianMoments(np.zeros(2), np.array([[1.0, 2.0], [2.0 + 1e-9, 1.0]]))

    def test_strongly_squeezed_state_propagates(self):
        # big @ cov @ big.T rounds relative to max |cov| ~ 1.4e5, past an
        # absolute 1e-12 symmetry bound
        g = gaussian_propagate(vacuum_moments(1), ("squeeze", 0, Squeeze(6.0, 0.7)))
        assert np.abs(g.cov).max() > 1e5
        g = gaussian_propagate(g, ("phase", 0, 0.3))
        assert np.abs(g.cov - g.cov.T).max() <= 1e-12 * np.abs(g.cov).max()

    def test_strongly_squeezed_two_mode_circuit(self):
        g = vacuum_moments(2)
        for element in (
            ("squeeze", 0, Squeeze(3.0, 1.1)),
            ("beamsplit", 0, 1, 1.1),
            ("squeeze", 1, Squeeze(3.0, 2.2)),
            ("phase", 0, 0.9),
            ("beamsplit", 0, 1, 0.4),
        ):
            g = gaussian_propagate(g, element)
        assert mean_photons_from_moments(g, 0) + mean_photons_from_moments(g, 1) > 0.0

    def test_arrays_frozen(self):
        g = vacuum_moments(1)
        with pytest.raises(ValueError):
            g.mean[0] = 1.0

    def test_displace_shifts_mean_only(self):
        g = gaussian_propagate(vacuum_moments(1), ("displace", 0, 0.8 + 0.3j))
        assert g.mean[0] == pytest.approx(1.6)
        assert g.mean[1] == pytest.approx(0.6)
        assert np.array_equal(g.cov, np.eye(2))

    def test_phase_rotates_mean(self):
        g = gaussian_propagate(vacuum_moments(1), ("displace", 0, 0.8))
        g = gaussian_propagate(g, ("phase", 0, math.pi / 2))
        assert g.mean[0] == pytest.approx(0.0, abs=1e-15)
        assert g.mean[1] == pytest.approx(1.6)

    def test_squeeze_variances(self):
        g = gaussian_propagate(vacuum_moments(1), ("squeeze", 0, Squeeze(0.7, 0.0)))
        assert g.cov[0, 0] == pytest.approx(math.exp(-1.4), abs=1e-12)
        assert g.cov[1, 1] == pytest.approx(math.exp(1.4), abs=1e-12)

    def test_beamsplit_crosses_quadratures(self):
        g = gaussian_propagate(vacuum_moments(2), ("displace", 0, 0.8))
        g = gaussian_propagate(g, ("beamsplit", 0, 1, math.pi / 4))
        # mode 1 picks up the other arm in its P quadrature
        assert g.mean[0] == pytest.approx(1.6 / math.sqrt(2))
        assert g.mean[2] == pytest.approx(0.0, abs=1e-15)
        assert g.mean[3] == pytest.approx(1.6 / math.sqrt(2))

    def test_unknown_element_rejected(self):
        element = ("rotate", 0, 0.1)
        with pytest.raises(ValueError, match="unknown"):
            gaussian_propagate(vacuum_moments(1), element)
        with pytest.raises(ValueError, match="unknown"):
            apply_element(basis_state(ModeLayout((5,)), (0,)), element)

    @pytest.mark.parametrize("element", [
        ("displace", 1, 0.6 - 0.3j),
        ("phase", 0, 0.9),
        ("squeeze", 0, Squeeze(0.3, 0.8)),
        ("beamsplit", 0, 1, 0.6),
    ], ids=lambda el: el[0])
    def test_each_element_matches_fock(self, element):
        # displaced inputs, so phase and beamsplit act on nonzero means
        g = vacuum_moments(2)
        st = basis_state(ModeLayout((40, 40)), (0, 0))
        for el in [("displace", 0, 0.7), ("displace", 1, 0.4j), element]:
            g = gaussian_propagate(g, el)
            st = apply_element(st, el)
        for mode in (0, 1):
            assert mean_photons_from_moments(g, mode) == pytest.approx(
                st.mean_photons(mode), abs=1e-10
            )
            qx, qp = mean_quadrature(st, mode)
            assert g.mean[2 * mode] == pytest.approx(qx, abs=1e-10)
            assert g.mean[2 * mode + 1] == pytest.approx(qp, abs=1e-10)

    def test_mode_range_checked(self):
        with pytest.raises(ValueError):
            gaussian_propagate(vacuum_moments(1), ("displace", 1, 0.1))
        with pytest.raises(ValueError):
            gaussian_propagate(vacuum_moments(2), ("beamsplit", 0, 0, 0.1))

    def test_squeeze_takes_squeeze_type(self):
        with pytest.raises(TypeError):
            gaussian_propagate(vacuum_moments(1), ("squeeze", 0, 0.4))

    def test_composite_circuit_matches_fock(self):
        elements = [
            ("displace", 0, 0.8),
            ("squeeze", 1, Squeeze(0.4, 1.1)),
            ("beamsplit", 0, 1, 0.6),
            ("phase", 0, 0.7),
            ("displace", 1, 0.3j),
        ]
        g = vacuum_moments(2)
        st = basis_state(ModeLayout((40, 40)), (0, 0))
        for el in elements:
            g = gaussian_propagate(g, el)
            st = apply_element(st, el)
        for mode in (0, 1):
            assert mean_photons_from_moments(g, mode) == pytest.approx(
                st.mean_photons(mode), abs=1e-12
            )
            qx, qp = mean_quadrature(st, mode)
            assert g.mean[2 * mode] == pytest.approx(qx, abs=1e-12)
            assert g.mean[2 * mode + 1] == pytest.approx(qp, abs=1e-12)

    def test_three_mode_seeded_circuit_matches_fock(self):
        rng = np.random.default_rng(11)
        g = vacuum_moments(3)
        st = basis_state(ModeLayout((30, 30, 30)), (0, 0, 0))
        elements = []
        for _ in range(6):
            kind = rng.choice(["displace", "squeeze", "phase", "beamsplit"])
            if kind == "displace":
                el = ("displace", int(rng.integers(3)),
                      complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)))
            elif kind == "squeeze":
                el = ("squeeze", int(rng.integers(3)),
                      Squeeze(float(rng.uniform(0.05, 0.4)),
                              float(rng.uniform(0.0, 2 * math.pi))))
            elif kind == "phase":
                el = ("phase", int(rng.integers(3)),
                      float(rng.uniform(0.0, 2 * math.pi)))
            else:
                a, b = rng.choice(3, size=2, replace=False)
                el = ("beamsplit", int(a), int(b), float(rng.uniform(0.1, 1.2)))
            elements.append(el)
        for el in elements:
            g = gaussian_propagate(g, el)
            st = apply_element(st, el)
        for mode in range(3):
            assert mean_photons_from_moments(g, mode) == pytest.approx(
                st.mean_photons(mode), abs=1e-8
            )
            qx, qp = mean_quadrature(st, mode)
            assert g.mean[2 * mode] == pytest.approx(qx, abs=1e-9)
            assert g.mean[2 * mode + 1] == pytest.approx(qp, abs=1e-9)

    def test_propagation_preserves_physicality(self):
        g = vacuum_moments(2)
        for el in [
            ("squeeze", 0, Squeeze(0.9, 0.4)),
            ("beamsplit", 0, 1, 0.7),
            ("phase", 1, 1.9),
        ]:
            g = gaussian_propagate(g, el)
        omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        eigs = np.linalg.eigvalsh(g.cov + 1j * omega)
        assert eigs.min() > -1e-10


class TestMeanPhotonsFromMoments:
    def test_vacuum(self):
        assert mean_photons_from_moments(vacuum_moments(1), 0) == 0.0

    def test_coherent(self):
        g = gaussian_propagate(vacuum_moments(1), ("displace", 0, 1.2 - 0.5j))
        assert mean_photons_from_moments(g, 0) == pytest.approx(
            abs(1.2 - 0.5j) ** 2, abs=1e-12
        )

    def test_squeezed_vacuum(self):
        g = gaussian_propagate(vacuum_moments(1), ("squeeze", 0, Squeeze(0.7, 0.3)))
        assert mean_photons_from_moments(g, 0) == pytest.approx(
            math.sinh(0.7) ** 2, abs=1e-12
        )

    def test_unphysical_rejected(self):
        bad = GaussianMoments(np.zeros(2), 0.5 * np.eye(2))
        with pytest.raises(ValueError, match="uncertainty"):
            mean_photons_from_moments(bad, 0)

    def test_uncertainty_bound_checked_once_per_moments(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
        g = vacuum_moments(3)
        for element in (("squeeze", 0, Squeeze(0.4, 1.0)), ("beamsplit", 0, 2, 0.6), ("displace", 1, 0.5j)):
            g = gaussian_propagate(g, element)
        assert [mean_photons_from_moments(g, mode) for mode in range(3)] == pytest.approx(
            [math.sinh(0.4) ** 2 * math.cos(0.6) ** 2, 0.25, math.sinh(0.4) ** 2 * math.sin(0.6) ** 2], abs=1e-12
        )
        assert calls == [(6, 6)]
        assert g.uncertainty_gap == pytest.approx(0.0, abs=1e-12)

    def test_mode_range(self):
        with pytest.raises(ValueError):
            mean_photons_from_moments(vacuum_moments(1), 1)


@pytest.fixture(scope="module")
def spec():
    return KittenSpec(5.0, math.pi / 5, 1, 80)


@pytest.fixture(scope="module")
def kitten(spec):
    return kitten_direct(spec)


def _match_one(spec, source_alpha, target, work_cutoff=1000):
    return squeeze_to_match([(spec, source_alpha, target)], work_cutoff=work_cutoff)[0]


class TestSqueezeToMatch:

    def test_diagonal_needs_no_squeezing(self, spec, kitten):
        fit = fit_squeezed_cat(fit_target(kitten))
        res = _match_one(spec, fit.alpha, fit.alpha, work_cutoff=200)
        assert isinstance(res, MatchResult)
        assert abs(res.r_required) < 1e-6
        assert res.excess_fraction == pytest.approx(fit.squeeze_fraction, abs=1e-6)

    def test_reaches_higher_target(self, spec, kitten):
        fit = fit_squeezed_cat(fit_target(kitten))
        target = fit.alpha * 1.3
        res = _match_one(spec, fit.alpha, target, work_cutoff=200)
        assert res.r_required > 0.0
        achieved = fit_squeezed_cat(
            antisqueezed(kitten.state, res.r_required, 200)
        ).alpha
        assert achieved == pytest.approx(target, abs=1e-6)
        assert 0.0 < res.excess_fraction < 1.0

    def test_lower_target_squeezes(self, spec, kitten):
        fit = fit_squeezed_cat(fit_target(kitten))
        res = _match_one(spec, fit.alpha, fit.alpha * 0.8, work_cutoff=200)
        assert res.r_required < 0.0

    def test_target_validation(self, spec):
        with pytest.raises(ValueError):
            _match_one(spec, 1.0, 0.0)

    def test_displacement_free_source_rejected(self):
        flat = KittenSpec(3.0, math.pi / 5, 0, 60)
        with pytest.raises(ValueError, match="displacement"):
            _match_one(flat, fit_squeezed_cat(fit_target(kitten_direct(flat))).alpha, 1.0, work_cutoff=120)

    @pytest.mark.parametrize("scale", [0.8, 1.3])
    def test_agrees_with_squeeze_op_bisection(self, spec, kitten, scale):
        fit = fit_squeezed_cat(fit_target(kitten))
        res = _match_one(spec, fit.alpha, fit.alpha * scale, work_cutoff=200)
        ref = squeeze_to_match_bisect(kitten.state, fit.alpha, fit.alpha * scale, 200)
        assert res.r_required == pytest.approx(ref.r_required, abs=1e-6)
        assert res.excess_fraction == pytest.approx(ref.excess_fraction, abs=1e-6)

    def test_few_fits_on_the_bench_pair(self, monkeypatch):
        # the match-grid pair: k = 1 onto k = 3 at infinite squeezing
        specs = [KittenSpec(math.inf, math.pi / 5, k, 300) for k in (1, 3)]
        source, target = (f.alpha for f in fit_squeezed_cats([fit_target(kitten_direct(s)) for s in specs]))
        grid_rows = []
        real = catfit._row_fidelities

        def spy(targets, ss):
            if ss.shape[1] == catfit.GRID_POINTS:  # one grid round per fit
                grid_rows.extend(len(t.coeffs) for t in targets)
            return real(targets, ss)

        monkeypatch.setattr(catfit, "_row_fidelities", spy)
        res = _match_one(specs[0], source, target, work_cutoff=600)
        monkeypatch.undo()
        assert 0 < len(grid_rows) <= 8
        # each trial is scored on the k + 1 = 2 amplitudes of the k = 1 source
        assert set(grid_rows) == {2}
        refit = fit_squeezed_cat(antisqueezed_kitten(specs[0], res.r_required, 600)).alpha
        assert abs(refit - target) < MATCH_TOLERANCE

    def test_grid_fidelities_do_not_depend_on_work_cutoff(self, monkeypatch):
        # the k = 9 source at rho = 1.0 holds ~119 photons; truncated at 600
        # levels its candidates lost up to 9e-2 of their fidelity at s = 1
        source = KittenSpec(math.inf, math.pi / 5, 9, 300)
        alpha = fit_squeezed_cat(kitten_target(source)).alpha
        grids = {}
        real = catfit._row_fidelities

        def spy(targets, ss):
            values = real(targets, ss)
            if ss.shape[1] == catfit.GRID_POINTS:
                grids.setdefault(work_cutoff, values)
            return values

        monkeypatch.setattr(catfit, "_row_fidelities", spy)
        results = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LeakageWarning)
            for work_cutoff in (600, 3000):
                results[work_cutoff] = _match_one(source, alpha, alpha * math.e, work_cutoff)
        np.testing.assert_array_equal(grids[600], grids[3000])
        assert results[600].r_required == results[3000].r_required
        assert results[600].excess_fraction == results[3000].excess_fraction
        # only the matched state's guard mass reads the work cutoff
        assert results[600].guard_mass > 1e-8 > results[3000].guard_mass

    def test_builds_each_matched_state_once_at_its_final_r(self, monkeypatch):
        calls = []
        real = analytics.antisqueezed_kitten

        def spy(spec, rho, work_cutoff):
            calls.append((spec.k, rho, work_cutoff))
            return real(spec, rho, work_cutoff)

        monkeypatch.setattr(analytics, "antisqueezed_kitten", spy)
        table = run_experiment(make_config("match"))
        off = [(row[0], row[2], 600) for row in table.rows if row[0] != row[1]]
        assert len(off) == 20
        assert sorted(calls) == sorted(off)

    def test_r_required_stable_under_tighter_fraction_search(self, monkeypatch):
        # S_TOLERANCE / 2 adds no refinement round (the last bracket is
        # 4.8e-7 either way); / 20 adds one
        default = run_experiment(make_config("match")).rows
        monkeypatch.setattr(catfit, "S_TOLERANCE", catfit.S_TOLERANCE / 20)
        tight = run_experiment(make_config("match")).rows
        assert tight != default
        for got, want in zip(tight, default):
            assert got[:2] == want[:2]
            assert abs(got[2] - want[2]) <= 1e-6
            assert abs(got[3] - want[3]) <= 1e-6

    def test_lockstep_pairs_match_single_searches(self, spec, kitten):
        fit = fit_squeezed_cat(fit_target(kitten))
        pairs = [(spec, fit.alpha, fit.alpha * s) for s in (0.8, 1.1, 1.3)]
        together = squeeze_to_match(pairs, work_cutoff=200)
        assert together == [squeeze_to_match([p], work_cutoff=200)[0] for p in pairs]

    @pytest.mark.parametrize(
        "miss",
        [lambda rho: 1e-3, lambda rho: 5e-7 if rho > 0.1 else -5e-7],
        ids=["constant-miss", "step-across"],
    )
    def test_unreachable_target_raises(self, spec, monkeypatch, miss):
        # a fit that stays off the target (no bracket ever forms) or steps
        # across it (the bracket shrinks to nothing) never converges
        rounds = []

        def fits(states):
            rounds.append(len(states))
            return [SimpleNamespace(alpha=2.0 + miss(st.rho), squeeze_fraction=0.5) for st in states]

        monkeypatch.setattr(analytics, "kitten_target", lambda spec, rho: SimpleNamespace(rho=rho))
        monkeypatch.setattr(analytics, "fit_squeezed_cats", fits)
        with pytest.raises(ValueError, match=f"after {analytics.MATCH_MAX_ROUNDS} rounds"):
            squeeze_to_match([(spec, 1.8, 2.0)], work_cutoff=60)
        assert len(rounds) == analytics.MATCH_MAX_ROUNDS


def _up_to_phase(got: np.ndarray, ref: np.ndarray) -> float:
    overlap = np.vdot(got, ref)
    return float(np.max(np.abs(got * (overlap / abs(overlap)) - ref)))


class TestAntisqueezedKitten:
    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.3, 0.5])
    @pytest.mark.parametrize("photons", [10.0, math.inf])
    @pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
    def test_matches_squeeze_op_oracle(self, k, photons, rho):
        # rho = -0.9 takes R = r' + rho below zero (r' is 0.73 and 0.78)
        spec = KittenSpec(photons, math.pi / 5, k, 300)
        got = antisqueezed_kitten(spec, rho, 600)
        ref = antisqueezed(kitten_series(spec).state, rho, 600)
        assert got.layout == ref.layout
        assert _up_to_phase(got.amplitudes, ref.amplitudes) <= 1e-13

    def test_unsqueezed_axis_is_exact(self):
        # R = 0 exactly: the state is p_k(a+)|0>
        spec = KittenSpec(math.inf, math.pi / 5, 3, 300)
        rho = -math.atanh(math.cos(spec.theta_sub) ** 2)
        got = antisqueezed_kitten(spec, rho, 600)
        ref = antisqueezed(kitten_series(spec).state, rho, 600)
        assert _up_to_phase(got.amplitudes, ref.amplitudes) <= 1e-13

    @pytest.mark.parametrize("k, rho, cutoff", [(1, 0.5, 20), (3, 0.5, 30), (5, 0.8, 40), (9, 0.3, 60)])
    def test_guard_mass_is_the_sliced_tail(self, k, rho, cutoff):
        spec = KittenSpec(10.0, math.pi / 5, k, 300)
        with pytest.warns(LeakageWarning, match="antisqueezed_kitten"):
            cut = antisqueezed_kitten(spec, rho, cutoff)
        wide = antisqueezed_kitten(spec, rho, 3000).amplitudes
        assert cut.leakage == pytest.approx(float(np.sum(np.abs(wide[cutoff + 1 :]) ** 2)), rel=1e-10)
        assert np.allclose(cut.amplitudes * math.sqrt(1.0 - cut.leakage), wide[: cutoff + 1], atol=1e-15)

    def test_negligible_tail_is_silent_and_clamped(self):
        spec = KittenSpec(math.inf, math.pi / 5, 9, 300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", LeakageWarning)
            masses = [antisqueezed_kitten(spec, rho, 600).leakage for rho in (-0.3, 0.0, 0.5)]
        assert all(0.0 <= m < 1e-14 for m in masses)
