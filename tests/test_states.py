"""Analytic constructors against matrix-exponential oracles and closed forms."""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    CatSpec,
    cat_state,
    coherent,
    infinite_squeeze_log_even,
    squeezed_coherent,
    squeezed_coherent_batch,
)

from dipnesim.fock import LeakageWarning, ModeLayout
from dipnesim.states import (
    Squeeze,
    _squeezed_coherent_levels,
    log_factorial,
    squeezed_vacuum,
)


def ladder(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def expm_displaced_squeezed(alpha, r, theta, dim):
    # oracle: exponentiate the generators directly.  Truncating a generator
    # corrupts the top levels of its exponential, so build on 2 dim - 1
    # levels and compare the first dim.
    big = 2 * dim - 1
    a = ladder(big)
    ad = a.conj().T
    xi = r * cmath.exp(1j * theta)
    S = scipy.linalg.expm((np.conj(xi) * (a @ a) - xi * (ad @ ad)) / 2)
    D = scipy.linalg.expm(alpha * ad - np.conj(alpha) * a)
    vac = np.zeros(big, dtype=complex)
    vac[0] = 1.0
    return (D @ (S @ vac))[:dim]


class TestLogFactorial:
    def test_matches_gammaln_to_4_ulp(self):
        from scipy.special import gammaln

        n = np.arange(64001)
        want = gammaln(n + 1.0)
        got = log_factorial(n)
        ulp = np.spacing(np.maximum(want, 1.0))
        assert np.all(np.abs(got - want) <= 4 * ulp)
        assert got[0] == got[1] == 0.0

    def test_scalar_and_array_reads_agree(self):
        # the table grows by doubling; a read past its end builds a larger one
        assert log_factorial(5000) == log_factorial(np.array([3, 5000]))[1]
        assert math.isclose(log_factorial(7), math.log(5040), rel_tol=1e-15)


class TestCoherent:
    def test_alpha_zero_is_vacuum(self):
        psi = coherent(0, 10)
        expect = np.zeros(11)
        expect[0] = 1
        np.testing.assert_array_equal(psi.amplitudes, expect)
        assert psi.leakage == 0.0

    def test_poisson_head(self):
        psi = coherent(1.0, 40)
        probs = np.abs(psi.amplitudes) ** 2
        assert probs[0] == pytest.approx(math.exp(-1), rel=1e-12)
        assert probs[1] == pytest.approx(math.exp(-1), rel=1e-12)

    def test_mean_photons(self):
        psi = coherent(1.0, 40)
        assert psi.mean_photons(0) == pytest.approx(1.0, abs=1e-10)

    def test_complex_alpha_phase(self):
        psi = coherent(1j, 30)
        # c_n carries phase i^n
        assert psi.amplitudes[1] == pytest.approx(1j * math.exp(-0.5), rel=1e-12)
        assert psi.amplitudes[2] == pytest.approx(-math.exp(-0.5) / math.sqrt(2), rel=1e-12)

    def test_leakage_warning_when_cutoff_tight(self):
        with pytest.warns(LeakageWarning):
            psi = coherent(3.0, 12)
        assert psi.leakage > 1e-8

    def test_accepts_displacement_and_layout(self):
        lay = ModeLayout((20,))
        a = coherent(0.7, lay)
        b = coherent(0.7, 20)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
        with pytest.raises(ValueError):
            coherent(0.5, ModeLayout((4, 4)))


class TestSqueezedVacuum:
    def test_r_zero_is_vacuum(self):
        psi = squeezed_vacuum(Squeeze(0.0), 8)
        assert psi.amplitudes[0] == 1.0
        assert np.all(psi.amplitudes[1:] == 0.0)

    def test_odd_levels_bitwise_zero(self):
        psi = squeezed_vacuum(Squeeze(0.9, 1.3), 41)
        assert np.all(psi.amplitudes[1::2] == 0.0)

    def test_matches_expm_oracle(self):
        dim = 41
        got = squeezed_vacuum(Squeeze(0.4, 0.7), dim - 1).amplitudes
        want = expm_displaced_squeezed(0.0, 0.4, 0.7, dim)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_ten_photons_of_squeezing(self):
        r = math.asinh(math.sqrt(10.0))
        assert math.sinh(r) ** 2 == pytest.approx(10.0, rel=1e-14)
        psi = squeezed_vacuum(Squeeze(r), 800)
        assert psi.leakage < 1e-12
        assert psi.mean_photons(0) == pytest.approx(10.0, abs=1e-8)

    def test_squeeze_validation(self):
        with pytest.raises(ValueError):
            Squeeze(-0.1)
        with pytest.raises(ValueError):
            Squeeze(math.inf)
        assert Squeeze(0.3, 2 * math.pi).theta == 0.0


class TestSqueezedCoherent:
    def test_reduces_to_coherent(self):
        a = squeezed_coherent(1.2 + 0.5j, Squeeze(0.0), 40)
        b = coherent(1.2 + 0.5j, 40)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_reduces_to_squeezed_vacuum(self):
        a = squeezed_coherent(0.0, Squeeze(0.35, 0.9), 40)
        b = squeezed_vacuum(Squeeze(0.35, 0.9), 40)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-14)

    def test_matches_expm_oracle_spec_point(self):
        dim = 41
        got = squeezed_coherent(1.0, Squeeze(0.3), dim - 1).amplitudes
        want = expm_displaced_squeezed(1.0, 0.3, 0.0, dim)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_mean_photons_displacement_plus_squeeze(self):
        # <n> of D(a)S(xi)|0> is |a|^2 + sinh^2 r for any phases
        psi = squeezed_coherent(1.5 * cmath.exp(0.4j), Squeeze(0.6, 2.1), 120)
        want = 1.5**2 + math.sinh(0.6) ** 2
        assert psi.mean_photons(0) == pytest.approx(want, abs=1e-9)

    def test_underflowing_recurrence_raises(self):
        with pytest.raises(ValueError, match=r"alpha=40.*r=0.0001 .*cutoff 2500"):
            squeezed_coherent(40.0, Squeeze(1e-4, math.pi), 2500)

    @given(
        re=st.floats(-2, 2),
        im=st.floats(-1, 1),
        r=st.floats(0, 0.5),
        theta=st.floats(0, 2 * math.pi),
    )
    @settings(max_examples=25, deadline=None)
    @example(re=2.0, im=-1.0, r=0.5, theta=2.0)
    def test_matches_expm_oracle_sweep(self, re, im, r, theta):
        dim = 61
        alpha = complex(re, im)
        got = squeezed_coherent(alpha, Squeeze(r, theta), dim - 1).amplitudes
        want = expm_displaced_squeezed(alpha, r, theta, dim)
        np.testing.assert_allclose(got, want, atol=1e-8)

    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_real_path_matches_complex_path(self, theta):
        # the package's real recurrence runs at squeeze angle pi, so angle 0
        # is angle pi at -r; the oracle runs the complex one at either angle
        alphas = np.linspace(0.0, 4.0, 17)[:, None]
        rs = np.linspace(-0.8, 1.5, 24)
        real = np.stack(list(_squeezed_coherent_levels(alphas, rs if theta else -rs, 200)), axis=-1)
        cplx = squeezed_coherent_batch(alphas, rs, theta, 200)
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        # each path is within 2.2e-15 of a 40-digit run of the same recurrence
        assert np.max(np.abs(real - cplx)) <= 4e-15


class TestInfiniteSqueezeLimit:
    def test_head_and_ratio(self):
        mags = np.exp(infinite_squeeze_log_even(np.arange(7)))
        assert mags[0] == pytest.approx(1.0)
        ratios = mags[1:] / mags[:-1]
        m = np.arange(6)
        np.testing.assert_allclose(ratios, np.sqrt((2 * m + 1) / (2 * m + 2)), rtol=1e-12)
        assert ratios[0] == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_phases_alternate_at_theta_zero(self):
        # C_2m carries (-e^{i theta})^m; the limit shares the source's phases
        even = squeezed_vacuum(Squeeze(6.0, 0.0), 40).amplitudes[0:12:2]
        np.testing.assert_allclose(np.angle(even) % (2 * math.pi), [0, math.pi] * 3, atol=1e-12)

    def test_theta_pi_makes_all_positive(self):
        # kitten_direct fixes the source phase at pi and keeps only magnitudes
        even = squeezed_vacuum(Squeeze(6.0, math.pi), 40).amplitudes[0:12:2]
        np.testing.assert_allclose(np.angle(even), 0.0, atol=1e-12)

    def test_matches_large_r_squeezed_vacuum(self):
        # ratios of actual squeezed-vacuum amplitudes approach the limit sequence
        psi = squeezed_vacuum(Squeeze(6.0), 40)
        mags = np.abs(psi.amplitudes[0:9:2])
        seq = np.exp(infinite_squeeze_log_even(np.arange(5)))
        np.testing.assert_allclose(mags / mags[0], seq / seq[0], rtol=1e-4)


class TestCatState:
    def test_plain_even_cat_head_amplitude(self):
        spec = CatSpec(2.0, 0.0, Squeeze(0.0))
        psi = cat_state(spec, 60)
        want = 2 * math.exp(-2) / math.sqrt(2 * (1 + math.exp(-8)))
        assert psi.amplitudes[0] == pytest.approx(want, rel=1e-12)
        assert np.all(psi.amplitudes[1::2] == 0.0)
        assert psi.is_normalized(1e-9)

    def test_odd_cat_even_levels_bitwise_zero(self):
        spec = CatSpec(1.3 + 0.2j, math.pi, Squeeze(0.4, 1.0))
        psi = cat_state(spec, 80)
        assert np.all(psi.amplitudes[0::2] == 0.0)

    def test_odd_cat_parity_eigenvector(self):
        spec = CatSpec(1.1, math.pi, Squeeze(0.3, 0.5))
        psi = cat_state(spec, 80)
        parity = np.where(np.arange(81) % 2 == 0, 1.0, -1.0)
        np.testing.assert_allclose(parity * psi.amplitudes, -psi.amplitudes, atol=1e-12)

    def test_even_cat_small_alpha_tends_to_squeezed_vacuum(self):
        spec = CatSpec(1e-8, 0.0, Squeeze(0.5, 0.0))
        psi = cat_state(spec, 40)
        ref = squeezed_vacuum(Squeeze(0.5, 0.0), 40)
        np.testing.assert_allclose(psi.amplitudes, ref.amplitudes, atol=1e-7)

    def test_degenerate_cat_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            cat_state(CatSpec(0.0, math.pi, Squeeze(0.2)), 20)

    def test_underflowing_recurrence_raises(self):
        # the recurrence starts at exp(-|alpha|^2/2) = exp(-800), which is 0.0
        with pytest.raises(ValueError, match=r"alpha=40.*r=0 .*cutoff 2600"):
            cat_state(CatSpec(40.0, 0.0, Squeeze(0.0, math.pi)), 2600)

    def test_matches_expm_superposition(self):
        dim = 61
        alpha, r, theta, phi = 1.2, 0.35, 0.8, math.pi
        spec = CatSpec(alpha, phi, Squeeze(r, theta))
        got = cat_state(spec, dim - 1).amplitudes
        plus = expm_displaced_squeezed(alpha, r, theta, dim)
        minus = expm_displaced_squeezed(-alpha, r, theta, dim)
        raw = plus + cmath.exp(1j * phi) * minus
        want = raw / np.linalg.norm(raw)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_general_phi(self):
        spec = CatSpec(1.0, math.pi / 3, Squeeze(0.0))
        psi = cat_state(spec, 50)
        assert psi.is_normalized(1e-10)
        # no parity filtering at generic phi: both parities populated
        assert abs(psi.amplitudes[0]) > 0 and abs(psi.amplitudes[1]) > 0


class TestSpecs:
    def test_displacement_finite(self):
        with pytest.raises(ValueError):
            coherent(complex(math.nan, 0), 10)
