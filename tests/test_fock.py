"""Basis indexing, ladder operators, inner products, marginals, tensor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import apply_annihilation, drop, guard_band_masked, inner, normalize

from dipnesim.circuits import displace
from dipnesim.fock import (
    FockState,
    ModeLayout,
    basis_state,
    marginal_number_distribution,
    tensor,
    vacuum_state,
)


def coherent_vec(alpha, cutoff):
    # independent oracle: |alpha>_n = e^{-|a|^2/2} a^n / sqrt(n!)
    n = np.arange(cutoff + 1)
    logmag = -abs(alpha) ** 2 / 2 + n * np.log(abs(alpha) + 1e-300)
    phase = np.angle(alpha) * n
    from scipy.special import gammaln

    return np.exp(logmag - 0.5 * gammaln(n + 1) + 1j * phase)


class TestModeLayout:
    def test_single_mode(self):
        lay = ModeLayout((4,))
        assert lay.n_modes == 1
        assert lay.dims == (5,)
        assert lay.dim == 5
        assert lay.index((3,)) == 3

    def test_two_mode_last_fastest(self):
        lay = ModeLayout((2, 3))
        assert lay.dim == 12
        # index (n0, n1) = n0 * 4 + n1
        assert lay.index((1, 2)) == 6
        assert lay.index((0, 0)) == 0
        assert lay.index((2, 3)) == 11

    def test_rejects_bad_cutoffs(self):
        with pytest.raises(ValueError):
            ModeLayout(())
        with pytest.raises(ValueError):
            ModeLayout((0,))
        with pytest.raises(ValueError):
            ModeLayout((3, -1))

    def test_rejects_huge_dim(self):
        with pytest.raises(ValueError, match="MAX_JOINT_DIM"):
            ModeLayout((9999, 9999, 9999))

    def test_rejects_layout_too_large_for_memory(self):
        # 581^3 amplitudes are 3.1 GB per vector, several times that in
        # temporaries; building a layout allocates nothing
        with pytest.raises(ValueError, match=r"cutoffs \(580, 580, 580\)"):
            ModeLayout((580,) * 3)

    def test_index_bounds(self):
        lay = ModeLayout((2, 2))
        with pytest.raises(ValueError):
            lay.index((3, 0))
        with pytest.raises(ValueError):
            lay.index((0,))

    def test_drop(self):
        lay = ModeLayout((2, 5, 7))
        assert drop(lay, 1).cutoffs == (2, 7)
        assert drop(lay, 0).cutoffs == (5, 7)
        with pytest.raises(ValueError):
            drop(ModeLayout((3,)), 0)

    @given(
        cutoffs=st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_index_occupation_roundtrip(self, cutoffs, data):
        lay = ModeLayout(cutoffs)
        occ = tuple(data.draw(st.integers(0, c)) for c in cutoffs)
        assert tuple(int(n) for n in np.unravel_index(lay.index(occ), lay.dims)) == occ


class TestLadder:
    def test_annihilation_matrix_elements(self):
        lay = ModeLayout((5,))
        for n in range(1, 6):
            out = apply_annihilation(basis_state(lay, (n,)), 0)
            expect = np.zeros(6, dtype=complex)
            expect[n - 1] = math.sqrt(n)
            np.testing.assert_allclose(out.amplitudes, expect, atol=1e-15)
        out = apply_annihilation(vacuum_state(lay), 0)
        assert out.norm() == 0.0

    def test_acts_on_named_mode_only(self):
        lay = ModeLayout((3, 3))
        psi = basis_state(lay, (1, 2))
        out = apply_annihilation(psi, 1)
        assert abs(out.nd[1, 1]) == pytest.approx(math.sqrt(2))
        assert np.count_nonzero(out.amplitudes) == 1


class TestInnerFidelity:
    def test_inner_conjugate_linear_first(self):
        lay = ModeLayout((2,))
        a = FockState(lay, np.array([1j, 0, 0]))
        b = FockState(lay, np.array([1.0, 0, 0]))
        assert inner(a, b) == pytest.approx(-1j)
        assert inner(b, a) == pytest.approx(1j)

    def test_layout_mismatch(self):
        with pytest.raises(ValueError):
            inner(vacuum_state(ModeLayout((2,))), vacuum_state(ModeLayout((3,))))

    def test_coherent_overlap(self):
        # |<alpha|-alpha>|^2 = e^{-4|alpha|^2}; alpha = 1 -> e^{-4}
        lay = ModeLayout((40,))
        plus = normalize(FockState(lay, coherent_vec(1.0, 40)))
        minus = normalize(FockState(lay, coherent_vec(-1.0, 40)))
        assert abs(inner(plus, minus)) ** 2 == pytest.approx(math.exp(-4), rel=1e-10)


class TestMarginalsTensor:
    def test_marginal_of_product(self):
        lay = ModeLayout((30,))
        alpha = normalize(FockState(lay, coherent_vec(1.0, 30)))
        two = tensor(alpha, basis_state(ModeLayout((4,)), (2,)))
        dist0 = marginal_number_distribution(two, 0)
        # coherent alpha=1: P(0) = P(1) = e^{-1}
        assert dist0[0] == pytest.approx(math.exp(-1), rel=1e-10)
        assert dist0[1] == pytest.approx(math.exp(-1), rel=1e-10)
        dist1 = marginal_number_distribution(two, 1)
        np.testing.assert_allclose(dist1, [0, 0, 1, 0, 0], atol=1e-12)

    def test_marginal_entangled(self):
        lay = ModeLayout((1, 1))
        bell = FockState(lay, np.array([1, 0, 0, 1]) / math.sqrt(2))
        for mode in (0, 1):
            np.testing.assert_allclose(
                marginal_number_distribution(bell, mode), [0.5, 0.5], atol=1e-12
            )

    def test_marginal_requires_normalized(self):
        lay = ModeLayout((2,))
        bad = FockState(lay, np.array([0.5, 0, 0]))
        with pytest.raises(ValueError):
            marginal_number_distribution(bad, 0)

    def test_tensor_shapes_and_values(self):
        a = basis_state(ModeLayout((2,)), (1,))
        b = basis_state(ModeLayout((3, 2)), (2, 0))
        ab = tensor(a, b)
        assert ab.layout.cutoffs == (2, 3, 2)
        assert abs(ab.nd[1, 2, 0]) == pytest.approx(1.0)
        assert ab.norm() == pytest.approx(1.0)

    def test_guard_band_mass(self):
        lay = ModeLayout((5,))
        psi = basis_state(lay, (4,))
        assert psi.guard_band_mass == pytest.approx(1.0)
        assert basis_state(lay, (3,)).guard_band_mass == pytest.approx(0.0)

    def test_guard_band_mass_keeps_a_tiny_band_relative(self):
        # summed over the band itself: a total minus an interior would
        # cancel D(1)|1> at cutoff 30 to exactly 0.0, where the band holds ~3.4e-29
        psi = displace(basis_state(ModeLayout((30,)), (1,)), 0, 1.0)
        want = guard_band_masked(psi)
        assert 1e-29 < want < 1e-28
        assert psi.guard_band_mass == pytest.approx(want, rel=1e-12, abs=0)
        rng = np.random.default_rng(8)
        lay = ModeLayout((4, 6, 5))
        rand = FockState(lay, rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim))
        assert rand.guard_band_mass == pytest.approx(guard_band_masked(rand), rel=1e-12, abs=0)

    def test_mean_photons(self):
        lay = ModeLayout((40,))
        alpha = normalize(FockState(lay, coherent_vec(1.3, 40)))
        assert alpha.mean_photons(0) == pytest.approx(1.3**2, rel=1e-9)


class TestStateBasics:
    def test_amplitudes_read_only(self):
        psi = vacuum_state(ModeLayout((2,)))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            FockState(ModeLayout((2,)), np.zeros(4))

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            normalize(FockState(ModeLayout((2,)), np.zeros(3)))
