"""Circuit elements against joint-exponential oracles and coherent-map algebra."""

import cmath
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    beamsplit_sector_unitaries,
    bs_number_gathers,
    bs_sector_eigh,
    coherent,
    displacement_element,
    interference_gadget,
    normalize,
    phase_to_dide,
    squeezed_coherent,
)

from dipnesim import circuits
from dipnesim.analytics import gaussian_propagate, vacuum_moments
from dipnesim.circuits import (
    GadgetSpec,
    _bs_number_readout,
    _bs_plan,
    _number_trace,
    apply_element,
    beamsplit,
    displace,
    displacements,
    phase_shift,
    squeeze_op,
)
from dipnesim.experiments import INTERFERENCE_FAMILIES, _interference_cores
from dipnesim.fock import FockState, LeakageWarning, ModeLayout, basis_state, tensor, vacuum_state
from dipnesim.measure import _vacuum_split
from dipnesim.states import Squeeze, squeezed_vacuum


DISPLACED_MOMENTS = gaussian_propagate(vacuum_moments(2), ("displace", 0, 0.5))


def joint_bs_expm(state, theta):
    # oracle: exponentiate the truncated two-mode generator as one matrix
    da, db = state.layout.dims
    a = np.diag(np.sqrt(np.arange(1.0, da)), 1)
    b = np.diag(np.sqrt(np.arange(1.0, db)), 1)
    gen = np.kron(a.conj().T, b) + np.kron(a, b.conj().T)
    unitary = scipy.linalg.expm(1j * theta * gen)
    return unitary @ state.amplitudes


def coherent_pair(alpha_a, alpha_b, cutoff):
    return tensor(coherent(alpha_a, cutoff), coherent(alpha_b, cutoff))


class TestBeamsplit:
    def test_matches_joint_expm_clipped_sectors(self):
        # unequal cutoffs exercise sector clipping; both sides exponentiate
        # the same truncated generator so agreement is at float precision
        lay = ModeLayout((3, 7))
        rng = np.random.default_rng(7)
        psi = normalize(FockState(lay, rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)))
        for theta in (0.3, math.pi / 4, 1.2):
            got = beamsplit(psi, 0, 1, theta).amplitudes
            want = joint_bs_expm(psi, theta)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_coherent_map_50_50(self):
        cut = 25
        alpha_m, alpha_lo = 0.7, 0.9j
        got = beamsplit(coherent_pair(alpha_m, alpha_lo, cut), 0, 1, math.pi / 4)
        want = coherent_pair(
            (alpha_m + 1j * alpha_lo) / math.sqrt(2), (alpha_lo + 1j * alpha_m) / math.sqrt(2), cut
        )
        np.testing.assert_allclose(got.amplitudes, want.amplitudes, atol=1e-8)

    def test_hong_ou_mandel(self):
        psi = basis_state(ModeLayout((2, 2)), (1, 1))
        out = beamsplit(psi, 0, 1, math.pi / 4)
        assert abs(out.nd[1, 1]) < 1e-14
        assert abs(out.nd[2, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(out.nd[0, 2]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_theta_zero_identity(self):
        psi = coherent_pair(0.5, 0.3, 8)
        out = beamsplit(psi, 0, 1, 0.0)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-14)

    def test_symmetric_in_mode_order(self):
        psi = coherent_pair(0.5, 0.3j, 10)
        ab = beamsplit(psi, 0, 1, 0.6)
        ba = beamsplit(psi, 1, 0, 0.6)
        np.testing.assert_allclose(ab.amplitudes, ba.amplitudes, atol=1e-14)

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError):
            beamsplit(vacuum_state(ModeLayout((2, 2))), 1, 1, 0.3)

    @pytest.mark.parametrize(
        "cutoffs,modes",
        [
            ((60, 60), (0, 1)),
            ((60, 60, 60), (0, 2)),
            ((60, 60, 60), (2, 1)),
            ((30, 30, 30, 30), (3, 1)),
            ((5, 9), (0, 1)),
            ((1, 7), (1, 0)),
        ],
    )
    def test_eigenbasis_matches_sector_unitary_oracle(self, cutoffs, modes):
        # unequal cutoffs clip sectors and leave one-state sectors at both ends
        lay = ModeLayout(cutoffs)
        rng = np.random.default_rng(lay.dim)
        psi = normalize(FockState(lay, rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)))
        for theta in (0.3, 1.2, -0.8):
            got = beamsplit(psi, *modes, theta).amplitudes
            want = beamsplit_sector_unitaries(psi, *modes, theta).amplitudes
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    @given(
        theta=st.floats(-1.5, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_unitary_and_photon_conserving(self, theta, seed):
        lay = ModeLayout((5, 4, 3))
        rng = np.random.default_rng(seed)
        psi = normalize(FockState(lay, rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)))
        out = beamsplit(psi, 0, 2, theta)
        assert out.norm() == pytest.approx(1.0, abs=1e-10)
        before = psi.mean_photons(0) + psi.mean_photons(2)
        after = out.mean_photons(0) + out.mean_photons(2)
        assert after == pytest.approx(before, abs=1e-10)
        back = beamsplit(out, 0, 2, -theta)
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-10)


class TestSectorPlan:
    @pytest.mark.parametrize("dims", [(31, 31), (61, 61), (5, 61), (61, 5), (161, 161)])
    def test_svd_eigenpairs_match_eigh(self, dims):
        # every sector: clipped and unclipped, odd and even sizes
        da, db = dims
        sectors = _bs_plan(da, db)[1]
        assert len(sectors) == da + db - 1
        for total, (js, ks, vec, lam) in enumerate(sectors):
            want_js, want_lam, _ = bs_sector_eigh(da, db, total)
            np.testing.assert_array_equal(js, want_js)
            np.testing.assert_array_equal(ks, total - js)
            gen = np.diag(np.sqrt((js[:-1] + 1.0) * ks[:-1]), -1)
            gen = gen + gen.T
            assert np.abs(gen @ vec - vec * lam).max() <= 1e-12
            assert np.abs(vec.T @ vec - np.eye(js.size)).max() <= 1e-12
            np.testing.assert_allclose(lam, want_lam, rtol=0, atol=1e-12)
            if total < min(da, db):
                # unclipped: 2 J_x of a spin-N/2 multiplet
                np.testing.assert_allclose(lam, np.arange(-total, total + 1, 2.0), rtol=0, atol=1e-12)

    def test_beamsplit_allocates_one_state(self):
        # one copy of the state, then the in-place kernel: its loop over wide
        # blocks only indexes the moved (da, db, rest) view, since reshaping
        # it would copy the state for modes that are not adjacent
        lay = ModeLayout((60, 60, 60))
        rng = np.random.default_rng(3)
        psi = FockState(lay, rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim))
        beamsplit(psi, 0, 1, 0.2)  # build the sector plan outside the trace
        for modes in itertools.permutations(range(3), 2):
            tracemalloc.start()
            try:
                beamsplit(psi, *modes, 0.3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.2 * psi.amplitudes.nbytes, modes

    @pytest.mark.filterwarnings("ignore::dipnesim.fock.LeakageWarning")
    def test_mode_steps_allocate_one_state(self):
        # the complex matrix first, so _expm's temporaries are gone before
        # the one copy of the state; then the matrix along the mode axis of
        # the (before, d, after) view in slabs of _SLAB columns, and the
        # guard band summed over the band: only the copy is a whole state
        lay = ModeLayout((60, 60, 60))
        rng = np.random.default_rng(4)
        psi = FockState(lay, rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim))
        for mode in range(3):
            for step in (lambda: displace(psi, mode, 0.3 - 0.2j), lambda: squeeze_op(psi, mode, Squeeze(0.2, 1.1))):
                tracemalloc.start()
                try:
                    step()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 1.05 * psi.amplitudes.nbytes, mode


class TestInPlaceKernels:
    @given(
        cutoffs=st.lists(st.integers(1, 12), min_size=2, max_size=3),
        theta=st.floats(-math.pi, math.pi),
        alpha=st.tuples(st.floats(0.0, 2.0), st.floats(-math.pi, math.pi)),
        squeeze=st.tuples(st.floats(0.0, 0.5), st.floats(-math.pi, math.pi)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    @pytest.mark.filterwarnings("ignore::dipnesim.fock.LeakageWarning")
    def test_match_dense_oracles(self, cutoffs, theta, alpha, squeeze, seed):
        # every ordered mode pair and every axis of a 2- or 3-mode layout:
        # beamsplit against formed sector unitaries, displace, squeeze and
        # phase against scipy's expm of the truncated generator
        lay = ModeLayout(tuple(cutoffs))
        rng = np.random.default_rng(seed)
        psi = normalize(FockState(lay, rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)))
        for modes in itertools.permutations(range(lay.n_modes), 2):
            got = psi.nd.copy()
            circuits._apply_into(got, ("beamsplit", *modes, theta))
            want = beamsplit_sector_unitaries(psi, *modes, theta).nd
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        alpha, xi = cmath.rect(*alpha), cmath.rect(*squeeze)
        for mode, d in enumerate(lay.dims):
            a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
            for element, gen in (
                (("displace", mode, alpha), alpha * a.T - alpha.conjugate() * a),
                (("squeeze", mode, Squeeze(*squeeze)), (xi.conjugate() * a @ a - xi * a.T @ a.T) / 2),
                (("phase", mode, theta), 1j * theta * np.diag(np.arange(d + 0.0))),
            ):
                got = psi.nd.copy()
                circuits._apply_into(got, element)
                want = np.moveaxis(np.tensordot(scipy.linalg.expm(gen), psi.nd, axes=(1, mode)), 0, mode)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(element))

    @pytest.mark.filterwarnings("ignore::dipnesim.fock.LeakageWarning")
    @pytest.mark.parametrize("cutoffs", [(6, 5, 7), (8, 4)])
    def test_public_elements_leave_input_alone(self, cutoffs):
        # each public element copies the amplitudes and runs its kernel on
        # the copy; the input stays read-only and bit for bit as it was
        lay = ModeLayout(cutoffs)
        rng = np.random.default_rng(9)
        psi = normalize(FockState(lay, rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)))
        before = psi.amplitudes.copy()
        elements = [
            ("beamsplit", lay.n_modes - 1, 0, 0.7),
            ("phase", 1, 0.4),
            ("displace", 1, 0.3 - 0.5j),
            ("squeeze", 0, Squeeze(0.4, 1.3)),
        ]
        calls = [
            lambda: beamsplit(psi, lay.n_modes - 1, 0, 0.7),
            lambda: phase_shift(psi, 1, 0.4),
            lambda: displace(psi, 1, 0.3 - 0.5j),
            lambda: squeeze_op(psi, 0, Squeeze(0.4, 1.3)),
        ] + [lambda element=element: apply_element(psi, element) for element in elements]
        for call in calls:
            out = call()
            assert psi.amplitudes.tobytes() == before.tobytes()
            assert not psi.amplitudes.flags.writeable
            assert not out.amplitudes.flags.writeable
            assert not np.shares_memory(out.amplitudes, psi.amplitudes)


class TestSectorGathers:
    @pytest.mark.parametrize("cutoffs", [(3, 7), (6, 6), (30, 30)])
    def test_vacuum_split_matches_beamsplit(self, cutoffs):
        # the closed-form split of measure against the sector plan; -theta
        # is the split behind a pi phase on the erasure mode
        rng = np.random.default_rng(5)
        ds, de = (c + 1 for c in cutoffs)
        psi = FockState(ModeLayout((cutoffs[0],)), rng.normal(size=ds) + 1j * rng.normal(size=ds))
        pair = tensor(psi, vacuum_state(ModeLayout((cutoffs[1],))))
        for theta in (0.7, -0.7, 0.0):
            idx, src, u = _vacuum_split(ds, de, theta)
            got = np.zeros(ds * de, dtype=np.complex128)
            got[idx] = u * psi.amplitudes[src]
            np.testing.assert_allclose(got, beamsplit(pair, 0, 1, theta).amplitudes, atol=1e-13)

    def test_vacuum_split_needs_whole_sectors(self):
        # with fewer erasure levels than system levels the split would clip
        with pytest.raises(ValueError, match="erasure mode"):
            _vacuum_split(9, 3, 0.7)

    @pytest.mark.parametrize("cutoffs", [(3, 7), (6, 6), (8, 2)])
    def test_readout_matches_beamsplit_on_product_states(self, cutoffs):
        # the Heisenberg readout against <n_b> after beamsplit, clipped
        # sectors included; rho_a is mixed, so it is a sum of pure terms
        rng = np.random.default_rng(11)
        theta = 0.7
        pure = []
        for d in (c + 1 for c in cutoffs):
            vecs = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
            pure.append([v / np.linalg.norm(v) for v in vecs])
        weights = (0.3, 0.7)
        rho_a = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, pure[0]))
        rho_b = np.outer(pure[1][0], pure[1][0].conj())
        got = _number_trace(rho_a, rho_b, theta)
        want = 0.0
        for w, v in zip(weights, pure[0]):
            pair = tensor(
                FockState(ModeLayout((cutoffs[0],)), v), FockState(ModeLayout((cutoffs[1],)), pure[1][0])
            )
            want += w * beamsplit(pair, 0, 1, theta).mean_photons(1)
        assert got == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("dims", [(3, 7), (7, 7), (9, 3), (40, 23), (23, 40)])
    def test_readout_diagonals_hold_the_gather_entries(self, dims):
        # every flat gather entry h at (rho_a[j, j + delta], rho_b[k, k - delta])
        # sits at G_delta[j, k - delta], and the zero padding holds nothing else
        da, db = dims
        ia, ib, blocks = _bs_number_readout(da, db, 0.7)
        runs = np.zeros((min(da, db), da, db), dtype=np.complex128)
        for block in blocks:
            lo = da - block.shape[1]
            runs[lo : lo + block.shape[0], : block.shape[1], : block.shape[2]] = block
        g_ia, g_ib, h = bs_number_gathers(da, db, 0.7)
        j, delta = g_ia // da, g_ia % da - g_ia // da
        want = np.zeros_like(runs)
        want[delta, j, g_ib % db] = h
        np.testing.assert_array_equal(runs, want)
        assert np.count_nonzero(runs) <= h.size

    def test_readout_diagonal_gathers(self):
        da, db = 4, 6
        ia, ib, _ = _bs_number_readout(da, db, 0.2)
        rho_a = np.append(np.arange(da * da), -1)
        rho_b = np.append(np.arange(db * db), -1)
        for delta in range(min(da, db)):
            np.testing.assert_array_equal(rho_a[ia[delta, : da - delta]], np.diagonal(rho_a[:-1].reshape(da, da), delta))
            np.testing.assert_array_equal(rho_b[ib[delta, : db - delta]], np.diagonal(rho_b[:-1].reshape(db, db), -delta))
            assert (ia[delta, da - delta :] == da * da).all()
            assert (ib[delta, db - delta :] == db * db).all()

    def test_readout_bytes_at_cutoff_120(self):
        # the flat gathers held 18.2 MB here; the diagonals hold about d^3 / 3 entries
        ia, ib, blocks = _bs_number_readout(121, 121, 0.3)
        assert ia.nbytes + ib.nbytes + sum(block.nbytes for block in blocks) <= 18.2e6

    @pytest.mark.parametrize("gather", [_bs_number_readout, _vacuum_split])
    def test_cached_per_key(self, gather):
        first = gather(5, 7, 0.3)
        assert gather(5, 7, 0.3) is first
        assert gather(5, 7, 0.31) is not first
        arrays = [arr for part in first for arr in (part if isinstance(part, tuple) else (part,))]
        assert not any(arr.flags.writeable for arr in arrays)


class TestPhaseShift:
    def test_phi_zero_identity(self):
        psi = coherent(0.8, 12)
        np.testing.assert_array_equal(phase_shift(psi, 0, 0.0).amplitudes, psi.amplitudes)

    def test_pi_flips_coherent(self):
        psi = coherent(0.9, 30)
        out = phase_shift(psi, 0, math.pi)
        np.testing.assert_allclose(out.amplitudes, coherent(-0.9, 30).amplitudes, atol=1e-12)

    def test_half_pi_rotates_coherent(self):
        out = phase_shift(coherent(1.0, 40), 0, math.pi / 2)
        np.testing.assert_allclose(out.amplitudes, coherent(1j, 40).amplitudes, atol=1e-10)


class TestDisplaceSqueeze:
    def test_displace_vacuum_is_coherent(self):
        for alpha in (0.5, -1.3, 2.0, 1.1 + 0.9j):
            got = displace(vacuum_state(ModeLayout((40,))), 0, alpha)
            want = coherent(alpha, 40)
            np.testing.assert_allclose(got.amplitudes, want.amplitudes, atol=1e-8)

    def test_displace_zero_identity(self):
        psi = coherent(0.4, 10)
        assert displace(psi, 0, 0) is psi

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.3, math.nan)])
    def test_non_finite_displacement_rejected(self, alpha):
        with pytest.raises(ValueError, match="displacement must be finite"):
            displace(coherent(0.4, 10), 0, alpha)
        with pytest.raises(ValueError, match="displacement must be finite"):
            displacements(coherent(0.4, 10), 0, [0.2, alpha, 0.0])

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda psi, angle: beamsplit(psi, 0, 1, angle),
            lambda psi, angle: phase_shift(psi, 0, angle),
            lambda psi, angle: squeeze_op(psi, 0, Squeeze(0.3, angle)),
            lambda psi, angle: gaussian_propagate(vacuum_moments(2), ("squeeze", 0, Squeeze(0.3, angle))),
            lambda psi, angle: gaussian_propagate(DISPLACED_MOMENTS, ("phase", 0, angle)),
            lambda psi, angle: gaussian_propagate(DISPLACED_MOMENTS, ("beamsplit", 0, 1, angle)),
        ],
        ids=["beamsplit", "phase_shift", "squeeze_op", "gaussian_propagate", "gaussian_phase", "gaussian_beamsplit"],
    )
    def test_non_finite_angle_rejected(self, call, angle):
        # each of these once returned NaN amplitudes or means with no error,
        # or (a beamsplit's inf in gaussian_propagate) a bare math domain error
        psi = displace(vacuum_state(ModeLayout((6, 6))), 0, 0.5)
        with pytest.raises(ValueError, match="angle must be finite|its angle finite"):
            call(psi, angle)

    def test_displace_inverse(self):
        psi = squeezed_vacuum(Squeeze(0.3, 1.0), 40)
        out = displace(displace(psi, 0, 0.8), 0, -0.8)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-8)

    def test_squeeze_vacuum_matches_constructor(self):
        got = squeeze_op(vacuum_state(ModeLayout((40,))), 0, Squeeze(0.3))
        want = squeezed_vacuum(Squeeze(0.3), 40)
        np.testing.assert_allclose(got.amplitudes, want.amplitudes, atol=1e-8)

    def test_squeeze_zero_identity(self):
        psi = coherent(0.4, 10)
        assert squeeze_op(psi, 0, Squeeze(0.0)) is psi

    @pytest.mark.parametrize(
        "call",
        [
            lambda psi: displace(psi, 3, 0),
            lambda psi: displacements(psi, 3, [0, 0]),
            lambda psi: squeeze_op(psi, 3, Squeeze(0.0)),
        ],
        ids=["displace", "displacements", "squeeze_op"],
    )
    def test_zero_parameter_call_checks_the_mode(self, call):
        with pytest.raises(ValueError, match=r"mode 3 outside 0\.\.0"):
            call(coherent(0.4, 10))

    def test_squeeze_inverse(self):
        # S(-xi) is S(r, theta + pi)
        psi = coherent(0.5, 50)
        out = squeeze_op(squeeze_op(psi, 0, Squeeze(0.25, 0.7)), 0, Squeeze(0.25, 0.7 + math.pi))
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-8)

    def test_acts_on_named_mode_of_joint_state(self):
        two = tensor(vacuum_state(ModeLayout((30,))), vacuum_state(ModeLayout((30,))))
        out = displace(two, 1, 0.7)
        want = tensor(vacuum_state(ModeLayout((30,))), coherent(0.7, 30))
        np.testing.assert_allclose(out.amplitudes, want.amplitudes, atol=1e-10)

    def test_large_dim_matches_constructor(self):
        got = squeeze_op(vacuum_state(ModeLayout((500,))), 0, Squeeze(0.4))
        want = squeezed_vacuum(Squeeze(0.4), 500)
        np.testing.assert_allclose(got.amplitudes, want.amplitudes, atol=1e-8)

    @pytest.mark.parametrize("op", ["displace", "squeeze"])
    def test_large_generator_matches_dense_expm(self, op):
        # oracle: the complex generator exponentiated at d = 450, phase included
        cutoff = 449
        a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
        ad = a.conj().T
        psi = squeezed_coherent(1.1 - 0.4j, Squeeze(0.2, 0.9), cutoff)
        if op == "displace":
            alpha = 0.9 + 0.5j
            got = displace(psi, 0, alpha)
            gen = alpha * ad - np.conj(alpha) * a
        else:
            xi = 0.35 * cmath.exp(0.6j)
            got = squeeze_op(psi, 0, Squeeze(0.35, 0.6))
            gen = (np.conj(xi) * (a @ a) - xi * (ad @ ad)) / 2
        want = scipy.linalg.expm(gen) @ psi.amplitudes
        np.testing.assert_allclose(got.amplitudes, want, rtol=0, atol=1e-10)

    @pytest.mark.filterwarnings("ignore::dipnesim.fock.LeakageWarning")
    @pytest.mark.parametrize("cutoff", [1, 2, 30, 60, 120, 399, 400])
    def test_matches_unrotated_complex_generator(self, cutoff):
        # oracle: dense expm of the complex generator, with no phase rotated out
        a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
        ad = a.conj().T
        psi = squeezed_coherent(0.6 - 0.3j, Squeeze(0.2, 0.9), cutoff)
        for alpha in (0.7 + 0.4j, -0.5 + 0.9j, -0.8 - 0.3j, 0.2 - 1.1j):
            want = scipy.linalg.expm(alpha * ad - np.conj(alpha) * a) @ psi.amplitudes
            got = displace(psi, 0, alpha)
            np.testing.assert_allclose(got.amplitudes, want, rtol=0, atol=1e-13)
        for theta in (0.3, 1.9, 3.5, 5.6):
            xi = 0.35 * cmath.exp(1j * theta)
            gen = (np.conj(xi) * (a @ a) - xi * (ad @ ad)) / 2
            want = scipy.linalg.expm(gen) @ psi.amplitudes
            got = squeeze_op(psi, 0, Squeeze(0.35, theta))
            np.testing.assert_allclose(got.amplitudes, want, rtol=0, atol=1e-13)

    def test_displace_tail_relative_accuracy(self):
        # amplitudes near n = 60 are ~1e-47, so an operator with an absolute
        # error floor (an eigenbasis expm, say) is off by orders of magnitude
        alpha = 0.8 * cmath.exp(2.1j)
        got = displace(vacuum_state(ModeLayout((120,))), 0, alpha).amplitudes[:61]
        want = coherent(alpha, 120).amplitudes[:61]
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0)

    def test_displace_tail_relative_accuracy_to_1e_12(self):
        # scipy's real expm leaves 4.8e-10 here; the complex one 9.5e-14
        alpha = 0.8 * cmath.exp(2.1j)
        got = displace(vacuum_state(ModeLayout((120,))), 0, alpha).amplitudes[:61]
        want = coherent(alpha, 120).amplitudes[:61]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d", [2, 31, 61, 121, 450])
    @pytest.mark.parametrize("op", ["displace", "squeeze"])
    def test_expm_matches_scipy(self, d, op):
        # oracle: scipy's complex expm of the same real generator; its real
        # branch is itself off by up to 1.7e-12 at d = 450
        a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
        gen = 1.03 * (a.T - a) if op == "displace" else 0.175 * (a @ a - (a @ a).T)
        want = scipy.linalg.expm(gen.astype(np.complex128))
        got = circuits._expm(gen)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, want.real, rtol=0, atol=1e-13)

    def test_squeeze_tail_relative_accuracy(self):
        squeeze = Squeeze(0.4, 0.9)
        got = squeeze_op(vacuum_state(ModeLayout((120,))), 0, squeeze).amplitudes[:61:2]
        want = squeezed_vacuum(squeeze, 120).amplitudes[:61:2]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("cutoff", [60, 449])
    def test_exponentials_see_real_generators(self, cutoff, monkeypatch):
        # the phase stays out of the generator, so no complex matrix is exponentiated
        seen = []

        def spy(fn):
            def wrapped(gen, *args, **kwargs):
                seen.append(gen.dtype)
                return fn(gen, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(circuits, "_expm", spy(circuits._expm))
        psi = coherent(0.5, cutoff)
        squeeze_op(displace(psi, 0, -0.3 + 0.8j), 0, Squeeze(0.3, 2.2))
        # a one-mode state goes through the banded action, with no exponential
        assert seen == []
        pair = tensor(psi, vacuum_state(ModeLayout((1,))))
        squeeze_op(displace(pair, 0, -0.3 + 0.8j), 0, Squeeze(0.3, 2.2))
        assert len(seen) == 2
        assert not any(np.issubdtype(dtype, np.complexfloating) for dtype in seen)


class TestStackedExponential:
    @pytest.mark.filterwarnings("ignore::dipnesim.fock.LeakageWarning")
    def test_mixed_chunks_and_phases(self):
        # complex alphas, zeros between them and more rows than one chunk holds
        psi = squeezed_coherent(0.3 - 0.2j, Squeeze(0.3, 0.8), 120)
        alphas = [0.7 + 0.4j, 0, -0.5 + 0.9j, -0.8 - 0.3j, 0.2 - 1.1j, 0.0j, 1.3, -0.6, 0.25j, 0.9 + 0.9j]
        swept = displacements(psi, 0, alphas)
        for alpha, state in zip(alphas, swept):
            want = displace(psi, 0, alpha)
            assert state.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert swept[1] is psi and swept[5] is psi

    @pytest.mark.parametrize("family", INTERFERENCE_FAMILIES)
    @pytest.mark.parametrize("cutoff", [6, 30, 120])
    def test_sweep_matches_one_point_calls(self, family, cutoff):
        # the interference sweep's alphas, alpha = 0 first; cutoff 6 leaks
        alphas = [math.sqrt(f * 3.0) for f in np.linspace(0.0, 1.0, 21)]
        for core in _interference_cores(family, cutoff):
            with warnings.catch_warnings(record=True) as swept_warnings:
                warnings.simplefilter("always")
                swept = displacements(core, 0, alphas)
            with warnings.catch_warnings(record=True) as one_warnings:
                warnings.simplefilter("always")
                ones = [displace(core, 0, alpha) for alpha in alphas]
            assert [str(w.message) for w in swept_warnings] == [str(w.message) for w in one_warnings]
            assert all(w.category is LeakageWarning for w in swept_warnings)
            assert swept_warnings or cutoff > 6
            assert swept[0] is core and ones[0] is core
            for state, one in zip(swept, ones):
                assert state.amplitudes.tobytes() == one.amplitudes.tobytes()
                assert state.guard_band_mass == one.guard_band_mass
                assert state.leakage == one.leakage

    def test_sweep_stack_stays_in_its_chunks(self):
        # 21 fractions at cutoff 120: a stacked dense exponential would hold
        # 2.5 MB per (21, 121, 121) temporary; the banded action holds
        # (123, 42) float arrays
        core = basis_state(ModeLayout((120,)), (1,))
        alphas = [math.sqrt(f) for f in np.linspace(0.0, 1.0, 21)]
        displacements(core, 0, alphas[:2])
        tracemalloc.start()
        try:
            displacements(core, 0, alphas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20


class TestModeAction:
    @staticmethod
    def dense(vec, power, scale, phi):
        # oracle: the Pade exponential of the same real generator
        d = vec.size
        a = circuits._lowering(d)
        base = a.T - a if power == 1 else a @ a - (a @ a).T
        rot = np.exp(1j * phi * np.arange(d))
        return rot * (circuits._expm(scale * base) @ (rot.conj() * vec))

    @pytest.mark.parametrize("family", INTERFERENCE_FAMILIES)
    @pytest.mark.parametrize("cutoff", [6, 30, 60, 120])
    def test_matches_expm_on_interference_cores(self, family, cutoff):
        scales = [math.sqrt(f * 3.0) for f in np.linspace(0.05, 1.0, 20)] + [0.05, 0.2, 0.44]
        powers = [1] * 20 + [2] * 3
        phis = np.linspace(0.0, 6.0, len(scales))
        for core in _interference_cores(family, cutoff):
            vecs = np.broadcast_to(core.amplitudes, (len(scales), core.layout.dim))
            got = circuits._mode_action(vecs, powers, scales, phis)
            for row, power, scale, phi in zip(got, powers, scales, phis):
                np.testing.assert_allclose(row, self.dense(core.amplitudes, power, scale, phi), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("d", [31, 61, 121])
    def test_matches_scipy_expm_multiply(self, d):
        # oracle: scipy's sparse action of the complex generator, phase included
        import scipy.sparse
        import scipy.sparse.linalg

        a = scipy.sparse.diags(np.sqrt(np.arange(1.0, d)), 1, format="csc")
        rng = np.random.default_rng(d)
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        vec /= np.linalg.norm(vec)
        for power, scale, phi in ((1, 1.3, 0.4), (1, 0.02, 5.0), (2, 0.2, 2.0), (2, 0.45, 0.7)):
            if power == 1:
                alpha = scale * cmath.exp(1j * phi)
                gen = alpha * a.T - np.conj(alpha) * a
            else:
                xi = 2 * scale * cmath.exp(2j * phi)
                gen = (np.conj(xi) * (a @ a) - xi * (a.T @ a.T)) / 2
            want = scipy.sparse.linalg.expm_multiply(gen.astype(np.complex128), vec)
            got = circuits._mode_action(vec[None], [power], [scale], [phi])[0]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_mixed_batch_rows_match_rows_alone(self):
        # displace, squeeze and zero rows of different magnitudes and inputs
        d = 61
        rng = np.random.default_rng(11)
        vecs = rng.normal(size=(9, d)) + 1j * rng.normal(size=(9, d))
        vecs[3] = 0.0
        vecs[3, 0] = 1.0
        powers = [1, 2, 1, 2, 1, 2, 1, 2, 1]
        scales = [1.8, 0.225, 0.0, 0.0, 0.05, 0.01, 3.0, 0.6, 0.3]
        phis = [0.3, 1.2, 2.0, 0.0, 5.5, 3.3, 0.1, 4.0, 2.2]
        got = circuits._mode_action(vecs, powers, scales, phis)
        for i in range(len(scales)):
            alone = circuits._mode_action(vecs[i : i + 1], powers[i : i + 1], scales[i : i + 1], phis[i : i + 1])
            assert got[i].tobytes() == alone[0].tobytes()
        np.testing.assert_allclose(got[2], vecs[2], rtol=0, atol=1e-15)


class TestDisplacementMatrix:
    # the untruncated <m|D(x)|n> behind numberdiff, against mpmath's Laguerre
    # form over the domain it serves: joint cutoffs to 160, x = beta cos(pi/4)
    @given(x=st.floats(0.5, 10.0), d=st.integers(2, 161), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @example(x=0.5, d=161, seed=1)
    @example(x=10.0, d=161, seed=2)
    def test_matches_laguerre_form(self, x, d, seed):
        got = circuits._displacement_matrix(x, d)
        corners = [(0, 0), (d - 1, 0), (0, d - 1), (d - 1, d - 1)]
        picks = corners + [tuple(p) for p in np.random.default_rng(seed).integers(0, d, (16, 2)).tolist()]
        for m, n in picks:
            assert abs(got[m, n] - float(displacement_element(m, n, x))) <= 5e-14, (m, n)
        m, n = np.indices((d, d))
        np.testing.assert_array_equal(got.T, np.where((m - n) % 2, -got, got))


class TestTranslations:
    def test_phase_to_dide_map(self):
        cut, a, lo = 30, 0.4, 1.0
        out = phase_to_dide(coherent_pair(1j * a, lo, cut))
        want = coherent_pair((lo + a) / math.sqrt(2), (lo - a) / math.sqrt(2), cut)
        np.testing.assert_allclose(out.amplitudes, want.amplitudes, atol=1e-9)

    def test_phase_to_dide_sign_mirror(self):
        cut, a, lo = 30, 0.4, 1.0
        out = phase_to_dide(coherent_pair(-1j * a, lo, cut))
        want = coherent_pair((lo - a) / math.sqrt(2), (lo + a) / math.sqrt(2), cut)
        np.testing.assert_allclose(out.amplitudes, want.amplitudes, atol=1e-9)

    def test_phase_to_dide_full_transfer(self):
        cut, lo = 35, 0.8
        out = phase_to_dide(coherent_pair(1j * lo, lo, cut))
        want = coherent_pair(2 * lo / math.sqrt(2), 0.0, cut)
        np.testing.assert_allclose(out.amplitudes, want.amplitudes, atol=1e-9)
        # mode 1 is vacuum
        assert abs(out.nd[:, 0].conj() @ out.nd[:, 0] - 1.0) < 1e-9

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_identity(self, seed):
        lay = ModeLayout((6, 6))
        rng = np.random.default_rng(seed)
        psi = normalize(FockState(lay, rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)))
        # the inverse: +i phase shift on mode 0, then a -pi/4 beamsplit
        back = beamsplit(phase_shift(phase_to_dide(psi), 0, math.pi / 2), 0, 1, -math.pi / 4)
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-10)


def gadget_input(alpha0, alpha1, cut_sys, cut_erase):
    return tensor(
        tensor(coherent(alpha0, cut_sys), coherent(alpha1, cut_sys)),
        tensor(vacuum_state(ModeLayout((cut_erase,))), vacuum_state(ModeLayout((cut_erase,)))),
    )


def exit_displacements(alpha0, alpha1, spec):
    sgn = -1.0 if spec.pi_shift else 1.0
    cs, ss = math.cos(spec.theta_split), math.sin(spec.theta_split)
    ci, si = math.cos(spec.theta_interfere), math.sin(spec.theta_interfere)
    exit0 = 1j * (sgn * ci * ss * alpha0 + si * cs * alpha1)
    exit1 = 1j * (sgn * ci * ss * alpha1 + si * cs * alpha0)
    return exit0, exit1


class TestInterferenceGadget:
    def test_vacuum_passes_through(self):
        psi = gadget_input(0, 0, 6, 6)
        out = interference_gadget(psi, GadgetSpec(0.4, 0.2))
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-12)

    def test_zero_angles_identity(self):
        psi = gadget_input(0.5, 0.3, 10, 6)
        out = interference_gadget(psi, GadgetSpec(0.0, 0.0))
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-12)

    def test_zero_split_leaves_modes_uncoupled(self):
        # nothing picked off: each system mode only attenuates, no cross term
        psi = gadget_input(0.6, 0.0, 12, 8)
        out = interference_gadget(psi, GadgetSpec(0.0, 0.35))
        assert out.mean_photons(1) == pytest.approx(0.0, abs=1e-12)
        assert out.mean_photons(0) == pytest.approx(
            (math.cos(0.35) * 0.6) ** 2, abs=1e-10
        )

    @pytest.mark.parametrize("pi_shift", [False, True])
    def test_coherent_exit_displacements(self, pi_shift):
        alpha0, alpha1 = 0.7, 0.5
        spec = GadgetSpec(math.pi / 5, math.pi / 10, pi_shift=pi_shift)
        out = interference_gadget(gadget_input(alpha0, alpha1, 14, 10), spec)
        exit0, exit1 = exit_displacements(alpha0, alpha1, spec)
        assert out.mean_photons(2) == pytest.approx(abs(exit0) ** 2, abs=1e-9)
        assert out.mean_photons(3) == pytest.approx(abs(exit1) ** 2, abs=1e-9)
        total = sum(out.mean_photons(m) for m in range(4))
        assert total == pytest.approx(alpha0**2 + alpha1**2, abs=1e-9)

    def test_nonvacuum_erasure_rejected(self):
        bad = tensor(
            tensor(coherent(0.5, 8), coherent(0.5, 8)),
            tensor(coherent(0.2, 8), vacuum_state(ModeLayout((8,)))),
        )
        with pytest.raises(ValueError, match="vacuum"):
            interference_gadget(bad, GadgetSpec(0.3, 0.2))

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            GadgetSpec(-0.1, 0.2)
        with pytest.raises(ValueError):
            GadgetSpec(0.1, math.pi / 2)

    def test_erasure_modes_validated(self):
        with pytest.raises(ValueError, match="erasure_modes"):
            interference_gadget(gadget_input(0, 0, 4, 4), GadgetSpec(0.1, 0.2), (2, 2))

    def test_unitary_on_nongaussian_input(self):
        # photon in mode 0, coherent mode 1, vacuum erasure modes
        psi = tensor(
            tensor(basis_state(ModeLayout((6,)), (1,)), coherent(0.4, 6)),
            tensor(vacuum_state(ModeLayout((6,))), vacuum_state(ModeLayout((6,)))),
        )
        out = interference_gadget(psi, GadgetSpec(0.5, 0.4, pi_shift=True))
        assert out.norm() == pytest.approx(psi.norm(), abs=1e-12)


class TestSeparationInvariant:
    @pytest.mark.parametrize(
        "core",
        [
            "squeezed_product",
            "fock_superposition",
        ],
    )
    def test_displacement_separates_from_core(self, core):
        theta = 0.7
        alpha0, alpha1 = 0.6 + 0.2j, -0.4 + 0.5j
        if core == "squeezed_product":
            zeta = tensor(
                squeezed_vacuum(Squeeze(0.3, 0.7), 40), squeezed_vacuum(Squeeze(0.25, 2.0), 40)
            )
        else:
            lay = ModeLayout((40,))
            amps = np.zeros(41, dtype=complex)
            amps[0] = 1 / math.sqrt(2)
            amps[2] = 1 / math.sqrt(2)
            zeta = tensor(FockState(lay, amps), basis_state(lay, (1,)))
        displaced = displace(displace(zeta, 0, alpha0), 1, alpha1)
        lhs = beamsplit(displaced, 0, 1, theta).mean_photons(1)
        core_term = beamsplit(zeta, 0, 1, theta).mean_photons(1)
        disp_term = abs(math.cos(theta) * alpha1 + 1j * math.sin(theta) * alpha0) ** 2
        assert lhs == pytest.approx(core_term + disp_term, abs=1e-8)

