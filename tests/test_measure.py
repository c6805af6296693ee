"""Measurement statistics and the interference-loss readout."""

import math

import numpy as np
import pytest

from oracles import (
    clipped_sector_mass,
    coherent,
    interference_gadget,
    joint_number_distribution,
    l_intf_gathers,
    measure_count,
    normalize,
    readout_oracle,
)

from dipnesim.circuits import GadgetSpec, beamsplit, displace, displacements, squeeze_op
from dipnesim.experiments import INTERFERENCE_FAMILIES, _interference_cores
from dipnesim.fock import ModeLayout, basis_state, tensor, vacuum_state
from dipnesim.measure import _vacuum_split, l_intf, mean_quadrature
from dipnesim.states import Squeeze, squeezed_vacuum


def coherent_pair(alpha_a, alpha_b, cutoff):
    return tensor(coherent(alpha_a, cutoff), coherent(alpha_b, cutoff))


def dense_erasure_photons(input0, input1, spec, erasure_modes):
    # oracle: the whole 4-mode gadget state, erasure modes at cutoff max(c0, c1)
    erasure = vacuum_state(ModeLayout((max(input0.layout.cutoffs[0], input1.layout.cutoffs[0]),)))
    e0, e1 = erasure_modes
    s0, s1 = (m for m in range(4) if m not in erasure_modes)
    parts = {s0: input0, s1: input1, e0: erasure, e1: erasure}
    joint = parts[0]
    for m in range(1, 4):
        joint = tensor(joint, parts[m])
    out = interference_gadget(joint, spec, erasure_modes)
    return out.mean_photons(e0) + out.mean_photons(e1)


def dense_l_intf(input0, input1, spec, erasure_modes):
    vac0, vac1 = vacuum_state(input0.layout), vacuum_state(input1.layout)
    return (
        dense_erasure_photons(input0, input1, spec, erasure_modes)
        - dense_erasure_photons(input0, vac1, spec, erasure_modes)
        - dense_erasure_photons(vac0, input1, spec, erasure_modes)
    )


class TestJointDistribution:
    def test_fock_state(self):
        psi = basis_state(ModeLayout((3, 3)), (1, 1))
        dist = joint_number_distribution(psi)
        assert dist[1, 1] == 1.0
        assert dist.sum() == 1.0

    def test_hong_ou_mandel_distribution(self):
        out = beamsplit(basis_state(ModeLayout((2, 2)), (1, 1)), 0, 1, math.pi / 4)
        dist = joint_number_distribution(out)
        assert dist[1, 1] == pytest.approx(0.0, abs=1e-14)
        assert dist[2, 0] == pytest.approx(0.5, abs=1e-12)
        assert dist[0, 2] == pytest.approx(0.5, abs=1e-12)

    def test_coherent_product_is_poisson_product(self):
        psi = coherent_pair(0.9, 0.6, 20)
        dist = joint_number_distribution(psi)
        n = np.arange(21)
        p_a = np.exp(-0.81) * 0.81**n / [math.factorial(int(k)) for k in n]
        p_b = np.exp(-0.36) * 0.36**n / [math.factorial(int(k)) for k in n]
        np.testing.assert_allclose(dist, np.outer(p_a, p_b), atol=1e-8)

    def test_mode_order(self):
        psi = basis_state(ModeLayout((2, 3)), (1, 2))
        dist = joint_number_distribution(psi)
        assert dist.shape == (3, 4)
        assert dist[1, 2] == 1.0


class TestMeasureCount:
    def test_vacuum_zero_count(self):
        out = measure_count(vacuum_state(ModeLayout((4,))), 0, 0)
        assert out.probability == 1.0
        assert out.post_state is None

    def test_vacuum_impossible_count(self):
        with pytest.raises(ValueError, match="zero probability"):
            measure_count(vacuum_state(ModeLayout((4,))), 0, 1)

    def test_out_of_range_count(self):
        with pytest.raises(ValueError):
            measure_count(vacuum_state(ModeLayout((4,))), 0, 5)

    def test_measuring_product_mode_keeps_rest(self):
        psi = tensor(vacuum_state(ModeLayout((3,))), coherent(0.7, 20))
        out = measure_count(psi, 0, 0)
        assert out.probability == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            out.post_state.amplitudes, coherent(0.7, 20).amplitudes, atol=1e-12
        )

    def test_probabilities_sum_to_one_minus_leakage(self):
        psi = coherent_pair(0.8, 0.5, 14)
        total = sum(measure_count(psi, 1, k).probability for k in range(15))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_post_states_normalized(self):
        psi = coherent_pair(0.8, 0.5, 14)
        for k in range(4):
            out = measure_count(psi, 0, k)
            assert out.post_state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_odd_count_from_split_squeezed_vacuum(self):
        # pick off light from squeezed vacuum; odd counts leave odd-only states
        psi = tensor(squeezed_vacuum(Squeeze(0.8), 24), vacuum_state(ModeLayout((8,))))
        out = beamsplit(psi, 0, 1, 0.5)
        for k in (1, 3):
            post = measure_count(out, 1, k).post_state
            assert np.all(post.amplitudes[0::2] == 0.0)
            assert np.any(post.amplitudes[1::2] != 0.0)


class TestMeanQuadrature:
    def test_vacuum(self):
        assert mean_quadrature(vacuum_state(ModeLayout((4,))), 0) == (0.0, 0.0)

    def test_real_coherent(self):
        x, p = mean_quadrature(coherent(1.0, 40), 0)
        assert x == pytest.approx(2.0, abs=1e-9)
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_imaginary_coherent(self):
        x, p = mean_quadrature(coherent(1j, 40), 0)
        assert x == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(2.0, abs=1e-9)

    def test_squeezed_vacuum_centered(self):
        x, p = mean_quadrature(squeezed_vacuum(Squeeze(0.7, 1.1), 60), 0)
        assert x == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(0.0, abs=1e-12)


    @pytest.mark.filterwarnings("ignore::dipnesim.fock.LeakageWarning")
    @pytest.mark.parametrize("cutoffs", [(30,), (12, 9), (6, 7, 5)])
    def test_one_pass_readouts_match_shifted_copy_oracle(self, cutoffs):
        # a displaced, squeezed and beamsplit state, so every mode has <a> != 0
        layout = ModeLayout(cutoffs)
        state = vacuum_state(layout)
        for mode in range(len(cutoffs)):
            state = squeeze_op(displace(state, mode, 0.4 - 0.3j * mode), mode, Squeeze(0.2, 1.0 + mode))
        if len(cutoffs) > 1:
            state = beamsplit(state, 0, len(cutoffs) - 1, 0.6)
        state = normalize(state)
        for mode in range(len(cutoffs)):
            n_want, a_want = readout_oracle(state, mode)
            assert abs(state.mean_photons(mode) - n_want) <= 1e-15
            x, p = mean_quadrature(state, mode)
            assert abs(x - 2.0 * a_want.real) <= 1e-15 and abs(p - 2.0 * a_want.imag) <= 1e-15


class TestVacuumSplit:
    @pytest.mark.parametrize("theta", [math.pi / 5, -0.9])
    @pytest.mark.parametrize("d", [31, 61, 121])
    def test_matches_30_digit_binomial(self, d, theta):
        # every entry sqrt(C(n, b)) cos^{n-b} (i sin)^b against mpmath at the
        # same double theta
        import mpmath

        idx, src, u = _vacuum_split(d, d, theta)
        b = idx % d
        with mpmath.workdps(30):
            c, s = mpmath.cos(theta), mpmath.sin(theta)
            want = [
                mpmath.sqrt(mpmath.binomial(n, k)) * c ** (n - k) * (1j * s) ** k
                for n, k in zip(src.tolist(), b.tolist())
            ]
            worst = max(abs(got - w) / abs(w) for got, w in zip(u.tolist(), want))
        assert idx.tolist() == ((src - b) * d + b).tolist()
        assert worst < 1e-14


def loss_theory(alpha0, alpha1, spec):
    sign = -1.0 if spec.pi_shift else 1.0
    return (
        sign
        * 4.0
        * math.sin(spec.theta_split)
        * math.cos(spec.theta_split)
        * math.sin(spec.theta_interfere)
        * math.cos(spec.theta_interfere)
        * (alpha0 * np.conj(alpha1)).real
    )


class TestLIntf:
    def test_vacuum_input_gives_zero(self):
        spec = GadgetSpec(0.4, 0.3)
        psi = coherent(0.8, 12)
        vac = vacuum_state(ModeLayout((12,)))
        assert l_intf(psi, vac, spec) == pytest.approx(0.0, abs=1e-12)
        assert l_intf(vac, psi, spec) == pytest.approx(0.0, abs=1e-12)

    def test_coherent_inputs_match_closed_form(self):
        f = 0.5
        spec = GadgetSpec(math.pi / 5, math.pi / 10)
        a0, a1 = math.sqrt(f), math.sqrt(1 - f)
        got = l_intf(coherent(a0, 16), coherent(a1, 16), spec)
        want = loss_theory(a0, a1, spec)
        assert want == pytest.approx(0.2795, abs=5e-4)
        assert got == pytest.approx(want, abs=1e-8)

    def test_pi_shift_flips_sign(self):
        a0, a1 = 0.7, 0.6
        plain = l_intf(
            coherent(a0, 14), coherent(a1, 14), GadgetSpec(math.pi / 6, 0.25, pi_shift=False)
        )
        flipped = l_intf(
            coherent(a0, 14), coherent(a1, 14), GadgetSpec(math.pi / 6, 0.25, pi_shift=True)
        )
        assert flipped == pytest.approx(-plain, abs=1e-8)

    def test_photon_added_core_leaves_loss_unchanged(self):
        from dipnesim.circuits import displace

        spec = GadgetSpec(math.pi / 5, math.pi / 10)
        a0, a1 = math.sqrt(0.4), math.sqrt(0.6)
        plain = l_intf(coherent(a0, 18), coherent(a1, 18), spec)
        bumped0 = displace(basis_state(ModeLayout((18,)), (1,)), 0, a0)
        got = l_intf(bumped0, coherent(a1, 18), spec)
        assert got == pytest.approx(plain, abs=1e-6)

    @pytest.mark.parametrize("family", INTERFERENCE_FAMILIES)
    @pytest.mark.parametrize("pi_shift", [False, True])
    @pytest.mark.parametrize(
        "cutoffs,erasure_modes", [((10, 10), (2, 3)), ((8, 13), (0, 3)), ((14, 6), (3, 1))]
    )
    def test_matches_dense_gadget(self, family, pi_shift, cutoffs, erasure_modes):
        spec = GadgetSpec(0.9, 0.4, pi_shift)
        core0 = _interference_cores(family, cutoffs[0])[0]
        core1 = _interference_cores(family, cutoffs[1])[1]
        input0 = displace(core0, 0, 0.6)
        input1 = displace(core1, 0, 0.8)
        got = l_intf(input0, input1, spec)
        assert got == pytest.approx(dense_l_intf(input0, input1, spec, erasure_modes), abs=1e-12)

    @pytest.mark.filterwarnings("ignore::dipnesim.fock.LeakageWarning")
    @pytest.mark.parametrize("family", INTERFERENCE_FAMILIES)
    @pytest.mark.parametrize("pi_shift", [False, True])
    @pytest.mark.parametrize("cutoffs", [(30, 30), (8, 45), (45, 8), (60, 17)])
    def test_matches_gather_oracle(self, family, pi_shift, cutoffs):
        # the diagonal readout against the flat gathers it replaced
        spec = GadgetSpec(0.9, 0.4, pi_shift)
        input0 = displace(_interference_cores(family, cutoffs[0])[0], 0, 0.6)
        input1 = displace(_interference_cores(family, cutoffs[1])[1], 0, 0.8 - 0.3j)
        got = l_intf(input0, input1, spec)
        assert got == pytest.approx(l_intf_gathers(input0, input1, spec), abs=1e-14)

    def test_clipped_sector_mass(self):
        # coherent inputs split into coherent marginals, so the larger
        # recombination input holds a Poisson number of photons; the
        # clipped sectors are those above the cutoff
        from scipy.stats import poisson

        spec = GadgetSpec(0.9, 0.4)
        c, s = math.cos(spec.theta_split) ** 2, math.sin(spec.theta_split) ** 2
        mean = max(0.36 * c + 0.64 * s, 0.64 * c + 0.36 * s)
        diagnostics = {}
        l_intf(coherent(0.8, 12), coherent(0.6, 12), spec, diagnostics)
        assert diagnostics["clipped_sector_mass"] == pytest.approx(poisson.sf(12, mean), rel=0.1)
        l_intf(coherent(0.8, 30), coherent(0.6, 30), spec, diagnostics)
        assert 0.0 < diagnostics["clipped_sector_mass"] < 1e-40

    @pytest.mark.filterwarnings("ignore::dipnesim.fock.LeakageWarning")
    @pytest.mark.parametrize("family", INTERFERENCE_FAMILIES)
    @pytest.mark.parametrize("cutoff", [30, 60, 120])
    def test_clipped_sector_mass_matches_clip_matrix(self, family, cutoff):
        # the suffix sum of p_e against the 0/1 clipped-sector matrix product,
        # on the default interference sweep's displaced inputs
        spec = GadgetSpec(math.pi / 5, math.pi / 10)
        fractions = np.linspace(0.0, 1.0, 21)
        core0, core1 = _interference_cores(family, cutoff)
        inputs0 = displacements(core0, 0, [math.sqrt(f) for f in fractions])
        inputs1 = displacements(core1, 0, [math.sqrt(1.0 - f) for f in fractions])
        for input0, input1 in zip(inputs0, inputs1):
            diagnostics = {}
            l_intf(input0, input1, spec, diagnostics)
            want = clipped_sector_mass(input0, input1, spec)
            assert diagnostics["clipped_sector_mass"] == pytest.approx(want, rel=1e-15, abs=0)

    def test_requires_single_mode_inputs(self):
        with pytest.raises(ValueError, match="single-mode"):
            l_intf(coherent_pair(0.1, 0.1, 4), coherent(0.1, 4), GadgetSpec(0.3, 0.2))
