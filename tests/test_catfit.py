"""Tests for squeezed-cat fitting.

Self-fits against exact family members pin the search machinery; kitten
fits check the fidelity and squeeze-fraction levels; the budget split
and determinism are exact assertions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipnesim.catfit import CatFitResult, fit_squeezed_cat
from dipnesim.fock import FockState, ModeLayout, basis_state, inner, vacuum_state
from dipnesim.kitten import KittenSpec, KittenState, kitten_direct
from dipnesim.states import CatSpec, Displacement, Squeeze, cat_state

THETA = math.pi / 5


def wrap(state: FockState, budget: float) -> KittenState:
    return KittenState(state, math.nan, budget)


class TestSelfFit:
    @pytest.mark.parametrize("alpha,r,phi", [
        (1.2, 0.35, 0.0),
        (1.5, 0.30, math.pi),
        (2.0, 0.15, 0.0),
    ])
    def test_exact_family_member_recovered(self, alpha, r, phi):
        cat = cat_state(CatSpec(Displacement(alpha), phi, Squeeze(r, math.pi)), 80)
        budget = alpha**2 + math.sinh(r) ** 2
        res = fit_squeezed_cat(wrap(cat, budget))
        assert res.fidelity >= 1.0 - 1e-9
        assert res.squeeze_fraction == pytest.approx(
            math.sinh(r) ** 2 / budget, abs=1e-4
        )
        assert res.phi == phi

    def test_plain_cat_recovered(self):
        alpha = 1.4
        cat = cat_state(CatSpec(Displacement(alpha), math.pi, Squeeze(0.0, 0.0)), 80)
        assert fit_squeezed_cat(wrap(cat, alpha**2)).plain_cat_fidelity >= 1.0 - 1e-9

    def test_squeezed_vacuum_pushes_fraction_to_one(self):
        kit = kitten_direct(KittenSpec(5.0, THETA, 0, 80))
        res = fit_squeezed_cat(kit)
        assert res.fidelity >= 1.0 - 1e-9
        assert res.squeeze_fraction == pytest.approx(1.0, abs=1e-6)
        assert res.alpha == 0.0


class TestKittenFits:
    def test_single_subtraction_level(self):
        kit = kitten_direct(KittenSpec(10.0, THETA, 1, 140))
        res = fit_squeezed_cat(kit)
        assert res.infidelity < 0.02
        assert res.squeeze_fraction < 0.10
        assert res.phi == math.pi

    def test_triple_subtraction_level(self):
        kit = kitten_direct(KittenSpec(10.0, THETA, 3, 140))
        res = fit_squeezed_cat(kit)
        assert res.infidelity < 0.005
        assert res.squeeze_fraction < 0.05

    def test_plain_cat_level(self):
        kit = kitten_direct(KittenSpec(10.0, THETA, 3, 140))
        plain = fit_squeezed_cat(kit).plain_cat_fidelity
        assert 0.85 < plain < 0.95

    def test_plain_never_beats_family_best(self):
        kit = kitten_direct(KittenSpec(8.0, THETA, 2, 120))
        res = fit_squeezed_cat(kit)
        assert res.fidelity >= res.plain_cat_fidelity - 1e-12
        # the plain cat spends the whole photon budget on displacement
        plain = cat_state(
            CatSpec(Displacement(math.sqrt(kit.mean_photons)), 0.0, Squeeze(0.0, math.pi)),
            kit.state.layout,
        )
        assert res.plain_cat_fidelity == pytest.approx(
            abs(inner(kit.state, plain)) ** 2 / plain.norm() ** 2, abs=1e-14
        )

    def test_even_parity_detected(self):
        kit = kitten_direct(KittenSpec(10.0, THETA, 2, 120))
        assert fit_squeezed_cat(kit).phi == 0.0


class TestContract:
    def test_budget_split_exact(self):
        kit = kitten_direct(KittenSpec(10.0, THETA, 3, 140))
        res = fit_squeezed_cat(kit)
        assert res.alpha**2 + math.sinh(res.r) ** 2 == pytest.approx(
            kit.mean_photons, rel=1e-12
        )
        assert res.infidelity == 1.0 - res.fidelity

    def test_deterministic(self):
        kit = kitten_direct(KittenSpec(6.0, THETA, 2, 100))
        assert fit_squeezed_cat(kit) == fit_squeezed_cat(kit)

    def test_global_phase_invariant(self):
        kit = kitten_direct(KittenSpec(10.0, THETA, 3, 140))
        rotated = FockState(
            kit.state.layout, kit.state.amplitudes * np.exp(0.7j)
        )
        res_a = fit_squeezed_cat(wrap(rotated, kit.mean_photons))
        res_b = fit_squeezed_cat(kit)
        assert res_a.squeeze_fraction == res_b.squeeze_fraction
        assert res_a.fidelity == pytest.approx(res_b.fidelity, abs=1e-13)

    def test_accepts_bare_state(self):
        kit = kitten_direct(KittenSpec(6.0, THETA, 1, 100))
        res = fit_squeezed_cat(kit.state)
        # the bare-state path derives the budget from the state itself
        assert res.infidelity < 0.02

    def test_result_type(self):
        kit = kitten_direct(KittenSpec(4.0, THETA, 1, 80))
        assert isinstance(fit_squeezed_cat(kit), CatFitResult)


class TestErrors:
    def test_vacuum_rejected(self):
        with pytest.raises(ValueError, match="zero-photon"):
            fit_squeezed_cat(vacuum_state(ModeLayout((30,))))

    def test_mixed_parity_rejected(self):
        layout = ModeLayout((30,))
        mixed = FockState(
            layout,
            (basis_state(layout, (0,)).amplitudes
             + basis_state(layout, (1,)).amplitudes) / math.sqrt(2.0),
        )
        with pytest.raises(ValueError, match="parity"):
            fit_squeezed_cat(mixed)

    def test_multimode_rejected(self):
        with pytest.raises(ValueError, match="single-mode"):
            fit_squeezed_cat(vacuum_state(ModeLayout((5, 5))))

    def test_plain_cat_zero_photon_rejected(self):
        with pytest.raises(ValueError, match="zero-photon"):
            fit_squeezed_cat(vacuum_state(ModeLayout((30,)))).plain_cat_fidelity


class TestKittenProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        photons=st.floats(min_value=1.0, max_value=12.0),
        k=st.integers(min_value=0, max_value=5),
    )
    def test_fidelity_order_and_parity(self, photons, k):
        cutoff = math.ceil(21.0 * (photons + 1.0))
        res = fit_squeezed_cat(kitten_direct(KittenSpec(photons, THETA, k, cutoff)))
        assert 0.0 <= res.plain_cat_fidelity <= res.fidelity <= 1.0 + 1e-12
        assert res.phi == (math.pi if k % 2 else 0.0)
