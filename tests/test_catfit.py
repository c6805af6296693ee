"""Tests for squeezed-cat fitting.

Self-fits against exact family members pin the search machinery; kitten
fits check the fidelity and squeeze-fraction levels; the budget split
and determinism are exact assertions.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipnesim import catfit
from dipnesim.analytics import antisqueezed_kitten
from dipnesim.catfit import (
    GRID_POINTS,
    S_TOLERANCE,
    CatFitResult,
    _budget_split,
    _parity_phase,
    _row_fidelities,
    fit_squeezed_cat,
    fit_squeezed_cats,
    kitten_target,
)
from dipnesim.experiments import make_config, run_experiment
from dipnesim.fock import FockState, LeakageWarning, ModeLayout, basis_state, inner, vacuum_state
from dipnesim.kitten import KittenSpec, KittenState, kitten_direct
from dipnesim.states import Squeeze, _cat_norms_squared, _parity_filter
from oracles import (
    CatSpec,
    _family_fidelities,
    _unwrap,
    cat_norm_squared,
    cat_state,
    fit_target,
    kitten_series,
    squeezed_coherent_batch,
)

THETA = math.pi / 5
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# (alpha, r, phi) of exact family members
FAMILY_MEMBERS = [(1.2, 0.35, 0.0), (1.5, 0.30, math.pi), (2.0, 0.15, 0.0)]


def wrap(state: FockState, budget: float) -> KittenState:
    return KittenState(state, math.nan, budget)


def member(alpha: float, r: float, phi: float) -> KittenState:
    cat = cat_state(CatSpec(alpha, phi, Squeeze(r, math.pi)), 80)
    return wrap(cat, alpha**2 + math.sinh(r) ** 2)


def serial_family_fidelity(target: FockState, total: float, phi: float, s: float) -> float:
    """Fidelity of the candidate at fraction s, built alone by cat_state."""
    alpha, r = _budget_split(s, total, phi)
    spec = CatSpec(alpha, phi, Squeeze(r, math.pi))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LeakageWarning)
        cand = cat_state(spec, target.layout)
    return float(abs(inner(target, cand)) ** 2 / cand.norm() ** 2)


def serial_fit(kitten) -> CatFitResult:
    """Reference fit: one cat_state probe per fraction, a 64-point grid and
    then golden-section refinement to S_TOLERANCE (88 probes in all)."""
    target, total = _unwrap(kitten)
    phi = _parity_phase(target)

    def objective(s: float) -> float:
        return serial_family_fidelity(target, total, phi, s)

    grid = np.linspace(0.0, 1.0, 64)
    values = [objective(float(s)) for s in grid]
    best = int(np.argmax(values))
    best_s, best_f = float(grid[best]), values[best]
    plain = values[0]

    a, b = float(grid[max(best - 1, 0)]), float(grid[min(best + 1, 63)])
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > S_TOLERANCE:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = objective(d)
        if max(fc, fd) > best_f:
            if fc > fd:
                best_f, best_s = fc, c
            else:
                best_f, best_s = fd, d

    alpha, r = _budget_split(best_s, total, phi)
    return CatFitResult(best_f, 1.0 - best_f, best_s, alpha, r, phi, plain)


class TestSelfFit:
    @pytest.mark.parametrize("alpha,r,phi", FAMILY_MEMBERS)
    def test_exact_family_member_recovered(self, alpha, r, phi):
        kit = member(alpha, r, phi)
        res = fit_squeezed_cat(fit_target(kit))
        assert res.fidelity >= 1.0 - 1e-9
        assert res.squeeze_fraction == pytest.approx(
            math.sinh(r) ** 2 / kit.mean_photons, abs=1e-4
        )
        assert res.phi == phi

    def test_plain_cat_recovered(self):
        alpha = 1.4
        cat = cat_state(CatSpec(alpha, math.pi, Squeeze(0.0, 0.0)), 80)
        assert fit_squeezed_cat(fit_target(wrap(cat, alpha**2))).plain_cat_fidelity >= 1.0 - 1e-9

    def test_squeezed_vacuum_pushes_fraction_to_one(self):
        kit = kitten_direct(KittenSpec(5.0, THETA, 0, 80))
        res = fit_squeezed_cat(fit_target(kit))
        assert res.fidelity >= 1.0 - 1e-9
        assert res.squeeze_fraction == pytest.approx(1.0, abs=1e-6)
        assert res.alpha == 0.0


class TestKittenFits:
    def test_single_subtraction_level(self):
        kit = kitten_direct(KittenSpec(10.0, THETA, 1, 140))
        res = fit_squeezed_cat(fit_target(kit))
        assert res.infidelity < 0.02
        assert res.squeeze_fraction < 0.10
        assert res.phi == math.pi

    def test_triple_subtraction_level(self):
        kit = kitten_direct(KittenSpec(10.0, THETA, 3, 140))
        res = fit_squeezed_cat(fit_target(kit))
        assert res.infidelity < 0.005
        assert res.squeeze_fraction < 0.05

    def test_plain_cat_level(self):
        kit = kitten_direct(KittenSpec(10.0, THETA, 3, 140))
        plain = fit_squeezed_cat(fit_target(kit)).plain_cat_fidelity
        assert 0.85 < plain < 0.95

    def test_plain_never_beats_family_best(self):
        kit = kitten_direct(KittenSpec(8.0, THETA, 2, 120))
        res = fit_squeezed_cat(fit_target(kit))
        assert res.fidelity >= res.plain_cat_fidelity - 1e-12
        # the plain cat spends the whole photon budget on displacement
        plain = cat_state(
            CatSpec(math.sqrt(kit.mean_photons), 0.0, Squeeze(0.0, math.pi)),
            kit.state.layout,
        )
        assert res.plain_cat_fidelity == pytest.approx(
            abs(inner(kit.state, plain)) ** 2 / plain.norm() ** 2, abs=1e-14
        )

    def test_even_parity_detected(self):
        kit = kitten_direct(KittenSpec(10.0, THETA, 2, 120))
        assert fit_squeezed_cat(fit_target(kit)).phi == 0.0


class TestContract:
    def test_budget_split_exact(self):
        kit = kitten_direct(KittenSpec(10.0, THETA, 3, 140))
        res = fit_squeezed_cat(fit_target(kit))
        assert res.alpha**2 + math.sinh(res.r) ** 2 == pytest.approx(
            kit.mean_photons, rel=1e-12
        )
        assert res.infidelity == 1.0 - res.fidelity

    def test_deterministic(self):
        kit = kitten_direct(KittenSpec(6.0, THETA, 2, 100))
        assert fit_squeezed_cat(fit_target(kit)) == fit_squeezed_cat(fit_target(kit))

    def test_bitwise_repeatable_at_production_cutoff(self):
        kit = kitten_direct(KittenSpec(10.0, THETA, 3, 1000))
        first, second = fit_squeezed_cat(fit_target(kit)), fit_squeezed_cat(fit_target(kit))
        assert [v.hex() for v in dataclasses.astuple(first)] == [
            v.hex() for v in dataclasses.astuple(second)
        ]

    def test_global_phase_invariant(self):
        kit = kitten_direct(KittenSpec(10.0, THETA, 3, 140))
        rotated = FockState(
            kit.state.layout, kit.state.amplitudes * np.exp(0.7j)
        )
        res_a = fit_squeezed_cat(fit_target(wrap(rotated, kit.mean_photons)))
        res_b = fit_squeezed_cat(fit_target(kit))
        assert res_a.squeeze_fraction == res_b.squeeze_fraction
        assert res_a.fidelity == pytest.approx(res_b.fidelity, abs=1e-13)

    def test_accepts_bare_state(self):
        kit = kitten_direct(KittenSpec(6.0, THETA, 1, 100))
        res = fit_squeezed_cat(kit.state)
        # the bare-state path derives the budget from the state itself
        assert res.infidelity < 0.02

    def test_result_type(self):
        kit = kitten_direct(KittenSpec(4.0, THETA, 1, 80))
        assert isinstance(fit_squeezed_cat(fit_target(kit)), CatFitResult)


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

    def test_underflowing_candidate_rejected(self):
        # the s = 0 candidate, a plain cat of alpha = 40, starts its
        # recurrence at exp(-800) and underflows to the zero vector
        cat = cat_state(CatSpec(20.0, 0.0, Squeeze(0.05, math.pi)), 2600)
        with pytest.raises(ValueError, match="squeeze fraction 0 of a 1600-photon budget"):
            fit_squeezed_cat(fit_target(wrap(cat, 1600.0)))


class TestKittenProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        photons=st.floats(min_value=1.0, max_value=12.0),
        k=st.integers(min_value=0, max_value=5),
    )
    def test_fidelity_order_and_parity(self, photons, k):
        cutoff = math.ceil(21.0 * (photons + 1.0))
        res = fit_squeezed_cat(fit_target(kitten_direct(KittenSpec(photons, THETA, k, cutoff))))
        assert 0.0 <= res.plain_cat_fidelity <= res.fidelity <= 1.0 + 1e-12
        assert res.phi == (math.pi if k % 2 else 0.0)


ORACLE_KITTENS = [(photons, k) for photons in (1.0, 10.0, 20.0) for k in (0, 1, 3, 9)]


class TestClosedForm:
    """kitten_target's S(R) c form against the cutoff-length recurrence."""

    @pytest.mark.parametrize(
        "photons, k",
        [(p, k) for p in (1.0, 10.0, 20.0, math.inf) for k in (0, 1, 2, 3, 5, 9) if k or p < math.inf],
    )
    def test_photons_match_kitten_direct(self, photons, k):
        # against the log-series oracle, since kitten_direct reads the same closed form
        spec = KittenSpec(photons, THETA, k, 1000)
        want = kitten_series(spec).mean_photons
        assert kitten_target(spec).photons == pytest.approx(want, rel=1e-13, abs=0.0)

    @settings(max_examples=20, deadline=None)
    @given(
        photons=st.one_of(st.just(math.inf), st.floats(min_value=1.0, max_value=20.0)),
        k=st.integers(min_value=0, max_value=9),
        theta=st.floats(min_value=math.pi / 5, max_value=math.pi / 4),
        rho=st.floats(min_value=-1.0, max_value=1.2),
    )
    def test_grid_matches_recurrence_oracle(self, photons, k, theta, rho):
        spec = KittenSpec(photons, theta, k, 300)
        target = kitten_target(spec, rho)
        # s <= 0.3, and at most 20 squeezing photons: at k = 9, rho = 1.2
        # the budget reaches ~200 photons and 0.3 of it in squeezing leaves
        # up to 3e-8 beyond cutoff 3000, where the oracle is no oracle
        ss = np.linspace(0.0, min(0.3, 20.0 / target.photons), 16)
        got = _row_fidelities([target], ss[None])[0]
        fock = antisqueezed_kitten(spec, rho, 3000)
        want = _family_fidelities([fock], [target.photons], [target.phi], ss[None])[0]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        # the candidates' mass beyond the oracle's cutoff, read off 6000 levels
        alphas, rs = _budget_split(ss, target.photons, target.phi)
        wide = squeezed_coherent_batch(alphas, rs, math.pi, 6001) * _parity_filter(target.phi, 6001)
        norms = [cat_norm_squared(CatSpec(a, target.phi, Squeeze(r, math.pi))) for a, r in zip(alphas, rs)]
        assert np.max(np.sum(np.abs(wide[:, 3001:]) ** 2, axis=1) / norms) < 1e-14

    def test_batch_advances_only_k_max_plus_one_levels(self, monkeypatch):
        levels = []
        real = catfit._squeezed_coherent_levels

        def spy(alphas, rs, dim):
            levels.append(0)
            for level in real(alphas, rs, dim):
                levels[-1] += 1
                yield level

        monkeypatch.setattr(catfit, "_squeezed_coherent_levels", spy)
        spec = KittenSpec(10.0, THETA, 0, 1000)
        targets = [kitten_target(dataclasses.replace(spec, k=k), rho) for k, rho in [(1, 0.0), (9, 0.5), (4, -0.3)]]
        fit_squeezed_cats(targets)
        assert levels and set(levels) == {10}


class TestSerialOracle:
    """The batched fit against one cat_state probe per fraction."""

    @pytest.mark.parametrize(
        "case",
        [("kitten", photons, k) for photons, k in ORACLE_KITTENS]
        + [("member",) + m for m in FAMILY_MEMBERS],
        ids=[f"kitten-S{photons:g}-k{k}" for photons, k in ORACLE_KITTENS]
        + [f"member-{a}-{r}-{phi:.3g}" for a, r, phi in FAMILY_MEMBERS],
    )
    def test_matches_serial_fit(self, case):
        if case[0] == "kitten":
            kit = kitten_direct(KittenSpec(case[1], THETA, case[2], 1000))
        else:
            kit = member(*case[1:])
        got, want = fit_squeezed_cat(fit_target(kit)), serial_fit(kit)
        assert abs(got.fidelity - want.fidelity) <= 1e-11
        assert abs(got.squeeze_fraction - want.squeeze_fraction) <= 1e-6
        assert got.phi == want.phi
        assert abs(got.plain_cat_fidelity - want.plain_cat_fidelity) <= 1e-13

    @pytest.mark.parametrize("k", [2, 3])
    def test_grid_fidelities_match_cat_state(self, k):
        kit = kitten_direct(KittenSpec(10.0, THETA, k, 140))
        target, total = _unwrap(kit)
        phi = _parity_phase(target)
        grid = np.linspace(0.0, 1.0, 64)
        got = _family_fidelities([target], [total], [phi], grid[None])[0]
        want = [serial_family_fidelity(target, total, phi, float(s)) for s in grid]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def hexes(fit: CatFitResult) -> list[str]:
    return [v.hex() for v in dataclasses.astuple(fit)]


class TestLockstep:
    """A lockstep fit of many kittens against one fit per kitten."""

    def test_matches_single_fits_bit_for_bit(self):
        kits = [
            kitten_direct(KittenSpec(photons, THETA, k, cutoff))
            for photons, k, cutoff in [
                (1.0, 0, 140), (10.0, 1, 300), (20.0, 3, 1000), (4.0, 2, 140),
                (10.0, 9, 300), (1.0, 1, 60), (20.0, 0, 1000), (7.5, 4, 200),
            ]
        ]
        rotated = FockState(kits[3].state.layout, kits[3].state.amplitudes * np.exp(0.7j))
        targets = [fit_target(kit) for kit in kits + [member(*FAMILY_MEMBERS[1])]] + [rotated]
        lockstep = fit_squeezed_cats(targets)
        assert len(lockstep) == len(targets)
        for got, target in zip(lockstep, targets):
            assert hexes(got) == hexes(fit_squeezed_cat(target))

    def test_empty_batch(self):
        assert fit_squeezed_cats([]) == []

    def test_sweep_with_zero_photon_points_matches_single_fits(self):
        # the zero-squeezing points herald nothing and are fitted by no one;
        # every other row must carry its own kitten's fit
        cfg = make_config(
            "catfit",
            {"squeeze_min": 2, "squeeze_max": 6, "squeeze_steps": 3,
             "k_list": "0,1,2,5", "cutoff": 150},
        )
        table = run_experiment(cfg)
        assert len(table.rows) == 12
        kitten_table = run_experiment(
            make_config(
                "kitten",
                {"squeeze_min": 0, "squeeze_max": 6, "squeeze_steps": 4,
                 "k_list": "0,1,2,5", "cutoff": 150},
            )
        )
        kitten_rows = {(r[0], r[1]): r for r in kitten_table.rows}
        for row in table.rows:
            photons, k = row[0], row[1]
            fit = fit_squeezed_cat(kitten_target(KittenSpec(photons, THETA, k, 150)))
            assert row[2:] == (
                fit.fidelity, fit.plain_cat_fidelity, fit.squeeze_fraction,
                fit.alpha, fit.r, fit.phi,
            )
            assert kitten_rows[(photons, k)][4:] == (
                fit.infidelity, 1.0 - fit.plain_cat_fidelity, fit.squeeze_fraction,
            )
        assert kitten_rows[(0.0, 0)][2] == 1.0
        assert math.isnan(kitten_rows[(0.0, 5)][4])

    def test_memory_grows_with_rows_not_rows_times_dim(self):
        kits = [
            kitten_direct(KittenSpec(1.0 + 0.5 * i, THETA, 1 + i % 9, 1000))
            for i in range(100)
        ]
        stored_bytes = len(kits) * GRID_POINTS * kits[0].state.layout.dim * 16
        assert stored_bytes > 100e6
        targets = [fit_target(kit) for kit in kits]
        tracemalloc.start()
        try:
            fits = fit_squeezed_cats(targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fits) == 100
        assert peak < 16e6

    def test_underflow_names_failing_target(self):
        # the second target's s = 0 candidate, a plain cat of alpha = 40,
        # starts its recurrence at exp(-800) and underflows
        cat = cat_state(CatSpec(20.0, 0.0, Squeeze(0.05, math.pi)), 2600)
        good = kitten_direct(KittenSpec(10.0, THETA, 3, 140))
        with pytest.raises(
            ValueError, match="squeeze fraction 0 of a 1600-photon budget .* at cutoff 2600"
        ):
            fit_squeezed_cats([fit_target(good), fit_target(wrap(cat, 1600.0))])

    def test_degenerate_check_text_matches_cat_state(self):
        spec = CatSpec(0.0, math.pi, Squeeze(0.0, math.pi))
        with pytest.raises(ValueError) as want:
            cat_state(spec, 20)
        with pytest.raises(ValueError) as norm:
            cat_norm_squared(spec)
        assert str(norm.value) == str(want.value)
        alphas = np.array([[1.0, 0.0], [2.0, 1.5]])
        with pytest.raises(ValueError) as got:
            _cat_norms_squared(alphas, np.zeros((2, 2)), math.pi, np.array([[math.pi], [0.0]]))
        assert str(got.value) == str(want.value)
        _cat_norms_squared(alphas, np.zeros((2, 2)), math.pi, np.array([[0.0], [0.0]]))
