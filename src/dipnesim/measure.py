"""Measurement statistics and decoding on truncated Fock states.

All probabilities are computed exactly from amplitudes; nothing is sampled.
Quadrature conventions: X = a + a+, P = -i(a - a+), so vacuum variance is 1
and a coherent state with real amplitude alpha has mean X of 2 alpha.

l_intf reads the interference gadget out factorised: each input is split
against its own vacuum erasure mode as a two-mode pure state, and each exit
photon count is a trace of two single-mode marginals against the cached
Heisenberg-picture number operator of the recombining beamsplitter, so no
4-mode vector is built.  circuits.interference_gadget, which builds the
dense 4-mode state, stays as the test oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuits import GadgetSpec, _bs_number_readout, _bs_vacuum_split, phase_shift
from .fock import (
    FockState,
    ModeLayout,
    apply_annihilation,
    inner,
    marginal_number_distribution,
)

# expectation comparisons treat differences below this as a tie
TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SubtractionOutcome:
    """Result of conditioning on a photon count in one mode.

    post_state is None when the measured mode was the only mode.
    """

    k: int
    probability: float
    post_state: FockState | None


class BitValue(Enum):
    ZERO = 0
    ONE = 1
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class BitDecode:
    """Decoded bit plus, for photon-number decoding, the per-shot split."""

    value: BitValue
    p_zero: float | None = None
    p_one: float | None = None
    p_undefined: float | None = None


def _require_normalized(state: FockState, tol: float = 1e-6) -> None:
    if not state.is_normalized(tol):
        raise ValueError(f"state must be normalized, norm is {state.norm():.8g}")


def joint_number_distribution(state: FockState, modes=None) -> np.ndarray:
    """Joint photon-number probabilities over the given modes (all by default).

    Returns an array with one axis per requested mode, in the order given;
    the remaining modes are traced out.
    """
    _require_normalized(state)
    n = state.layout.n_modes
    if modes is None:
        modes = tuple(range(n))
    modes = tuple(int(m) for m in modes)
    if len(set(modes)) != len(modes):
        raise ValueError(f"modes must be distinct, got {modes}")
    for m in modes:
        state.layout._check_mode(m)
    probs = np.abs(state.nd) ** 2
    keep = set(modes)
    trace_axes = tuple(ax for ax in range(n) if ax not in keep)
    if trace_axes:
        probs = probs.sum(axis=trace_axes)
    # axes currently in ascending mode order; permute into requested order
    order = [sorted(keep).index(m) for m in modes]
    return np.transpose(probs, order)


def measure_count(state: FockState, mode: int, k: int) -> SubtractionOutcome:
    """Condition on measuring exactly k photons in a mode.

    The measured mode is removed from the layout and the remaining amplitudes
    renormalized.  Raises when the outcome has no support.
    """
    state.layout._check_mode(mode)
    if not 0 <= k <= state.layout.cutoffs[mode]:
        raise ValueError(f"count {k} outside 0..{state.layout.cutoffs[mode]}")
    sel = [slice(None)] * state.layout.n_modes
    sel[mode] = k
    block = state.nd[tuple(sel)]
    probability = float(np.sum(np.abs(block) ** 2))
    if probability < 1e-300:
        raise ValueError(f"measuring {k} photons in mode {mode} has zero probability")
    if state.layout.n_modes == 1:
        return SubtractionOutcome(k, probability, None)
    post = FockState(
        state.layout.drop(mode), block.reshape(-1) / math.sqrt(probability), state.leakage
    )
    return SubtractionOutcome(k, probability, post)


def mean_quadrature(state: FockState, mode: int) -> tuple[float, float]:
    """Expectation pair (X, P) of one mode."""
    _require_normalized(state)
    a_expect = inner(state, apply_annihilation(state, mode))
    return 2.0 * a_expect.real, 2.0 * a_expect.imag


def _mean_and_var(state: FockState, mode: int) -> tuple[float, float]:
    dist = marginal_number_distribution(state, mode, _allow_unnormalized=True)
    n = np.arange(dist.size)
    mean = float(n @ dist)
    return mean, float((n * n) @ dist) - mean**2


def _compare(v0: float, v1: float) -> BitValue:
    if abs(v0 - v1) <= TIE_TOLERANCE:
        return BitValue.UNDEFINED
    return BitValue.ZERO if v0 > v1 else BitValue.ONE


def decode_dipne(state: FockState, mode0: int, mode1: int) -> BitDecode:
    """Photon-number bit decode: 0 when mode0 holds more photons on average.

    Also reports the per-shot split: the probability that a joint number
    measurement comes out n0 > n1, n1 > n0, or tied.
    """
    _require_normalized(state)
    value = _compare(state.mean_photons(mode0), state.mean_photons(mode1))
    joint = joint_number_distribution(state, (mode0, mode1))
    n0 = np.arange(joint.shape[0])[:, None]
    n1 = np.arange(joint.shape[1])[None, :]
    p_zero = float(joint[n0 > n1].sum())
    p_one = float(joint[n0 < n1].sum())
    p_undefined = float(np.trace(joint))
    return BitDecode(value, p_zero=p_zero, p_one=p_one, p_undefined=p_undefined)


def decode_dide(state: FockState, mode0: int, mode1: int) -> BitDecode:
    """Displacement bit decode: compares mean X quadratures."""
    x0, _ = mean_quadrature(state, mode0)
    x1, _ = mean_quadrature(state, mode1)
    return BitDecode(_compare(x0, x1))


def distinguishability(state: FockState, mode0: int, mode1: int) -> float:
    """|<n0> - <n1>| / sqrt(Var n0 + Var n1); +inf when both variances vanish."""
    _require_normalized(state)
    m0, v0 = _mean_and_var(state, mode0)
    m1, v1 = _mean_and_var(state, mode1)
    denom = math.sqrt(max(v0 + v1, 0.0))
    if denom == 0.0:
        return math.inf
    return abs(m0 - m1) / denom


def _split_marginals(state: FockState, erasure_cutoff: int, spec: GadgetSpec):
    """Reduced density matrices (system, erasure) of one input after its pickoff.

    The split B(s, e) acts on the input and its own vacuum erasure mode only,
    so the two-mode state after it, and after the optional pi phase, is pure.
    """
    layout = ModeLayout((state.layout.cutoffs[0], erasure_cutoff))
    idx, src, u = _bs_vacuum_split(*layout.dims, spec.theta_split)
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[idx] = u * state.amplitudes[src]
    pair = FockState(layout, amps)
    if spec.pi_shift:
        pair = phase_shift(pair, 1, math.pi)
    psi = pair.nd
    return np.einsum("ik,jk->ij", psi, psi.conj()), np.einsum("ki,kj->ij", psi, psi.conj())


def _clipped_mass(p_a: np.ndarray, p_b: np.ndarray) -> float:
    """Probability that a product of number distributions holds more photons
    than the smaller cutoff, i.e. sits in number sectors a cutoff clips."""
    clipped = np.add.outer(np.arange(p_a.size), np.arange(p_b.size)) >= min(p_a.size, p_b.size)
    return float(np.outer(p_a, p_b)[clipped].sum())


def l_intf(
    input0: FockState,
    input1: FockState,
    spec: GadgetSpec,
    diagnostics: dict | None = None,
) -> float:
    """Interference contribution to the photons sent to erasure.

    Defined by three runs of the gadget (both inputs, then each against
    vacuum): subtracting the single-occupancy losses cancels the base pickoff
    loss and leaves the displacement cross term.  The erasure modes get
    cutoff max(c0, c1).

    The gadget is read out factorised, never as a 4-mode vector.  The inputs
    are a product state and each split B(s_i, e_i) acts inside one factor,
    so the recombination B(s1, e0) sees rho_s1 (x) rho_e0, marginals of
    different factors, and the later B(s0, e1) does not touch e0.  B(s1, e0)
    leaves the reduced state rho_s0 (x) rho_e1 unchanged, so B(s0, e1) sees
    that product.  Each exit count is Tr[(rho_s (x) rho_e) B^dag n_e B]
    (circuits._bs_number_readout).  That trace is bilinear and zero on
    vacuum (x) vacuum, and a vacuum input splits into the exact vacuum V, so
    the three runs combine into Tr[((rho_s - V) (x) (rho_e - V)) B^dag n_e B]
    per recombination.  The dense circuits.interference_gadget is the test
    oracle for this readout.

    If ``diagnostics`` is given, its "clipped_sector_mass" entry is set to
    the largest probability that a recombination, in any of the three runs,
    places in number sectors clipped by a cutoff.
    """
    if input0.layout.n_modes != 1 or input1.layout.n_modes != 1:
        raise ValueError("l_intf expects single-mode inputs")
    erasure_cutoff = max(input0.layout.cutoffs[0], input1.layout.cutoffs[0])
    (sys0, era0), (sys1, era1) = (
        _split_marginals(state, erasure_cutoff, spec) for state in (input0, input1)
    )
    total = 0.0
    clipped = 0.0
    for rho_s, rho_e in ((sys1, era0), (sys0, era1)):
        ia, ib, h = _bs_number_readout(rho_s.shape[0], rho_e.shape[0], spec.theta_interfere)
        dev_s, dev_e = rho_s.copy(), rho_e.copy()
        dev_s[0, 0] -= 1.0
        dev_e[0, 0] -= 1.0
        total += float(np.sum(dev_s.ravel()[ia] * dev_e.ravel()[ib] * h).real)
        p_s, p_e = np.diagonal(rho_s).real, np.diagonal(rho_e).real
        vac_s, vac_e = np.zeros_like(p_s), np.zeros_like(p_e)
        vac_s[0] = vac_e[0] = 1.0
        for legs in ((p_s, p_e), (vac_s, p_e), (p_s, vac_e)):
            clipped = max(clipped, _clipped_mass(*legs))
    if diagnostics is not None:
        diagnostics["clipped_sector_mass"] = clipped
    return total
