"""Measurement statistics on truncated Fock states.

All probabilities are computed exactly from amplitudes; nothing is sampled.
Quadrature conventions: X = a + a+, P = -i(a - a+), so vacuum variance is 1
and a coherent state with real amplitude alpha has mean X of 2 alpha.

l_intf reads the interference gadget out factorised: each input is split
against its own vacuum erasure mode as a two-mode pure state, and each exit
photon count is a trace of two single-mode marginals against the cached
Heisenberg-picture number operator of the recombining beamsplitter, so no
4-mode vector is built.  The dense 4-mode gadget in tests/oracles.py is the
test oracle for it.
"""

from __future__ import annotations

import math

import numpy as np

from .circuits import GadgetSpec, _bs_number_readout, _bs_vacuum_split, phase_shift
from .fock import FockState, ModeLayout, apply_annihilation, inner


def _require_normalized(state: FockState, tol: float = 1e-6) -> None:
    if not state.is_normalized(tol):
        raise ValueError(f"state must be normalized, norm is {state.norm():.8g}")


def joint_number_distribution(state: FockState) -> np.ndarray:
    """Joint photon-number probabilities, one axis per mode in layout order."""
    _require_normalized(state)
    return np.abs(state.nd) ** 2


def mean_quadrature(state: FockState, mode: int) -> tuple[float, float]:
    """Expectation pair (X, P) of one mode."""
    _require_normalized(state)
    a_expect = inner(state, apply_annihilation(state, mode))
    return 2.0 * a_expect.real, 2.0 * a_expect.imag


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
    per recombination.  The dense 4-mode gadget in tests/oracles.py is the
    test oracle for this readout.

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
        dev_s, dev_e = rho_s.ravel().copy(), rho_e.ravel().copy()
        dev_s[0] -= 1.0
        dev_e[0] -= 1.0
        # 4096-entry slices: their 64 KiB gathers stay under glibc's 128 KiB mmap
        # threshold, so they reuse heap pages instead of faulting in new ones
        for lo in range(0, h.size, 4096):
            part = slice(lo, lo + 4096)
            total += float(np.sum(dev_s[ia[part]] * dev_e[ib[part]] * h[part]).real)
        p_s, p_e = np.diagonal(rho_s).real, np.diagonal(rho_e).real
        vac_s, vac_e = np.zeros_like(p_s), np.zeros_like(p_e)
        vac_s[0] = vac_e[0] = 1.0
        for legs in ((p_s, p_e), (vac_s, p_e), (p_s, vac_e)):
            clipped = max(clipped, _clipped_mass(*legs))
    if diagnostics is not None:
        diagnostics["clipped_sector_mass"] = clipped
    return total
