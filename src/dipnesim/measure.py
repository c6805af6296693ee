"""Measurement statistics on truncated Fock states.

All probabilities are computed exactly from amplitudes; nothing is sampled.
Quadrature conventions: X = a + a+, P = -i(a - a+), so vacuum variance is 1
and a coherent state with real amplitude alpha has mean X of 2 alpha.

l_intf reads the interference gadget out factorised: each input is split
against its own vacuum erasure mode as a two-mode pure state, and each exit
photon count is a trace of two single-mode marginals against the cached
Heisenberg-picture number operator of the recombining beamsplitter, so no
4-mode vector is built.  Both cached gathers (circuits._bs_vacuum_split and
circuits._bs_number_readout) come from the beamsplitter's sector plan, so a
call costs two gathers, two reduced-density products per input and one
trace per recombination.  The dense 4-mode gadget in tests/oracles.py is the
test oracle for it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .circuits import GadgetSpec, _bs_number_readout, _bs_vacuum_split
from .fock import FockState, apply_annihilation, inner


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
    so the two-mode state after it is pure.  The optional pi phase on e is
    e^{i pi n}: a sign flip of the odd erasure columns.
    """
    ds, de = state.layout.dims[0], erasure_cutoff + 1
    idx, src, u = _bs_vacuum_split(ds, de, spec.theta_split)
    psi = np.zeros(ds * de, dtype=np.complex128)
    psi[idx] = u * state.amplitudes[src]
    psi = psi.reshape(ds, de)
    if spec.pi_shift:
        psi[:, 1::2] *= -1.0
    return psi @ psi.conj().T, psi.T @ psi.conj()


@lru_cache(maxsize=16)
def _clip_matrix(ds: int, de: int) -> np.ndarray:
    """0/1 matrix of the (n_s, n_e) pairs in number sectors a cutoff clips:
    n_s + n_e >= min(ds, de)."""
    clip = (np.add.outer(np.arange(ds), np.arange(de)) >= min(ds, de)).astype(np.float64)
    clip.setflags(write=False)
    return clip


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
        # mass in clipped sectors of p_s (x) p_e and of each against vacuum
        p_s, p_e = np.diagonal(rho_s).real, np.diagonal(rho_e).real
        clip = _clip_matrix(p_s.size, p_e.size)
        clip_e = clip @ p_e
        clipped = max(clipped, float(p_s @ clip_e), float(clip_e[0]), float(p_s @ clip[:, 0]))
    if diagnostics is not None:
        diagnostics["clipped_sector_mass"] = clipped
    return total
