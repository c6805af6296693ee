"""Measurement statistics on truncated Fock states.

All probabilities are computed exactly from amplitudes; nothing is sampled.
Quadrature conventions: X = a + a+, P = -i(a - a+), so vacuum variance is 1
and a coherent state with real amplitude alpha has mean X of 2 alpha.

l_intf reads the interference gadget out factorised: each input is split
against its own vacuum erasure mode as a two-mode pure state, and each exit
photon count is a trace of two single-mode marginals against the cached
Heisenberg-picture number operator of the recombining beamsplitter
(circuits._number_trace), so no 4-mode vector is built.  The split is
the closed-form binomial of a beamsplitter with one vacuum port (Campos,
Saleh & Teich, Phys. Rev. A 40, 1371 (1989)), cached as a gather.  A call
costs one gather and two reduced-density products per input, and per
recombination one gather of each marginal's number-difference diagonals and
one batched product per run of diagonals.  The dense 4-mode gadget in
tests/oracles.py is the test oracle for it, and the flat gathers there for
the diagonal readout.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .circuits import GadgetSpec, _number_trace
from .fock import FockState


def _require_normalized(state: FockState, tol: float = 1e-6) -> None:
    if not state.is_normalized(tol):
        raise ValueError(f"state must be normalized, norm is {state.norm():.8g}")


def joint_number_distribution(state: FockState) -> np.ndarray:
    """Joint photon-number probabilities, one axis per mode in layout order."""
    _require_normalized(state)
    return np.abs(state.nd) ** 2


def mean_quadrature(state: FockState, mode: int) -> tuple[float, float]:
    """Expectation pair (X, P) = 2 (Re, Im) <a> of one mode, with
    <a> = sum_n sqrt(n + 1) <psi_n, psi_{n+1}> over the slices psi_n with n
    photons in the mode, read off the float64 view with no copy."""
    _require_normalized(state)
    rows = state._mode_rows(mode)
    lo, up = rows[:, :-1], rows[:, 1:]
    pairs_lo, pairs_up = lo.reshape(lo.shape[:2] + (-1, 2)), up.reshape(up.shape[:2] + (-1, 2))
    re = np.einsum("pnr,pnr->n", lo, up)
    im = np.einsum("pnr,pnr->n", pairs_lo[..., 0], pairs_up[..., 1]) - np.einsum("pnr,pnr->n", pairs_lo[..., 1], pairs_up[..., 0])
    weights = np.sqrt(np.arange(1.0, rows.shape[1]))
    return 2.0 * math.fsum((weights * re).tolist()), 2.0 * math.fsum((weights * im).tolist())


@lru_cache(maxsize=16)
def _vacuum_split(ds: int, de: int, theta: float):
    """B(theta) on (system state) (x) vacuum, as one gather: the binomial
    B(theta)|n, 0> = sum_b sqrt(C(n, b)) cos^{n-b}(theta) (i sin theta)^b |n - b, b>.
    It is the truncated beamsplitter exactly when de >= ds, since every
    sector n < ds is then whole.  For a system amplitude vector c, the
    ds x de output has flat amplitudes out.flat[idx] = u * c[src].  Returns
    read-only (idx, src, u).
    """
    if de < ds:
        raise ValueError(f"the erasure mode needs at least {ds} levels, got {de}")
    n, b = np.tril_indices(ds)
    mag = np.sqrt([float(math.comb(*nb)) for nb in zip(n.tolist(), b.tolist())])
    u = mag * np.power(math.cos(theta), n - b) * np.power(math.sin(theta), b) * np.array([1, 1j, -1, -1j])[b % 4]
    idx = (n - b) * de + b
    for arr in (idx, n, u):
        arr.setflags(write=False)
    return idx, n, u


def _split_marginals(state: FockState, erasure_cutoff: int, spec: GadgetSpec):
    """Reduced density matrices (system, erasure) of one input after its pickoff.

    The split B(s, e) acts on the input and its own vacuum erasure mode only,
    so the two-mode state after it is pure.  The optional pi phase on e,
    e^{i pi n_e}, turns (i sin theta)^b into (i sin(-theta))^b: the split at -theta.
    """
    ds, de = state.layout.dims[0], erasure_cutoff + 1
    idx, src, u = _vacuum_split(ds, de, -spec.theta_split if spec.pi_shift else spec.theta_split)
    psi = np.zeros(ds * de, dtype=np.complex128)
    psi[idx] = u * state.amplitudes[src]
    psi = psi.reshape(ds, de)
    return psi @ psi.conj().T, psi.T @ psi.conj()


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
    = Re sum_delta s_delta^T G_delta e_delta over the delta-th diagonals of
    the two marginals (circuits._number_trace).  That trace is bilinear and
    zero on vacuum (x) vacuum, and a vacuum input splits into the exact
    vacuum V, so the three runs combine into
    Tr[((rho_s - V) (x) (rho_e - V)) B^dag n_e B] per recombination.  The
    dense 4-mode gadget in tests/oracles.py is the test oracle for it.

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
        dev_s, dev_e = rho_s.copy(), rho_e.copy()
        dev_s[0, 0] -= 1.0
        dev_e[0, 0] -= 1.0
        total += _number_trace(dev_s, dev_e, spec.theta_interfere)
        # mass in clipped sectors of p_s (x) p_e and of vacuum (x) p_e, the
        # sectors n_s + n_e >= ds since de >= ds: clip_e[n] = P(n_e >= ds - n)
        # is a suffix sum of p_e; p_s (x) vacuum has none
        p_s, p_e = np.diagonal(rho_s).real, np.diagonal(rho_e).real
        tail = np.concatenate(([0.0], p_e[::-1])).cumsum()  # tail[k] = P(n_e >= de - k)
        clip_e = tail[p_e.size - p_s.size:-1]
        clipped = max(clipped, float(p_s @ clip_e), float(clip_e[0]))
    if diagnostics is not None:
        diagnostics["clipped_sector_mass"] = clipped
    return total
