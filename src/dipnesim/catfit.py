"""Fitting heralded kittens against squeezed-cat targets.

The candidate family at total photon budget N splits the budget by a
squeeze fraction s in [0, 1]: sinh^2 r = s N photons from squeezing and
alpha^2 = (1 - s) N from displacement, the cat phase fixed by the
input's parity.  The fit maximizes fidelity over s; s = 0 is the plain
(unsqueezed) cat of the same budget.  Candidates are built in batches:
one broadcast Fock-amplitude recurrence evaluates a whole set of
fractions at once (the parameter-batched recursion of Miatto & Quesada,
Quantum 4, 366 (2020)), so a fit costs five recurrences.

The budget is deliberately the component-level split, not the mean
photon number of the normalized superposition.  The parity cross term
makes the two differ at small alpha, and under the normalized-mean
convention the odd family boundary alpha -> 0 is a squeezed single
photon, which IS the k = 1 kitten exactly; the fit would then collapse
to fidelity 1 at a large squeeze fraction for every k = 1 input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockState
from .kitten import KittenState
from .states import (
    CatSpec,
    Displacement,
    Squeeze,
    _checked_norm_squared,
    _parity_filter,
    _squeezed_coherent_batch,
)

# absolute tolerance of the fraction search
S_TOLERANCE = 1e-6

# stand-in for alpha = 0 where the odd cat degenerates; the family's
# s -> 1 limit state S|1> is approached through a vanishing displacement
ALPHA_FLOOR = 1e-12

# fractions on the initial grid, and per refinement round; a round shrinks
# the bracket (the argmax's two neighbours) by (ROUND_POINTS - 1) / 2
GRID_POINTS = 64
ROUND_POINTS = 33


@dataclass(frozen=True)
class CatFitResult:
    fidelity: float
    infidelity: float
    squeeze_fraction: float
    alpha: float
    r: float
    phi: float
    plain_cat_fidelity: float


def _unwrap(kitten) -> tuple[FockState, float]:
    """Accept a KittenState or a bare FockState; return (state, N)."""
    if isinstance(kitten, KittenState):
        return kitten.state, kitten.mean_photons
    state = kitten
    weights = np.abs(state.amplitudes) ** 2
    mean = float(np.arange(state.layout.dim) @ weights / weights.sum())
    return state, mean


def _parity_phase(state: FockState) -> float:
    """0 for even support, pi for odd; mixed parity is rejected."""
    weights = np.abs(state.amplitudes) ** 2
    even = weights[0::2].sum()
    odd = weights[1::2].sum()
    if min(even, odd) > 1e-10 * (even + odd):
        raise ValueError("input must have definite photon-number parity")
    return 0.0 if even >= odd else math.pi


def _budget_split(s: float, total: float, phi: float) -> tuple[float, float]:
    """(alpha, r) placing s of the photon budget in squeezing."""
    r = math.asinh(math.sqrt(s * total))
    alpha = math.sqrt(max((1.0 - s) * total, 0.0))
    if alpha == 0.0 and phi:
        alpha = ALPHA_FLOOR
    return alpha, r


def _family_fidelities(
    target: FockState, total: float, phi: float, ss: np.ndarray
) -> np.ndarray:
    """Fidelities of the budget-split candidates at every fraction in ss.

    One broadcast recurrence builds all candidates.  Each is renormalized
    within the truncated space before the overlap is squared, so
    hard-truncating candidates stay comparable; a candidate with no
    finite, nonzero mass left in the space is an error, not a zero.
    """
    dim = target.layout.dim
    splits = [_budget_split(float(s), total, phi) for s in ss]
    for alpha, r in splits:  # the degenerate-cat check cat_state makes
        _checked_norm_squared(CatSpec(Displacement(alpha), phi, Squeeze(r, math.pi)))
    alphas, rs = zip(*splits)
    cands = _squeezed_coherent_batch(alphas, rs, math.pi, dim)
    cands *= _parity_filter(phi, dim)
    overlaps = np.einsum("j,ij->i", np.conj(target.amplitudes), cands)
    norms = np.einsum("ij,ij->i", cands.real, cands.real) + np.einsum(
        "ij,ij->i", cands.imag, cands.imag
    )
    bad = ~(np.isfinite(norms) & (norms > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"squeezed-cat candidate at squeeze fraction {ss[i]:.6g} of a "
            f"{total:.6g}-photon budget has truncated norm^2 {norms[i]:.3g} "
            f"at cutoff {dim - 1}: its amplitudes under- or overflow"
        )
    return (overlaps.real**2 + overlaps.imag**2) / norms


def fit_squeezed_cat(kitten) -> CatFitResult:
    """Best squeezed-cat approximation at the kitten's photon number.

    Accepts a KittenState or a normalized single-mode FockState with
    definite parity.  The fraction search evaluates a 64-point grid, then
    refines in rounds of 33 points spread over the argmax's neighbours
    until the bracket is at most S_TOLERANCE wide (four rounds); every
    round is one broadcast recurrence.  Exact inner products throughout,
    so repeated runs are bit-identical.
    """
    target, total = _unwrap(kitten)
    if target.layout.n_modes != 1:
        raise ValueError("fit expects a single-mode state")
    if total <= 0.0:
        raise ValueError("cannot fit a zero-photon input")
    phi = _parity_phase(target)

    ss = np.linspace(0.0, 1.0, GRID_POINTS)
    values = _family_fidelities(target, total, phi, ss)
    plain = float(values[0])
    best = int(np.argmax(values))
    best_s, best_f = float(ss[best]), float(values[best])
    while True:
        a, b = ss[max(best - 1, 0)], ss[min(best + 1, len(ss) - 1)]
        if b - a <= S_TOLERANCE:
            break
        ss = np.linspace(a, b, ROUND_POINTS)
        values = _family_fidelities(target, total, phi, ss)
        best = int(np.argmax(values))
        if values[best] > best_f:
            best_s, best_f = float(ss[best]), float(values[best])

    alpha, r = _budget_split(best_s, total, phi)
    return CatFitResult(
        fidelity=best_f,
        infidelity=1.0 - best_f,
        squeeze_fraction=best_s,
        alpha=alpha,
        r=r,
        phi=phi,
        plain_cat_fidelity=plain,
    )

