"""Fitting heralded kittens against squeezed-cat targets.

The candidate family at total photon budget N splits the budget by a
squeeze fraction s in [0, 1]: sinh^2 r = s N photons from squeezing and
alpha^2 = (1 - s) N from displacement, the cat phase fixed by the
input's parity.  The fit maximizes fidelity over s; s = 0 is the plain
(unsqueezed) cat of the same budget.  Candidates are built in lockstep:
one Fock-amplitude recurrence evaluates every (target, fraction) row of
a whole sweep of fits at once (the parameter-batched recursion of
Miatto & Quesada, Quantum 4, 366 (2020)), so a sweep costs five
recurrences, however many kittens it fits.  The recurrence folds its
amplitudes into the overlaps a tile of levels at a time and never holds
a (rows, dim) candidate array.

The budget is deliberately the component-level split, not the mean
photon number of the normalized superposition.  The parity cross term
makes the two differ at small alpha, and under the normalized-mean
convention the odd family boundary alpha -> 0 is a squeezed single
photon, which IS the k = 1 kitten exactly; the fit would then collapse
to fidelity 1 at a large squeeze fraction for every k = 1 input.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import FockState
from .kitten import KittenState
from .states import _parity_filter

# absolute tolerance of the fraction search
S_TOLERANCE = 1e-6

# stand-in for alpha = 0 where the odd cat degenerates; the family's
# s -> 1 limit state S|1> is approached through a vanishing displacement
ALPHA_FLOOR = 1e-12

# fractions on the initial grid, and per refinement round; a round shrinks
# the bracket (the argmax's two neighbours) by (ROUND_POINTS - 1) / 2
GRID_POINTS = 64
ROUND_POINTS = 33

# levels the lockstep recurrence holds before folding them into the sums
TILE = 64


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


def _budget_split(s, total, phi):
    """(alpha, r) placing s of the photon budget in squeezing; broadcasts
    over arrays of fractions, budgets and phases."""
    s, total, phi = np.asarray(s, float), np.asarray(total, float), np.asarray(phi, float)
    r = np.arcsinh(np.sqrt(s * total))
    alpha = np.sqrt(np.maximum((1.0 - s) * total, 0.0))
    return np.where((alpha == 0.0) & (phi != 0.0), ALPHA_FLOOR, alpha), r


def _require_nondegenerate(alphas: np.ndarray, rs: np.ndarray, phis: np.ndarray) -> None:
    """The degenerate-cat check cat_state makes (states.cat_norm_squared
    at squeeze angle pi), over every candidate at once."""
    gamma = alphas * np.cosh(rs) + alphas * cmath.exp(1j * math.pi) * np.sinh(rs)
    ph = np.where(phis == 0.0, 1.0, -1.0)
    norm_sq = 2.0 * (1.0 + ph) + 2.0 * ph * np.expm1(-2.0 * np.abs(gamma) ** 2)
    bad = norm_sq <= 1e-280
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(
            "degenerate cat: the two branches cancel exactly "
            f"(alpha={complex(alphas[i])}, phi={float(np.broadcast_to(phis, bad.shape)[i])})"
        )


def _family_fidelities(targets, totals, phis, ss: np.ndarray) -> np.ndarray:
    """Fidelities of the budget-split candidates: entry (k, j) is the
    candidate at fraction ss[k, j] against targets[k].

    One recurrence advances every row together: the three-term recurrence
    of states._squeezed_coherent_batch at squeeze angle pi, where every
    amplitude is real.  It holds TILE levels at a time and folds each full
    tile into the running overlaps and truncated norms with one einsum, so
    memory grows with the rows, never with rows x dim.  The parity filter
    that makes the cat, and the cut at each target's own cutoff, live in
    per-level weights, so targets of different cutoffs can share a call.
    Each candidate is renormalized within its target's truncated space
    before the overlap is squared; a candidate with no finite, nonzero
    mass left there is an error, not a zero.
    """
    totals = np.asarray(totals, float)[:, None]
    phis = np.asarray(phis, float)[:, None]
    alphas, rs = _budget_split(ss, totals, phis)
    _require_nondegenerate(alphas, rs, phis)

    dims = [target.layout.dim for target in targets]
    dim = max(dims)
    # per level and target: the conjugate target times the parity weight
    # 1 + e^{i phi} (-1)^n, and that weight squared; both vanish above the
    # target's cutoff
    conj_re = np.zeros((dim, len(targets)))
    conj_im = np.zeros((dim, len(targets)))
    weight_sq = np.zeros((dim, len(targets)))
    for k, (target, d) in enumerate(zip(targets, dims)):
        weight = _parity_filter(float(phis[k, 0]), d).real
        conj_re[:d, k] = target.amplitudes.real * weight
        conj_im[:d, k] = -target.amplitudes.imag * weight
        weight_sq[:d, k] = weight * weight

    # D(alpha) S(r e^{i pi}) |0> with real alpha:
    # c_{n+1} = (a c_n + tanh(r) sqrt(n) c_{n-1}) / sqrt(n + 1)
    ch = np.cosh(rs)
    t = np.tanh(rs)
    a = alphas * np.exp(-rs) / ch
    root = np.sqrt(np.arange(dim + 1.0))
    inv_next = (1.0 / root[1:]).tolist()
    ratio = (root[:-1] / root[1:]).tolist()

    # running overlap (real, imaginary part) and truncated norm^2 per row
    sums = np.zeros((3,) + ss.shape)
    # slots 0 and 1 carry the last two levels of the previous tile
    buf = np.zeros((TILE + 2,) + ss.shape)
    slot = list(buf)
    slot[2][...] = np.exp(-0.5 * alphas * a) / np.sqrt(ch)
    tmp = np.empty(ss.shape)
    start, j = 0, 2  # level `start` is in slot 2, the newest level in slot j

    def fold(tile: np.ndarray, first: int) -> None:
        levels = slice(first, first + len(tile))
        sums[0] += np.einsum("tkp,tk->kp", tile, conj_re[levels])
        sums[1] += np.einsum("tkp,tk->kp", tile, conj_im[levels])
        sums[2] += np.einsum("tkp,tkp,tk->kp", tile, tile, weight_sq[levels])

    for n in range(dim - 1):  # level n + 1 from levels n and n - 1
        if j == TILE + 1:
            fold(buf[2:], start)
            buf[:2] = buf[TILE:]
            start, j = start + TILE, 1
        np.multiply(a, slot[j], out=tmp)
        tmp *= inv_next[n]
        nxt = slot[j + 1]
        np.multiply(t, slot[j - 1], out=nxt)
        nxt *= ratio[n]
        nxt += tmp
        j += 1
    fold(buf[2 : j + 1], start)
    overlap_re, overlap_im, norms = sums

    bad = ~(np.isfinite(norms) & (norms > 0.0))
    if bad.any():
        k, i = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(
            f"squeezed-cat candidate at squeeze fraction {ss[k, i]:.6g} of a "
            f"{totals[k, 0]:.6g}-photon budget has truncated norm^2 {norms[k, i]:.3g} "
            f"at cutoff {dims[k] - 1}: its amplitudes under- or overflow"
        )
    return (overlap_re**2 + overlap_im**2) / norms


def _prepare(kitten) -> tuple[FockState, float, float]:
    """(state, photon budget, cat phase) of a validated fit input."""
    target, total = _unwrap(kitten)
    if target.layout.n_modes != 1:
        raise ValueError("fit expects a single-mode state")
    if total <= 0.0:
        raise ValueError("cannot fit a zero-photon input")
    return target, total, _parity_phase(target)


def fit_squeezed_cats(kittens) -> list[CatFitResult]:
    """Best squeezed-cat approximation of each kitten at its photon number.

    Accepts KittenStates or normalized single-mode FockStates with
    definite parity.  Each fraction search evaluates a 64-point grid, then
    refines in rounds of 33 points spread over its argmax's neighbours
    until its bracket is at most S_TOLERANCE wide (three or four rounds).
    The fits advance in lockstep: every round is one recurrence over all
    (kitten, fraction) rows still refining, while each fit keeps its own
    bracket and argmax, so a fit's result does not depend on the others
    in the batch.  Exact inner products throughout, so repeated runs are
    bit-identical.
    """
    prepared = [_prepare(kitten) for kitten in kittens]
    if not prepared:
        return []
    targets, totals, phis = zip(*prepared)
    totals, phis = np.array(totals), np.array(phis)

    ss = np.tile(np.linspace(0.0, 1.0, GRID_POINTS), (len(targets), 1))
    values = _family_fidelities(targets, totals, phis, ss)
    plain = values[:, 0].copy()
    best = np.argmax(values, axis=1)
    rows = np.arange(len(targets))
    best_s, best_f = ss[rows, best], values[rows, best]
    live = rows  # ss and best hold the last round of these targets
    while True:
        lo = ss[np.arange(len(live)), np.maximum(best - 1, 0)]
        hi = ss[np.arange(len(live)), np.minimum(best + 1, ss.shape[1] - 1)]
        still = hi - lo > S_TOLERANCE
        if not still.any():
            break
        live = live[still]
        ss = np.linspace(lo[still], hi[still], ROUND_POINTS, axis=-1)
        values = _family_fidelities(
            [targets[i] for i in live], totals[live], phis[live], ss
        )
        best = np.argmax(values, axis=1)
        top = values[np.arange(len(live)), best]
        better = top > best_f[live]
        best_f[live[better]] = top[better]
        best_s[live[better]] = ss[better, best[better]]

    alphas, rs = _budget_split(best_s, totals, phis)
    return [
        CatFitResult(
            fidelity=float(best_f[i]),
            infidelity=1.0 - float(best_f[i]),
            squeeze_fraction=float(best_s[i]),
            alpha=float(alphas[i]),
            r=float(rs[i]),
            phi=float(phis[i]),
            plain_cat_fidelity=float(plain[i]),
        )
        for i in rows
    ]


def fit_squeezed_cat(kitten) -> CatFitResult:
    """Best squeezed-cat approximation at the kitten's photon number: the
    lockstep fit_squeezed_cats of a batch of one."""
    return fit_squeezed_cats([kitten])[0]
