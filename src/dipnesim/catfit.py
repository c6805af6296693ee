"""Fitting heralded kittens against squeezed-cat targets.

The candidate family at total photon budget N splits the budget by a
squeeze fraction s in [0, 1]: sinh^2 r = s N photons from squeezing and
alpha^2 = (1 - s) N from displacement, the cat phase fixed by the
input's parity.  The fit maximizes fidelity over s; s = 0 is the plain
(unsqueezed) cat of the same budget.

Every input is a FitTarget, S(R) applied to a few Fock amplitudes: k + 1
for a kitten, antisqueezed or not (kitten_target, read from the spec's own
KittenSpec.core()), or a bare Fock state's own at R = 0.  The
squeezed-cat recurrence and cat norm of states score every (target,
fraction) row of a sweep on those levels alone, with exact candidate
norms, so no cutoff enters a kitten's fit.

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
from itertools import islice

import numpy as np

from .fock import FockState
from .kitten import KittenSpec, photon_number
from .states import _cat_norms_squared, _parity_filter, _squeezed_coherent_levels

# absolute tolerance of the fraction search
S_TOLERANCE = 1e-6

# stand-in for alpha = 0 where the odd cat degenerates; the family's
# s -> 1 limit state S|1> is approached through a vanishing displacement
ALPHA_FLOOR = 1e-12

# fractions on the initial grid, and per refinement round; a round shrinks
# the bracket (the argmax's two neighbours) by (ROUND_POINTS - 1) / 2
GRID_POINTS = 64
ROUND_POINTS = 33

# levels of the lockstep recurrence folded into the sums per einsum
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


@dataclass(frozen=True)
class FitTarget:
    """A fit input S(R e^{i pi}) sum_m coeffs[m] |m> (coeffs unnormalized),
    fitted at photon budget ``photons`` with cat phase ``phi``."""

    squeeze: float
    coeffs: np.ndarray
    photons: float
    phi: float


def kitten_target(spec: KittenSpec, rho: float = 0.0) -> FitTarget:
    """The kitten of spec antisqueezed by rho along its displacement axis
    (rho < 0 squeezes): squeezes along one axis add, so it is S(r' + rho) c
    with (r', c) = spec.core(), the spec's own cached core, and its photon
    number is kitten.photon_number(r' + rho, c)."""
    r_sub, coeffs = spec.core()
    if not coeffs.any():
        raise ValueError(
            f"the k={spec.k} kitten has no amplitude: a herald of probability 0 "
            "(zero squeezing), or amplitudes that underflow"
        )
    big = r_sub + rho
    return FitTarget(big, coeffs, photon_number(big, coeffs), math.pi if spec.k % 2 else 0.0)


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


def _row_fidelities(targets: list[FitTarget], ss: np.ndarray) -> np.ndarray:
    """Fidelities of the budget-split candidates: entry (k, j) is the
    candidate at fraction ss[k, j] against targets[k].

    With real alpha, S(R)+ D(alpha) S(r)|0> = D(alpha e^{-R}) S(r - R)|0>,
    so the overlap with S(R) c is sum_m conj(c_m) w_m g_m over c's levels:
    g_m from states._squeezed_coherent_levels, run for all rows at once in
    its real arithmetic and folded into the sums TILE levels at a time, and
    w_m = states._parity_filter making the cat.  The squared overlap is
    divided by the exact candidate norm^2, states._cat_norms_squared, and
    by c.c.  A candidate with no finite, nonzero mass on c's levels has
    under- or overflowed: an error.
    """
    totals, phis, bigs = np.array([[t.photons, t.phi, t.squeeze] for t in targets]).T[:, :, None]
    alphas, rs = _budget_split(ss, totals, phis)
    norm_sq = _cat_norms_squared(alphas, rs, math.pi, phis)

    dims = np.array([len(target.coeffs) for target in targets])
    dim = int(dims.max())
    coeffs = np.zeros((dim, len(targets)), dtype=np.complex128)
    for k, target in enumerate(targets):
        coeffs[: dims[k], k] = target.coeffs
    # per level and target the parity weight, which vanishes above the target's levels
    levels = np.arange(dim)[:, None]
    weight = _parity_filter(phis, dim).real.T * (levels < dims)
    conj_re, conj_im = coeffs.real * weight, -coeffs.imag * weight

    amplitudes = _squeezed_coherent_levels(alphas * np.exp(-bigs), rs - bigs, dim)
    # running overlap (real, imaginary part) and mass on c's levels per row
    sums = np.zeros((3,) + ss.shape)
    level_type = np.dtype((np.float64, ss.shape))
    for start in range(0, dim, TILE):
        tile = np.fromiter(islice(amplitudes, TILE), level_type, min(TILE, dim - start))
        at = slice(start, start + len(tile))
        sums[0] += np.einsum("tkp,tk->kp", tile, conj_re[at])
        sums[1] += np.einsum("tkp,tk->kp", tile, conj_im[at])
        sums[2] += np.einsum("tkp,tkp,tk->kp", tile, tile, weight[at] ** 2)
        del tile  # so that one tile at a time is alive
    overlap_re, overlap_im, mass = sums

    bad = ~(np.isfinite(mass) & (mass > 0.0))
    if bad.any():
        k, i = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(
            f"squeezed-cat candidate at squeeze fraction {ss[k, i]:.6g} of a "
            f"{totals[k, 0]:.6g}-photon budget has truncated norm^2 {mass[k, i]:.3g} "
            f"at cutoff {dims[k] - 1}: its amplitudes under- or overflow"
        )
    coeff_sq = np.array([[np.vdot(t.coeffs, t.coeffs).real] for t in targets])
    return (overlap_re**2 + overlap_im**2) / (norm_sq * coeff_sq)


def _prepare(kitten) -> FitTarget:
    """A validated FitTarget: as given, or R = 0 with a bare FockState's own
    amplitudes and mean photon number."""
    target = kitten
    if not isinstance(kitten, FitTarget):
        if kitten.layout.n_modes != 1:
            raise ValueError("fit expects a single-mode state")
        weights = np.abs(kitten.amplitudes) ** 2
        total = float(np.arange(kitten.layout.dim) @ weights / weights.sum())
        target = FitTarget(0.0, kitten.amplitudes, total, _parity_phase(kitten))
    if target.photons <= 0.0:
        raise ValueError("cannot fit a zero-photon input")
    return target


def fit_squeezed_cats(kittens) -> list[CatFitResult]:
    """Best squeezed-cat approximation of each kitten at its photon number.

    Accepts FitTargets (kitten_target) or normalized single-mode
    FockStates with definite parity.  Each fraction search
    evaluates a 64-point grid, then refines in rounds of 33 points spread
    over its argmax's neighbours until its bracket is at most S_TOLERANCE
    wide (three or four rounds).  The fits advance in lockstep: a round is
    one run of the states recurrence over all rows still refining, as long
    as the longest target, while each fit keeps its own bracket and argmax,
    so a fit's result does not depend on the others in the batch.  Exact inner
    products throughout, so repeated runs are bit-identical.
    """
    targets = [_prepare(kitten) for kitten in kittens]
    if not targets:
        return []
    totals = np.array([target.photons for target in targets])
    phis = np.array([target.phi for target in targets])

    ss = np.tile(np.linspace(0.0, 1.0, GRID_POINTS), (len(targets), 1))
    values = _row_fidelities(targets, ss)
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
        values = _row_fidelities([targets[i] for i in live], ss)
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
