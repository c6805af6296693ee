"""Fitting heralded kittens against squeezed-cat targets.

The candidate family at total photon budget N splits the budget by a
squeeze fraction s in [0, 1]: sinh^2 r = s N photons from squeezing and
alpha^2 = (1 - s) N from displacement, the cat phase fixed by the
input's parity.  The fit maximizes fidelity over s; s = 0 is the plain
(unsqueezed) cat of the same budget.

The budget is deliberately the component-level split, not the mean
photon number of the normalized superposition.  The parity cross term
makes the two differ at small alpha, and under the normalized-mean
convention the odd family boundary alpha -> 0 is a squeezed single
photon, which IS the k = 1 kitten exactly; the fit would then collapse
to fidelity 1 at a large squeeze fraction for every k = 1 input.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import FockState, LeakageWarning, inner
from .kitten import KittenState
from .states import CatSpec, Displacement, Squeeze, cat_state

# absolute tolerance of the fraction search
S_TOLERANCE = 1e-6

# stand-in for alpha = 0 where the odd cat degenerates; the family's
# s -> 1 limit state S|1> is approached through a vanishing displacement
ALPHA_FLOOR = 1e-12

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def _family_fidelity(target: FockState, total: float, phi: float, s: float) -> float:
    """Fidelity of the budget-split candidate at fraction s.

    The candidate is renormalized within the truncated space before the
    overlap is squared, so hard-truncating probes stay comparable.
    """
    alpha, r = _budget_split(s, total, phi)
    spec = CatSpec(Displacement(alpha), phi, Squeeze(r, math.pi))
    # far-from-optimum probes can truncate hard; harmless given the
    # renormalized overlap, so the leak warning is suppressed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LeakageWarning)
        cand = cat_state(spec, target.layout)
    return float(abs(inner(target, cand)) ** 2 / cand.norm() ** 2)


def fit_squeezed_cat(kitten) -> CatFitResult:
    """Best squeezed-cat approximation at the kitten's photon number.

    Accepts a KittenState or a normalized single-mode FockState with
    definite parity.  The fraction search runs a 64-point grid followed
    by golden-section refinement to 1e-6; exact inner products
    throughout, so repeated runs are bit-identical.
    """
    target, total = _unwrap(kitten)
    if target.layout.n_modes != 1:
        raise ValueError("fit expects a single-mode state")
    if total <= 0.0:
        raise ValueError("cannot fit a zero-photon input")
    phi = _parity_phase(target)

    def objective(s: float) -> float:
        return _family_fidelity(target, total, phi, s)

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
    return CatFitResult(
        fidelity=best_f,
        infidelity=1.0 - best_f,
        squeeze_fraction=best_s,
        alpha=alpha,
        r=r,
        phi=phi,
        plain_cat_fidelity=plain,
    )

