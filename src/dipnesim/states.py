"""Analytic state constructors in the truncated number basis.

All constructors return raw truncated amplitudes: the analytic coefficient at
each kept level, with the probability lost to truncation reported in
``FockState.leakage`` rather than renormalized away.  Conventions:

  D(alpha) = exp(alpha a+ - conj(alpha) a)
  S(xi)    = exp((conj(xi) a^2 - xi a+^2) / 2),   xi = r e^{i theta}

so theta = 0 squeezes the X = a + a+ quadrature and "S photons of squeezing"
means sinh^2 r = S.  Squeezed-displaced states are D(alpha) S(xi) |0>.

The squeezed-cat kernel that catfit's fit scores its candidates with lives
here: the levels of D(alpha) S(r e^{i pi})|0> for real alpha
(_squeezed_coherent_levels), the parity filter that makes the cat, and the
cat norm (_cat_norms_squared).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import FockState, ModeLayout, _warn_leak

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Squeeze:
    """Squeeze parameter xi = r e^{i theta} with r >= 0, theta in [0, 2pi)."""

    r: float
    theta: float = 0.0

    def __post_init__(self):
        r = float(self.r)
        if not (math.isfinite(r) and r >= 0.0):
            raise ValueError(f"squeeze magnitude must be finite and >= 0, got {r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)


@lru_cache(maxsize=None)
def _log_factorial_table(size: int) -> np.ndarray:
    head = _log_factorial_table(size // 2) if size > 1024 else np.zeros(0)
    return np.append(head, [math.lgamma(n + 1.0) for n in range(head.size, size)])


def log_factorial(n) -> np.ndarray:
    """log(n!) for integers n >= 0, read from a cached math.lgamma table that doubles as n grows."""
    n = np.asarray(n)
    size = 1024
    while size <= n.max(initial=0):
        size *= 2
    return _log_factorial_table(size)[n]


def _as_layout(layout) -> ModeLayout:
    # constructors build single-mode states; an int is shorthand for a cutoff
    if isinstance(layout, ModeLayout):
        if layout.n_modes != 1:
            raise ValueError("state constructors build single-mode states; use tensor to combine")
        return layout
    return ModeLayout((int(layout),))


def _finish(amps: np.ndarray, layout: ModeLayout, what: str) -> FockState:
    leak = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    _warn_leak(leak, what)
    return FockState(layout, amps, leak)


def squeezed_vacuum_log_even(r, m) -> np.ndarray:
    """log |C_{2m}| of S(r e^{i theta})|0> for an array of even-level indices m,
    at one r or at an array of them that broadcasts against m (a column of
    r gives one row per r, each equal to its own one-r call).

    Phase is handled by callers; requires r > 0.
    """
    m, r = np.asarray(m), np.asarray(r, dtype=float)
    if not (r > 0.0).all():
        raise ValueError("squeezed_vacuum_log_even needs r > 0")
    log_cosh, log_tanh = (
        np.array([math.log(f(x)) for x in r.flat]).reshape(r.shape) for f in (math.cosh, math.tanh)
    )
    return (
        -0.5 * log_cosh
        + m * log_tanh
        + 0.5 * log_factorial(2 * m)
        - m * math.log(2.0)
        - log_factorial(m)
    )


def squeezed_vacuum(squeeze: Squeeze, layout) -> FockState:
    """Squeezed vacuum S(xi)|0>; odd levels are exactly zero."""
    layout = _as_layout(layout)
    d = layout.dim
    amps = np.zeros(d, dtype=np.complex128)
    if squeeze.r == 0.0:
        amps[0] = 1.0
        return FockState(layout, amps)
    m = np.arange((d - 1) // 2 + 1)
    logmag = squeezed_vacuum_log_even(squeeze.r, m)
    # (-e^{i theta})^m: keep the parity sign exact, the theta part as a phase
    phase = np.exp(1j * squeeze.theta * m) * np.where(m % 2 == 0, 1.0, -1.0)
    amps[2 * m] = np.exp(logmag) * phase
    return _finish(amps, layout, f"squeezed_vacuum(r={squeeze.r:.4g})")


def _unit_phase(phi):
    # exact +-1 at phi = 0, pi so parity-forbidden amplitudes vanish bitwise
    red = np.remainder(phi, TWO_PI)
    return np.where(red == math.pi, -1.0 + 0.0j, np.exp(1j * red))


def _squeezed_coherent_levels(alphas, rs, dim: int):
    """Levels 0 .. dim - 1 of D(alpha) S(r e^{i pi}) |0> for real alpha and
    real r of either sign (r < 0 is S(|r|) at angle 0), a new array per level,
    elementwise over broadcast alpha and r arrays.

    The recurrence of Miatto & Quesada (Quantum 4, 366 (2020)) in real
    arithmetic: c_0 = exp(-alpha a / 2) / sqrt(cosh r),
    c_n = (a c_{n-1} + tanh(r) sqrt(n - 1) c_{n-2}) / sqrt(n), with
    a = alpha e^{-r} / cosh r, free of the cancellation in 1 - tanh r at
    large r.
    """
    alphas, rs = np.asarray(alphas, dtype=np.float64), np.asarray(rs, dtype=np.float64)
    ch, t = np.cosh(rs), np.tanh(rs)
    a = alphas * np.exp(-rs) / ch
    first = np.exp(-0.5 * alphas * a) / np.sqrt(ch)
    prev, cur = 0.0, first
    yield first
    for n in range(1, dim):
        prev, cur = cur, a * cur / math.sqrt(n) + t * prev * math.sqrt((n - 1) / n)
        yield cur


def _cat_norms_squared(alphas, rs, theta: float, phis) -> np.ndarray:
    """Norm^2 of (D(alpha) + e^{i phi} D(-alpha)) S(r e^{i theta}) |0> over
    broadcast alpha, r and phi arrays, raising where the branches cancel
    exactly.  They overlap in exp(-2|g|^2), g = alpha cosh r + conj(alpha)
    e^{i theta} sinh r, and with b = alpha e^{-i theta / 2},
    |g|^2 = Re(b)^2 e^{2r} + Im(b)^2 e^{-2r}: no cosh r - sinh r cancels."""
    ph = np.cos(phis)  # exactly +-1 at phi = 0, pi
    b, grow = alphas * cmath.exp(-0.5j * theta), np.exp(2.0 * rs)
    g_sq = b.real**2 * grow + b.imag**2 / grow
    # expm1 keeps precision when the branches nearly cancel (phi near pi,
    # small alpha), where 2 - 2 exp(-2|g|^2) loses all digits
    norm_sq = 2.0 * (1.0 + ph + ph * np.expm1(-2.0 * g_sq))
    bad = norm_sq <= 1e-280
    if bad.any():
        alpha, phi = (np.broadcast_to(x, bad.shape)[bad][0] for x in (alphas, phis))
        raise ValueError(
            f"degenerate cat: the two branches cancel exactly (alpha={complex(alpha)}, phi={float(phi)})"
        )
    return norm_sq


def _parity_filter(phi, dim: int) -> np.ndarray:
    """Level weights 1 + e^{i phi} (-1)^n that add e^{i phi} D(-alpha)S|0>
    to D(alpha)S|0>; exactly 2 and 0 at phi = 0, pi.  An array of phases
    broadcasts against the levels, which run along the last axis."""
    return 1.0 + _unit_phase(phi) * (-1.0) ** np.arange(dim)
