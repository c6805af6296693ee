"""Analytic state constructors in the truncated number basis.

All constructors return raw truncated amplitudes: the analytic coefficient at
each kept level, with the probability lost to truncation reported in
``FockState.leakage`` rather than renormalized away.  Conventions:

  D(alpha) = exp(alpha a+ - conj(alpha) a)
  S(xi)    = exp((conj(xi) a^2 - xi a+^2) / 2),   xi = r e^{i theta}

so theta = 0 squeezes the X = a + a+ quadrature and "S photons of squeezing"
means sinh^2 r = S.  Squeezed-displaced states are D(alpha) S(xi) |0>.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .fock import FockState, ModeLayout, _warn_leak

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Displacement:
    """Coherent displacement amplitude; |alpha|^2 photons on vacuum."""

    alpha: complex

    def __post_init__(self):
        a = complex(self.alpha)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError(f"displacement must be finite, got {a}")
        object.__setattr__(self, "alpha", a)


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

    @property
    def mean_photons(self) -> float:
        return math.sinh(self.r) ** 2


@dataclass(frozen=True)
class CatSpec:
    """Two-component superposition (D(alpha) + e^{i phi} D(-alpha)) S(xi) |0>."""

    alpha: Displacement
    phi: float
    squeeze: Squeeze

    def __post_init__(self):
        if not isinstance(self.alpha, Displacement):
            object.__setattr__(self, "alpha", Displacement(self.alpha))
        if not isinstance(self.squeeze, Squeeze):
            raise TypeError("CatSpec.squeeze must be a Squeeze")
        if not math.isfinite(float(self.phi)):
            raise ValueError("relative phase must be finite")
        object.__setattr__(self, "phi", float(self.phi))


def r_from_squeeze_photons(photons: float) -> float:
    """Squeeze magnitude r with sinh^2 r equal to the given photon number."""
    if photons < 0:
        raise ValueError("photon number must be >= 0")
    return math.asinh(math.sqrt(photons))


def _as_layout(layout) -> ModeLayout:
    # constructors build single-mode states; an int is shorthand for a cutoff
    if isinstance(layout, ModeLayout):
        if layout.n_modes != 1:
            raise ValueError("state constructors build single-mode states; use tensor to combine")
        return layout
    return ModeLayout((int(layout),))


def _alpha_value(alpha) -> complex:
    if isinstance(alpha, Displacement):
        return alpha.alpha
    return Displacement(alpha).alpha


def _finish(amps: np.ndarray, layout: ModeLayout, what: str) -> FockState:
    leak = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    _warn_leak(leak, what)
    return FockState(layout, amps, leak)


def coherent(alpha, layout) -> FockState:
    """Coherent state |alpha>, amplitudes e^{-|a|^2/2} a^n / sqrt(n!)."""
    layout = _as_layout(layout)
    a = _alpha_value(alpha)
    d = layout.dim
    if a == 0:
        amps = np.zeros(d, dtype=np.complex128)
        amps[0] = 1.0
        return FockState(layout, amps)
    n = np.arange(d)
    logmag = -abs(a) ** 2 / 2 + n * math.log(abs(a)) - 0.5 * gammaln(n + 1)
    amps = np.exp(logmag + 1j * cmath.phase(a) * n)
    return _finish(amps, layout, f"coherent(alpha={a:.4g})")


def squeezed_vacuum_log_even(r: float, m) -> np.ndarray:
    """log |C_{2m}| of S(r e^{i theta})|0> for an array of even-level indices m.

    Phase is handled by callers; requires r > 0.
    """
    m = np.asarray(m)
    if r <= 0.0:
        raise ValueError("squeezed_vacuum_log_even needs r > 0")
    return (
        -0.5 * math.log(math.cosh(r))
        + m * math.log(math.tanh(r))
        + 0.5 * gammaln(2 * m + 1)
        - m * math.log(2.0)
        - gammaln(m + 1)
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


def _squeezed_coherent_batch(alphas, rs, theta: float, dim: int) -> np.ndarray:
    """Amplitudes of D(alpha) S(r e^{i theta}) |0> for broadcast alpha/r arrays.

    Three-term recurrence in n, exact in floating point (no truncated
    generator involved); returns shape broadcast(alphas, rs) + (dim,).
    """
    alphas = np.asarray(alphas, dtype=np.complex128)
    rs = np.asarray(rs, dtype=np.float64)
    alphas, rs = np.broadcast_arrays(alphas, rs)
    eith = cmath.exp(1j * theta)
    ch = np.cosh(rs)
    E = eith * np.sinh(rs)
    gamma = alphas * ch + np.conj(alphas) * E
    out = np.zeros(alphas.shape + (dim,), dtype=np.complex128)
    out[..., 0] = np.exp(-np.abs(alphas) ** 2 / 2 - np.conj(alphas) ** 2 * eith * np.tanh(rs) / 2) / np.sqrt(ch)
    if dim > 1:
        out[..., 1] = gamma * out[..., 0] / ch
    for n in range(1, dim - 1):
        out[..., n + 1] = (gamma * out[..., n] - E * math.sqrt(n) * out[..., n - 1]) / (
            ch * math.sqrt(n + 1)
        )
    return out


def _require_representable(amps: np.ndarray, alpha: complex, r: float, layout: ModeLayout) -> None:
    """Raise where the recurrence of _squeezed_coherent_batch under- or
    overflowed: its first amplitude is exp(-|alpha|^2/2 ...), which is 0.0 in
    floating point once |alpha|^2 passes ~1400."""
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if not (norm_sq > 0.0 and math.isfinite(norm_sq)):
        raise ValueError(
            f"alpha={alpha:.6g}, r={r:.6g} has truncated norm^2 {norm_sq} at cutoff "
            f"{layout.cutoffs[0]}: the amplitude recurrence under- or overflows"
        )


def squeezed_coherent(alpha, squeeze: Squeeze, layout) -> FockState:
    """Displaced squeezed state D(alpha) S(xi) |0>."""
    layout = _as_layout(layout)
    a = _alpha_value(alpha)
    if squeeze.r == 0.0:
        return coherent(a, layout)
    amps = _squeezed_coherent_batch(a, squeeze.r, squeeze.theta, layout.dim)
    _require_representable(amps, a, squeeze.r, layout)
    return _finish(amps, layout, f"squeezed_coherent(alpha={a:.4g}, r={squeeze.r:.4g})")


def infinite_squeeze_log_even(m: np.ndarray) -> np.ndarray:
    """log |C_{2m}| = log(sqrt((2m)!) / (2^m m!)) of the infinite-squeezing
    limit, up to its overall scale, for an array of m.

    |C_{2m+2}/C_{2m}| tends to 1 from below, so the sequence is not
    square-summable: callers supply convergent weights before normalizing.
    """
    return 0.5 * gammaln(2 * m + 1) - m * math.log(2.0) - gammaln(m + 1)


def _unit_phase(phi: float) -> complex:
    # exact +-1 at phi = 0, pi so parity-forbidden amplitudes vanish bitwise
    red = phi % TWO_PI
    if red == 0.0:
        return 1.0 + 0.0j
    if red == math.pi:
        return -1.0 + 0.0j
    return cmath.exp(1j * red)


def cat_norm_squared(spec: CatSpec) -> float:
    """Norm^2 of the unnormalized superposition (D(a) + e^{i phi} D(-a)) S |0>."""
    a = spec.alpha.alpha
    sq = spec.squeeze
    gamma = a * math.cosh(sq.r) + a.conjugate() * cmath.exp(1j * sq.theta) * math.sinh(sq.r)
    ph = _unit_phase(spec.phi)
    # expm1 keeps precision when the branches nearly cancel (phi near pi,
    # small alpha), where 2 - 2 exp(-2|g|^2) loses all digits
    return 2.0 * (1.0 + ph.real) + 2.0 * ph.real * math.expm1(-2.0 * abs(gamma) ** 2)


def _checked_norm_squared(spec: CatSpec) -> float:
    """cat_norm_squared, raising where the two branches cancel exactly."""
    norm_sq = cat_norm_squared(spec)
    if norm_sq <= 1e-280:
        raise ValueError(
            "degenerate cat: the two branches cancel exactly "
            f"(alpha={spec.alpha.alpha}, phi={spec.phi})"
        )
    return norm_sq


def _parity_filter(phi: float, dim: int) -> np.ndarray:
    """Level weights 1 + e^{i phi} (-1)^n that add e^{i phi} D(-alpha)S|0>
    to D(alpha)S|0>; exactly 2 and 0 at phi = 0, pi."""
    ph = _unit_phase(phi)
    return np.where(np.arange(dim) % 2 == 0, 1.0 + ph, 1.0 - ph)


def cat_state(spec: CatSpec, layout) -> FockState:
    """Normalized (D(alpha) + e^{i phi} D(-alpha)) S(xi) |0>.

    Componentwise D(-alpha)S|0> has amplitudes (-1)^n times those of
    D(alpha)S|0>, so the superposition is a parity filter on the displaced
    squeezed state.
    """
    layout = _as_layout(layout)
    norm_sq = _checked_norm_squared(spec)
    base = _squeezed_coherent_batch(
        spec.alpha.alpha, spec.squeeze.r, spec.squeeze.theta, layout.dim
    )
    amps = base * _parity_filter(spec.phi, layout.dim) / math.sqrt(norm_sq)
    _require_representable(amps, spec.alpha.alpha, spec.squeeze.r, layout)
    return _finish(
        amps,
        layout,
        f"cat_state(alpha={spec.alpha.alpha:.4g}, phi={spec.phi:.4g}, r={spec.squeeze.r:.4g})",
    )
