"""Closed-form oracles and auxiliary formulas.

Interference-loss prediction, the equal-photon-count amplitude and its
brute-force twin, erasure and Poisson basics, antisqueezing-fraction
limits, and Gaussian moment propagation are independent of the Fock
simulator; the tests play them against it as cross-checks in both
directions.  The squeeze-to-match solver is the exception: it takes the
source's fitted displacement from its caller, then antisqueezes the source
with circuits.squeeze_op and refits each antisqueezed state with
catfit.fit_squeezed_cat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catfit import fit_squeezed_cat
from .fock import FockState, ModeLayout
from .kitten import KittenState
from .states import Squeeze
from .circuits import squeeze_op

LN2 = math.log(2.0)

BRUTE_FORCE_MAX = 24


def interference_loss_theory(
    alpha1: complex,
    alpha2: complex,
    theta_split: float,
    theta_interfere: float,
    pi_shift: bool = False,
) -> float:
    """Predicted interference contribution to the photons lost in the
    erasure gadget: +-4 sin cos sin cos Re[a1 conj(a2)], negative with
    the pi shift."""
    if not (0.0 <= theta_split < math.pi / 2 and 0.0 <= theta_interfere < math.pi / 2):
        raise ValueError("gadget angles must lie in [0, pi/2)")
    sign = -1.0 if pi_shift else 1.0
    return (
        sign
        * 4.0
        * math.sin(theta_split)
        * math.cos(theta_split)
        * math.sin(theta_interfere)
        * math.cos(theta_interfere)
        * (complex(alpha1) * complex(alpha2).conjugate()).real
    )


def c_equal(n: int, m: int) -> complex:
    """Amplitude for |n, m> to leave a 50:50 beamsplitter with equal
    counts in both arms.

    Zero for odd n + m (no equal split exists) and for odd-odd pairs
    (termwise cancellation).  The alternating sum runs in exact integer
    arithmetic; only the factorial prefactor is in log space.
    """
    if n < 0 or m < 0:
        raise ValueError("counts must be nonnegative")
    if (n + m) % 2:
        return 0.0 + 0.0j
    if n < m:
        n, m = m, n
    half_diff = (n - m) // 2
    half_sum = (n + m) // 2
    acc = 0
    for k in range(half_diff, half_sum + 1):
        term = math.comb(n, k) * math.comb(m, k - half_diff)
        acc = acc - term if k % 2 else acc + term
    if acc == 0:
        return 0.0 + 0.0j
    log_pre = (
        math.lgamma(half_sum + 1)
        - 0.5 * (math.lgamma(n + 1) + math.lgamma(m + 1))
        - half_sum * LN2
    )
    magnitude = math.exp(log_pre + math.log(abs(acc)))
    phase = 1j ** ((m - n) // 2 % 4)
    return phase * math.copysign(magnitude, acc)


def c_equal_bruteforce(n: int, m: int) -> complex:
    """Equal-count amplitude by direct binomial expansion of the
    beamsplit creation operators; the oracle for c_equal."""
    if n < 0 or m < 0:
        raise ValueError("counts must be nonnegative")
    if n + m > BRUTE_FORCE_MAX:
        raise ValueError(f"n + m must stay at or below {BRUTE_FORCE_MAX}")
    if (n + m) % 2:
        return 0.0 + 0.0j
    # coefficients of (x + iy)^n (y + ix)^m; integer-valued, exact in
    # double precision up to the guard
    coeffs = np.zeros((n + m + 1, n + m + 1), dtype=np.complex128)
    first = [(n - j, j, math.comb(n, j) * 1j**j) for j in range(n + 1)]
    second = [(j, m - j, math.comb(m, j) * 1j**j) for j in range(m + 1)]
    for a1, b1, c1 in first:
        for a2, b2, c2 in second:
            coeffs[a1 + a2, b1 + b2] += c1 * c2
    p = (n + m) // 2
    norm = math.exp(
        math.lgamma(p + 1)
        - 0.5 * (math.lgamma(n + 1) + math.lgamma(m + 1))
        - p * LN2
    )
    return complex(coeffs[p, p]) * norm


def erasure_residual(alpha_weak: float, alpha_strong: float) -> tuple[float, float]:
    """Displacement left after erasing against a strong reference.

    Returns (exact, approximation): sqrt(as^2 + aw^2) - as alongside its
    second-order form aw^2 / (2 as).
    """
    if alpha_strong <= 0.0:
        raise ValueError("the strong displacement must be positive")
    exact = math.hypot(alpha_strong, alpha_weak) - alpha_strong
    return exact, alpha_weak**2 / (2.0 * alpha_strong)


def poisson_pn(alpha: complex, n: int) -> float:
    """Photon-number law of a coherent state: e^{-|a|^2} |a|^{2n} / n!."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    mean = abs(complex(alpha)) ** 2
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))


def squeeze_fraction_strong(d0: float, r0: float, r: float) -> tuple[float, float]:
    """Fraction of photons from squeezing after antisqueezing by r.

    A seed displacement d0 and seed squeezing r0 antisqueezed by r hold
    d0^2 e^{2r} displacement photons against sinh^2(r + r0) squeezing
    photons.  Returns (exact fraction, strong-limit fraction) where the
    limit replaces the ratio by 4 d0^2 / e^{2 r0}.
    """
    if d0 <= 0.0:
        raise ValueError("d0 must be positive")
    if r0 < 0.0 or r < 0.0:
        raise ValueError("squeezing magnitudes must be nonnegative")
    strong = 1.0 / (1.0 + 4.0 * d0**2 / math.exp(2.0 * r0))
    squeeze_photons = math.sinh(r + r0) ** 2
    if squeeze_photons == 0.0:
        return 0.0, strong
    ratio = d0**2 * math.exp(2.0 * r) / squeeze_photons
    return 1.0 / (1.0 + ratio), strong


@dataclass(frozen=True)
class MatchResult:
    """Antisqueezing needed to reach a displacement target, plus the
    photon overhead: excess_fraction = 1 - target^2 / mean photons of
    the antisqueezed state."""

    r_required: float
    excess_fraction: float


def _antisqueezed(state: FockState, r: float, work_cutoff: int) -> FockState:
    """Embed into a larger space and (anti)squeeze along the
    displacement axis; r < 0 squeezes instead."""
    dim = work_cutoff + 1
    amps = np.zeros(dim, dtype=np.complex128)
    amps[: state.layout.dim] = state.amplitudes
    grown = FockState(ModeLayout((work_cutoff,)), amps, state.leakage)
    if r == 0.0:
        return grown
    if r > 0.0:
        return squeeze_op(grown, 0, Squeeze(r, math.pi))
    return squeeze_op(grown, 0, Squeeze(-r, 0.0))


def squeeze_to_match(
    source: KittenState,
    source_alpha: float,
    target_displacement: float,
    work_cutoff: int = 1000,
) -> MatchResult:
    """Antisqueezing that brings the source's fitted displacement to the
    target.

    ``source_alpha`` is the source's own fitted displacement,
    ``fit_squeezed_cat(source).alpha``; callers that fit the source anyway
    pass that value rather than having it refitted here.  Bisection on the
    monotone displacement-versus-r map, to 1e-6 in the displacement.
    Negative r_required (plain squeezing) is a valid answer when the
    target sits below the source's own displacement.
    """
    if target_displacement <= 0.0:
        raise ValueError("target displacement must be positive")
    if source_alpha <= 1e-9:
        raise ValueError("source has no fitted displacement to match")
    state = source.state if isinstance(source, KittenState) else source

    def fit_after(r: float):
        return fit_squeezed_cat(_antisqueezed(state, r, work_cutoff))

    guess = math.log(target_displacement / source_alpha)
    lo, hi = guess - 0.2, guess + 0.2
    f_lo = fit_after(lo).alpha - target_displacement
    f_hi = fit_after(hi).alpha - target_displacement
    for _ in range(40):
        if f_lo <= 0.0 <= f_hi:
            break
        if f_lo > 0.0:
            lo -= 0.2
            f_lo = fit_after(lo).alpha - target_displacement
        else:
            hi += 0.2
            f_hi = fit_after(hi).alpha - target_displacement
    else:
        raise ValueError("could not bracket the displacement target")

    # the bracket is at least 0.4 wide, so the loop sets mid and fit_mid
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        fit_mid = fit_after(mid)
        if abs(fit_mid.alpha - target_displacement) < 1e-7:
            break
        if fit_mid.alpha < target_displacement:
            lo = mid
        else:
            hi = mid
    # the matched state's own squeeze fraction: 1 - displacement photons
    # over total photons, with the fitted alpha standing in for the target
    # it equals within the bisection tolerance
    return MatchResult(r_required=mid, excess_fraction=fit_mid.squeeze_fraction)


@dataclass(frozen=True)
class GaussianMoments:
    """First and second quadrature moments, interleaved (X0, P0, X1, ...).

    Convention: X = a + a^dag, P = -i(a - a^dag), vacuum covariance is
    the identity.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64)
        cov = np.array(self.cov, dtype=np.float64)
        if mean.ndim != 1 or mean.size % 2:
            raise ValueError("mean must be a flat vector of length 2M")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("cov must be square and match the mean length")
        if np.max(np.abs(cov - cov.T)) > 1e-12:
            raise ValueError("cov must be symmetric within 1e-12")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


def vacuum_moments(n_modes: int) -> GaussianMoments:
    if n_modes < 1:
        raise ValueError("need at least one mode")
    return GaussianMoments(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def _squeeze_block(r: float, theta: float) -> np.ndarray:
    ch, sh = math.cosh(r), math.sinh(r)
    return np.array([
        [ch - sh * math.cos(theta), -sh * math.sin(theta)],
        [-sh * math.sin(theta), ch + sh * math.cos(theta)],
    ])


def _phase_block(phi: float) -> np.ndarray:
    return np.array([
        [math.cos(phi), -math.sin(phi)],
        [math.sin(phi), math.cos(phi)],
    ])


def gaussian_propagate(moments: GaussianMoments, element) -> GaussianMoments:
    """Apply one circuit element, given as a tagged tuple.

    Supported: ("displace", mode, alpha), ("phase", mode, phi),
    ("squeeze", mode, Squeeze), ("beamsplit", mode_a, mode_b, theta), the
    tuples circuits.apply_element takes.  The symplectic matrices mirror
    the Fock-side circuit convention.
    """
    name = element[0]
    n = moments.n_modes
    if name == "displace":
        _, mode, alpha = element
        _check_mode(mode, n)
        alpha = complex(alpha)
        mean = moments.mean.copy()
        mean[2 * mode] += 2.0 * alpha.real
        mean[2 * mode + 1] += 2.0 * alpha.imag
        return GaussianMoments(mean, moments.cov)
    big = np.eye(2 * n)
    if name == "phase":
        _, mode, phi = element
        _check_mode(mode, n)
        big[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = _phase_block(phi)
    elif name == "squeeze":
        _, mode, squeeze = element
        _check_mode(mode, n)
        if not isinstance(squeeze, Squeeze):
            raise TypeError("squeeze element takes a Squeeze")
        big[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = _squeeze_block(
            squeeze.r, squeeze.theta
        )
    elif name == "beamsplit":
        _, mode_a, mode_b, theta = element
        _check_mode(mode_a, n)
        _check_mode(mode_b, n)
        if mode_a == mode_b:
            raise ValueError("beamsplit needs two distinct modes")
        c, s = math.cos(theta), math.sin(theta)
        idx = [2 * mode_a, 2 * mode_a + 1, 2 * mode_b, 2 * mode_b + 1]
        # X_a' = c X_a - s P_b, P_a' = c P_a + s X_b, and symmetrically
        big[np.ix_(idx, idx)] = np.array([
            [c, 0.0, 0.0, -s],
            [0.0, c, s, 0.0],
            [0.0, -s, c, 0.0],
            [s, 0.0, 0.0, c],
        ])
    else:
        raise ValueError(f"unknown circuit element {name!r}")
    return GaussianMoments(big @ moments.mean, big @ moments.cov @ big.T)


def _check_mode(mode: int, n_modes: int):
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} outside 0..{n_modes - 1}")


def _symplectic_form(n_modes: int) -> np.ndarray:
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        omega[2 * m, 2 * m + 1] = 1.0
        omega[2 * m + 1, 2 * m] = -1.0
    return omega


def mean_photons_from_moments(moments: GaussianMoments, mode: int) -> float:
    """Mean photon number of one mode from its quadrature moments."""
    _check_mode(mode, moments.n_modes)
    herm = moments.cov + 1j * _symplectic_form(moments.n_modes)
    if np.linalg.eigvalsh(herm).min() < -1e-8:
        raise ValueError("covariance violates the uncertainty bound")
    mx = moments.mean[2 * mode]
    mp = moments.mean[2 * mode + 1]
    cxx = moments.cov[2 * mode, 2 * mode]
    cpp = moments.cov[2 * mode + 1, 2 * mode + 1]
    return (mx**2 + mp**2) / 4.0 + (cxx + cpp - 2.0) / 4.0
