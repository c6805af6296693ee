"""Closed-form oracles and auxiliary formulas.

Interference-loss prediction, the equal-photon-count amplitude and its
brute-force twin, antisqueezing-fraction limits, and Gaussian moment
propagation are independent of the Fock simulator; the tests play them
against it as cross-checks in both directions.  The squeeze-to-match
solver is the exception: it refits antisqueezed kittens with
catfit.fit_squeezed_cats.  A heralded kitten antisqueezed by rho is
S(r' + rho) applied to the k + 1 amplitudes of KittenSpec.core()
(catfit.kitten_target), so the search builds no state per trial;
kitten.antisqueezed_kitten builds the matched state once, for its guard
mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .catfit import fit_squeezed_cats, kitten_target
from .kitten import antisqueezed_kitten
from .states import Squeeze

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


def squeeze_fraction_strong(d0: float, r0: float, r: float) -> tuple[float, float]:
    """Fraction of photons from squeezing after antisqueezing by r.

    A seed displacement d0 and seed squeezing r0 antisqueezed by r hold
    d0^2 e^{2r} displacement photons against sinh^2(r + r0) squeezing
    photons.  Returns (exact fraction, strong-limit fraction) where the
    limit replaces the ratio by 4 d0^2 / e^{2 r0}.
    """
    if not d0 > 0.0:
        raise ValueError("d0 must be positive")
    if not (r0 >= 0.0 and r >= 0.0):
        raise ValueError("squeezing magnitudes must be nonnegative")
    strong = 1.0 / (1.0 + 4.0 * d0**2 / math.exp(2.0 * r0))
    squeeze_photons = math.sinh(r + r0) ** 2
    if squeeze_photons == 0.0:
        return 0.0, strong
    ratio = d0**2 * math.exp(2.0 * r) / squeeze_photons
    return 1.0 / (1.0 + ratio), strong


# match search: exit tolerance on the fitted displacement, round cap, offset
# of the second start point, and outward step while no bracket exists
MATCH_TOLERANCE = 1e-7
MATCH_MAX_ROUNDS = 40
SECANT_STEP = 0.05
BRACKET_STEP = 0.2


@dataclass(frozen=True)
class MatchResult:
    """Antisqueezing needed to reach a displacement target, plus the
    photon overhead: excess_fraction = 1 - target^2 / mean photons of
    the antisqueezed state.  guard_mass is the matched state's tail
    beyond the work cutoff (antisqueezed_kitten's leakage); the search
    itself has no cutoff."""

    r_required: float
    excess_fraction: float
    guard_mass: float


def _secant_next(tried: list[tuple[float, float]]) -> float:
    """Next r after the (r, fitted alpha - target) points tried: the secant
    through the last two; the bracket's midpoint when that step leaves the
    bracket or is undefined; BRACKET_STEP outward while there is no bracket
    and the secant does not point at the target."""
    (r0, f0), (r1, f1) = tried[-2:]
    r = r1 - f1 * (r1 - r0) / (f1 - f0) if f1 != f0 else math.nan
    below = [ri for ri, fi in tried if fi < 0.0]
    above = [ri for ri, fi in tried if fi > 0.0]
    if below and above:
        lo, hi = sorted((max(below), min(above)))
        return r if lo < r < hi else 0.5 * (lo + hi)
    if (r - r1) * f1 < 0.0:  # False for nan
        return r
    return (min if f1 > 0.0 else max)(ri for ri, _ in tried) - math.copysign(BRACKET_STEP, f1)


def squeeze_to_match(pairs, work_cutoff: int) -> list[MatchResult]:
    """Antisqueezing that brings each source kitten's fitted displacement
    to its target, for (source KittenSpec, source alpha, target alpha)
    pairs, the source alpha being the kitten's own fit.

    One secant search per pair (_secant_next), from log(target / source)
    and SECANT_STEP above it; a round fits the kitten_target of every
    pair still searching in one fit_squeezed_cats call, each on its
    k + 1 amplitudes.  A pair stops at the first r whose fit is within
    MATCH_TOLERANCE of its target and reports that fit; a pair that does
    not get there raises.  Negative r_required (plain squeezing) answers
    a target below the source.  The matched state is then built once on
    work_cutoff levels for its guard mass."""
    pairs = list(pairs)
    for _, source_alpha, target in pairs:
        if target <= 0.0:
            raise ValueError("target displacement must be positive")
        if source_alpha <= 1e-9:
            raise ValueError("source has no fitted displacement to match")
    found: list[tuple[float, float] | None] = [None] * len(pairs)
    tried: list[list[tuple[float, float]]] = [[] for _ in pairs]
    todo = [(i, math.log(t / a) + d) for i, (_, a, t) in enumerate(pairs) for d in (0.0, SECANT_STEP)]
    for _ in range(MATCH_MAX_ROUNDS):
        fits = fit_squeezed_cats([kitten_target(pairs[i][0], r) for i, r in todo])
        for (i, r), fit in zip(todo, fits):
            tried[i].append((r, fit.alpha - pairs[i][2]))
            if abs(tried[i][-1][1]) < MATCH_TOLERANCE and found[i] is None:
                found[i] = (r, fit.squeeze_fraction)
        todo = [(i, _secant_next(tried[i])) for i in dict.fromkeys(i for i, _ in todo) if found[i] is None]
        if not todo:
            return [
                MatchResult(r, excess, antisqueezed_kitten(spec, r, work_cutoff).leakage)
                for (spec, _, _), (r, excess) in zip(pairs, found)
            ]
    spec, source_alpha, target = pairs[todo[0][0]]
    raise ValueError(
        f"squeeze_to_match: the k={spec.k} source (alpha {source_alpha:.9g}) is still "
        f"{min(abs(f) for _, f in tried[todo[0][0]]):.3g} from target {target:.9g} after "
        f"{MATCH_MAX_ROUNDS} rounds (tolerance {MATCH_TOLERANCE:.0e})"
    )


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
        # propagation rounds relative to the size of cov, so the bound does too
        asym = float(np.max(np.abs(cov - cov.T)))
        if asym > 1e-12 and asym > 1e-12 * float(np.max(np.abs(cov))):
            raise ValueError("cov must be symmetric within 1e-12 max(1, max |cov|)")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    @cached_property
    def uncertainty_gap(self) -> float:
        """Least eigenvalue of cov + i Omega, which the uncertainty bound
        keeps >= 0, computed on first read."""
        omega = np.kron(np.eye(self.n_modes), [[0.0, 1.0], [-1.0, 0.0]])
        return float(np.linalg.eigvalsh(self.cov + 1j * omega).min())


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


def mean_photons_from_moments(moments: GaussianMoments, mode: int) -> float:
    """Mean photon number of one mode from its quadrature moments."""
    _check_mode(mode, moments.n_modes)
    if moments.uncertainty_gap < -1e-8:
        raise ValueError("covariance violates the uncertainty bound")
    mx = moments.mean[2 * mode]
    mp = moments.mean[2 * mode + 1]
    cxx = moments.cov[2 * mode, 2 * mode]
    cpp = moments.cov[2 * mode + 1, 2 * mode + 1]
    return (mx**2 + mp**2) / 4.0 + (cxx + cpp - 2.0) / 4.0
