"""Heralded kitten states from photon subtraction off squeezed vacuum.

A weak beamsplitter (subtraction angle theta_sub) taps a squeezed-vacuum
mode; counting k photons in the tap heralds a^k S(r')|0> in the kept
mode, with tanh r' = cos^2(theta_sub) tanh r (Dakna et al., PRA 55, 3184
(1997)).  KittenSpec.core() is the one description of that state: r' and
k + 1 amplitudes c, worked out once per spec and kept with it, so no
function takes a copy of it.  The herald probability, the photon number
and the Fock state on any cutoff all follow from it in closed form, at
finite or infinite squeezing; one Horner pass (_build) makes the Fock
states of a whole batch of kittens, and herald_tails reads a sweep's
truncated tails from it.  The two-mode simulation of the same circuit,
kitten_by_subtraction in tests/oracles.py, is the cross-check, and the
log-space series of the shifted source there is the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock import FockState, ModeLayout, _warn_leak
from .states import squeezed_vacuum_log_even

# Relative tail mass above which the infinite-limit state is rejected.
TAIL_LIMIT = 1e-10


def _ladder(k: int, x: float, y: float) -> np.ndarray:
    """sqrt(k!/p!) x^p y^i / i! at level p = k - 2i, zero at the other
    parity: the levels of (u a + x a+)^k |0> / sqrt(k!) with y = u x / 2.
    y and the factorial ratio share one running product, so for a kitten's
    x < 1 and y <= 1 no factor overflows below k ~ 2000; past that, it
    raises rather than return a non-finite level."""
    out, term = np.zeros(k + 1), 1.0
    for i in range(k // 2 + 1):
        p = k - 2 * i
        if i:
            term *= y * math.sqrt((p + 2) * (p + 1)) / i
        out[p] = term * x**p
    if not np.isfinite(out).all():
        raise ValueError(f"the k={k} kitten's amplitudes overflow")
    return out


@dataclass(frozen=True)
class KittenSpec:
    """Parameters of one subtraction run.

    squeeze_photons may be math.inf for the infinite-squeezing limit:
    the heralded state exists there, its probability does not.
    """

    squeeze_photons: float
    theta_sub: float
    k: int
    cutoff: int

    def __post_init__(self):
        s = self.squeeze_photons
        if not (s >= 0.0):
            raise ValueError("squeeze_photons must be >= 0 (math.inf allowed)")
        if not (0.0 < self.theta_sub < math.pi / 2):
            raise ValueError("theta_sub must lie strictly inside (0, pi/2)")
        if self.k < 0:
            raise ValueError("k must be a nonnegative integer")
        if self.cutoff < 1:
            raise ValueError("cutoff must be at least 1")

    @property
    def infinite(self) -> bool:
        return math.isinf(self.squeeze_photons)

    def core(self) -> tuple[float, np.ndarray]:
        """(r', c) with tan^k(theta_sub) / sqrt(k!) a^k S(r')|0> = S(r') c:
        the tap leaves tanh r' = cos^2(theta_sub) tanh r, and
        c = tan^k / sqrt(k!) (a cosh r' + a+ sinh r')^k |0> holds k + 1
        nonnegative amplitudes.  That herald scale makes the probability
        of k counts (cosh r' / cosh r) c.c, and keeps c.c finite.

        With sinh^2 r = S, sinh r' = cos^2 sqrt(S) / sqrt(1 + S sin^2 (1 + cos^2)),
        cos^2 / (sin sqrt(1 + cos^2)) at S = inf: no tanh r, which rounds
        near 1, and no cancellation.  Worked out on the first call and kept,
        so every call returns the same tuple, c read-only; a spec whose
        amplitudes overflow constructs, and raises here."""
        return self._core

    @cached_property
    def _core(self) -> tuple[float, np.ndarray]:
        cos_sq, sin = math.cos(self.theta_sub) ** 2, math.sin(self.theta_sub)
        if self.infinite:
            sinh_sub = cos_sq / (sin * math.sqrt(1.0 + cos_sq))
        else:
            s = self.squeeze_photons
            sinh_sub = cos_sq * math.sqrt(s) / math.sqrt(1.0 + s * sin**2 * (1.0 + cos_sq))
        r_sub = math.asinh(sinh_sub)
        x = math.tan(self.theta_sub) * sinh_sub
        coeffs = _ladder(self.k, x, 0.5 * x * math.tan(self.theta_sub) * math.cosh(r_sub))
        coeffs.setflags(write=False)
        return r_sub, coeffs


@dataclass(frozen=True)
class KittenState:
    """Heralded state plus its bookkeeping.

    probability is the herald probability P(k); it is math.nan in the
    infinite-squeezing limit where no normalizable input exists.
    mean_photons is the closed-form <a+a> of the untruncated state, not
    of the stored (cutoff) one.
    """

    state: FockState
    probability: float
    mean_photons: float


def photon_number(squeeze: float, coeffs: np.ndarray) -> float:
    """<a+a> of S(squeeze e^{i pi}) c / |c| in closed form:
    cosh(2R) n_c + sinh^2 R + sinh(2R) <a^2>_c for real c."""
    norm_sq = coeffs @ coeffs
    levels = np.arange(len(coeffs))
    n_c = levels @ coeffs**2 / norm_sq
    pair_c = (coeffs[:-2] * coeffs[2:]) @ np.sqrt(levels[1:-1] * levels[2:]) / norm_sq
    return float(
        math.cosh(2.0 * squeeze) * n_c + math.sinh(squeeze) ** 2 + math.sinh(2.0 * squeeze) * pair_c
    )


def _build(rows, work_cutoff: int) -> tuple[np.ndarray, list[float], list[float]]:
    """The kittens of rows (spec, rho), each antisqueezed by rho, on
    work_cutoff levels in one Horner pass: unnormalized amplitudes (a row
    each), kept norm^2 and the tail cut off against c.c of spec.core().
    Every row sees the arithmetic of its own one-row call; a zero or
    non-finite kept mass raises."""
    dim, n = work_cutoff + 1, len(rows)
    bigs = np.array([spec.core()[0] + rho for spec, rho in rows])
    vac, squeezed = np.zeros((n, dim)), bigs != 0.0  # S(R)|0> per row
    vac[~squeezed, 0] = 1.0
    big, m = bigs[squeezed, None], np.arange((dim + 1) // 2)
    sign = np.where((big < 0.0) & (m % 2 == 1), -1.0, 1.0)  # sign(R)^m
    vac[squeezed, ::2] = sign * np.exp(squeezed_vacuum_log_even(np.abs(big), m))
    # p_k solves p_{j+1} = c z p_j + h p_j', p_0 = 1, with c = sinh r' / cosh R
    # and h = cosh rho; with the herald scale tan^k / sqrt(k!), its
    # coefficient of z^p / sqrt(p!) is _ladder(k, x, x tan h / 2)[p], x = tan c
    ks = np.array([spec.k for spec, _ in rows])
    coeffs = np.zeros((n, ks.max(initial=0) + 1))
    for i, (spec, rho) in enumerate(rows):
        tan, r_sub = math.tan(spec.theta_sub), spec.core()[0]
        x = tan * math.sinh(r_sub) / math.cosh(r_sub + rho)
        coeffs[i, : spec.k + 1] = _ladder(spec.k, x, 0.5 * x * tan * math.cosh(rho))
    # Horner in a+ / sqrt(p + 1); a+ only moves mass up, so the kept levels
    # are exact.  With the rows in falling k, the rows under way at step p
    # (k > p) are a prefix, and those with k = p enter right after it.
    order = np.argsort(-ks, kind="stable")
    ks, coeffs, vac = ks[order], coeffs[order], vac[order]
    root = np.sqrt(np.arange(1.0, dim))
    amps = np.zeros((n, dim))
    for p in range(coeffs.shape[1] - 1, -1, -1):
        on, enter = np.count_nonzero(ks > p), np.count_nonzero(ks >= p)
        live = amps[:on]
        live[:, 1:] = live[:, :-1] * root
        live[:, 0] = 0.0
        live *= 1.0 / math.sqrt(p + 1)
        adds = coeffs[:on, p] != 0.0
        if adds.any():
            np.add(live, coeffs[:on, p, None] * vac[:on], out=live, where=adds[:, None])
        amps[on:enter] = coeffs[on:enter, p, None] * vac[on:enter]
    amps[order] = amps.copy()  # back to the callers' row order
    kept, tails = [], []
    for (spec, _), row in zip(rows, amps):
        mass = float(row @ row)
        if not (math.isfinite(mass) and mass > 0.0):
            raise ValueError(
                f"the k={spec.k} kitten has norm^2 {mass:.3g} on cutoff {work_cutoff}: a herald "
                "of probability 0 (zero squeezing), or amplitudes that under- or overflow"
            )
        kept.append(mass)
        _, core = spec.core()
        tails.append(max(0.0, 1.0 - mass / (core @ core)))  # rounding leaves ~1e-16 of either sign
    return amps, kept, tails


def _one(spec: KittenSpec, rho: float, work_cutoff: int) -> FockState:
    """The one-row _build, normalized."""
    amps, kept, tails = _build([(spec, rho)], work_cutoff)
    return FockState(ModeLayout((work_cutoff,)), amps[0] / math.sqrt(kept[0]), tails[0])


def antisqueezed_kitten(spec: KittenSpec, rho: float, work_cutoff: int) -> FockState:
    """The kitten of spec antisqueezed by rho along its displacement axis
    (rho < 0 squeezes), normalized on work_cutoff levels.  S(rho) a^k S(r')|0>
    = (a cosh rho - a+ sinh rho)^k S(R)|0> with R = r' + rho; moving each a
    through S(R)|0> leaves p_k(a+) S(R)|0>, a polynomial with nonnegative
    coefficients in a+, exact on any cutoff (for R < 0 the squeeze flips
    axis and the even amplitudes alternate in sign).  Its leakage is the
    tail cut off, against the exact norm^2 c.c of KittenSpec.core; it warns
    above LEAK_THRESHOLD, and a zero or overflowed build raises."""
    state = _one(spec, rho, work_cutoff)
    _warn_leak(state.leakage, f"antisqueezed_kitten(k={spec.k}, rho={rho:.6g}) at work cutoff {work_cutoff}")
    return state


def _check_herald(spec: KittenSpec, tail: float) -> None:
    if spec.infinite and tail > TAIL_LIMIT:
        raise ValueError(
            f"cutoff {spec.cutoff} leaves relative tail mass {tail:.3e} "
            f"(> {TAIL_LIMIT:.0e}) in the infinite-squeezing limit; raise it"
        )
    _warn_leak(tail, f"kitten_direct(k={spec.k}) at cutoff {spec.cutoff}")


def herald_tails(specs: list[KittenSpec]) -> list[float]:
    """kitten_direct(spec).state.leakage of every spec (one cutoff for all),
    from one _build and with kitten_direct's raise and warning per row, but
    no state kept."""
    if not specs:
        return []
    if len({spec.cutoff for spec in specs}) > 1:
        raise ValueError("herald_tails needs one cutoff for all specs")
    _, _, tails = _build([(spec, 0.0) for spec in specs], specs[0].cutoff)
    for spec, tail in zip(specs, tails):
        _check_herald(spec, tail)
    return tails


def kitten_direct(spec: KittenSpec) -> KittenState:
    """The heralded kitten on spec.cutoff levels (antisqueezed_kitten at
    rho = 0), with the herald probability and the photon number of the
    untruncated state from the same core.

    Amplitudes are real and nonnegative (the source squeeze phase is
    fixed at pi, and the herald's global i^k is dropped).  Raises where
    the state does not exist (zero squeezing cannot herald k >= 1) and
    where an infinite-squeezing tail beyond the cutoff exceeds TAIL_LIMIT.
    """
    state = _one(spec, 0.0, spec.cutoff)
    _check_herald(spec, state.leakage)
    prob = math.nan if spec.infinite else kitten_probability(spec)
    return KittenState(state, prob, photon_number(*spec.core()))


def kitten_probability(spec: KittenSpec) -> float:
    """Herald probability P(k) = (cosh r' / cosh r) c.c for finite
    squeezing, with (r', c) = spec.core() and cosh r = sqrt(1 + S)."""
    if spec.infinite:
        raise ValueError("herald probability is undefined at infinite squeezing")
    r_sub, core = spec.core()
    return math.cosh(r_sub) / math.sqrt(1.0 + spec.squeeze_photons) * float(core @ core)


def peak_estimate(k: int, theta_sub: float) -> float:
    """Level at which the k-herald amplitude envelope peaks, in the
    infinite-squeezing limit: k / (-2 log cos theta_sub).

    k = 0 gives 0; theta_sub -> 0 diverges and returns math.inf.
    """
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    if not (0.0 <= theta_sub < math.pi / 2):
        raise ValueError("theta_sub must lie in [0, pi/2)")
    if k == 0:
        return 0.0
    log_cos = math.log(math.cos(theta_sub))
    if log_cos == 0.0:
        return math.inf
    return -k / (2.0 * log_cos)
