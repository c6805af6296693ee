"""Heralded kitten states from photon subtraction off squeezed vacuum.

A weak beamsplitter (subtraction angle theta_sub) taps a squeezed-vacuum
mode; counting k photons in the tap heralds a kitten state in the kept
mode.  Everything here works in log space on the closed-form amplitudes,
so the infinite-squeezing limit and four-digit cutoffs are cheap.  The
two-mode simulation of the same circuit, kitten_by_subtraction in
tests/oracles.py, is the cross-check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import FockState, LeakageWarning, ModeLayout, vacuum_state
from .states import infinite_squeeze_log_even, log_factorial, r_from_squeeze_photons
from .states import squeezed_vacuum_log_even

# Extra levels kept beyond the cutoff when summing the amplitude tail.
TAIL_WINDOW = 600

# Relative tail mass above which the infinite-limit state is rejected.
TAIL_LIMIT = 1e-10

# Levels summed for a herald probability before giving up on convergence.
MAX_HORIZON = 64000


@dataclass(frozen=True)
class KittenSpec:
    """Parameters of one subtraction run.

    squeeze_photons may be math.inf for the infinite-squeezing limit
    (then only the conditional shape is defined, not a probability).
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
        """(r', c) with a^k S(r')|0> = S(r') sum_m c_m |m>: the tap leaves
        tanh r' = cos^2(theta_sub) tanh r (Dakna et al., PRA 55, 3184 (1997)),
        and c = (a cosh r' + a+ sinh r')^k |0> holds k + 1 nonnegative,
        unnormalized amplitudes: c.c = <a+^k a^k> in S(r')|0>."""
        tanh_r = 1.0 if self.infinite else math.tanh(r_from_squeeze_photons(self.squeeze_photons))
        r_sub = math.atanh(math.cos(self.theta_sub) ** 2 * tanh_r)
        root = np.sqrt(np.arange(1.0, self.k + 1))
        coeffs = np.zeros(self.k + 1)
        coeffs[0] = 1.0
        for _ in range(self.k):  # after j steps only levels <= j are populated
            up, down = math.sinh(r_sub) * root * coeffs[:-1], math.cosh(r_sub) * root * coeffs[1:]
            coeffs = np.append(0.0, up) + np.append(down, 0.0)
        return r_sub, coeffs


@dataclass(frozen=True)
class KittenState:
    """Heralded state plus its bookkeeping.

    probability is the herald probability P(k); it is math.nan in the
    infinite-squeezing limit where no normalizable input exists.
    mean_photons is computed from the untruncated amplitude series, not
    from the stored (cutoff) state, so it is good to the tail mass.
    """

    state: FockState
    probability: float
    mean_photons: float


def _log_kept_amplitudes(spec: KittenSpec, j_max: int):
    """Unnormalized log amplitudes of the kept mode after heralding k.

    Returns (levels, log_amp) on the support j = k (mod 2), j <= j_max.
    The factor i^k sin(theta)^k / sqrt(k!) common to every level is
    dropped; it cancels on normalization.
    """
    j = np.arange(spec.k % 2, j_max + 1, 2)
    n = j + spec.k
    # log |C_n| of the squeezed source, finite or limiting
    if spec.infinite:
        log_c = infinite_squeeze_log_even(n // 2)
    else:
        r = r_from_squeeze_photons(spec.squeeze_photons)
        log_c = squeezed_vacuum_log_even(r, n // 2)
    log_amp = (
        0.5 * (log_factorial(n) - log_factorial(j))
        + j * math.log(math.cos(spec.theta_sub))
        + log_c
    )
    return j, log_amp


def kitten_direct(spec: KittenSpec) -> KittenState:
    """Build the heralded kitten from closed-form amplitudes.

    Amplitudes are real and nonnegative (the source squeeze phase is
    fixed at pi, and the herald's global i^k is dropped).  Raises if the
    requested state does not exist: infinite squeezing with k = 0 is not
    normalizable, and zero squeezing cannot herald k >= 1.
    """
    if spec.infinite and spec.k == 0:
        raise ValueError(
            "infinite squeezing with k = 0 leaves a non-normalizable state"
        )
    layout = ModeLayout((spec.cutoff,))
    if spec.squeeze_photons == 0.0:
        if spec.k > 0:
            raise ValueError("zero squeezing heralds k >= 1 with probability 0")
        return KittenState(vacuum_state(layout), 1.0, 0.0)

    j, log_amp = _log_kept_amplitudes(spec, spec.cutoff + TAIL_WINDOW)
    w = np.exp(2.0 * (log_amp - log_amp.max()))
    # geometric bound on mass beyond the window; consecutive support
    # levels are 2 apart so the weight ratio is the squared step factor
    remainder = 0.0
    if len(w) >= 2 and w[-1] < w[-2]:
        rho = w[-1] / w[-2]
        remainder = w[-1] * rho / (1.0 - rho)
    total = w.sum() + remainder
    inside = j <= spec.cutoff
    tail = (w[~inside].sum() + remainder) / total

    if spec.infinite and tail > TAIL_LIMIT:
        raise ValueError(
            f"cutoff {spec.cutoff} leaves relative tail mass {tail:.3e} "
            f"(> {TAIL_LIMIT:.0e}) in the infinite-squeezing limit; raise it"
        )
    if tail > 1e-8:
        warnings.warn(
            f"kitten_direct: {tail:.3e} of the heralded mass lies beyond "
            f"cutoff {spec.cutoff}",
            LeakageWarning,
            stacklevel=2,
        )

    # renormalize within the cutoff: the kitten is a conditional state,
    # so post-selection renormalizes; the cut mass goes to leakage
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[j[inside]] = np.sqrt(w[inside] / w[inside].sum())
    mean = float((j * w).sum() / w.sum())
    prob = math.nan if spec.infinite else kitten_probability(spec)
    return KittenState(FockState(layout, amps, leakage=float(tail)), prob, mean)


def kitten_probability(spec: KittenSpec) -> float:
    """Herald probability P(k) for finite squeezing."""
    if spec.infinite:
        raise ValueError("herald probability is undefined at infinite squeezing")
    if spec.squeeze_photons == 0.0:
        return 1.0 if spec.k == 0 else 0.0
    # log of the factor |sin(theta)^k / sqrt(k!)| _log_kept_amplitudes drops
    log_const = spec.k * math.log(math.sin(spec.theta_sub)) - 0.5 * log_factorial(spec.k)
    horizon = 2000
    while True:
        _, log_amp = _log_kept_amplitudes(spec, horizon - 1)
        terms = np.exp(2.0 * (log_amp - log_amp.max()))
        if terms[-1] <= terms.max() * 1e-20:
            break
        if horizon >= MAX_HORIZON:
            raise ValueError(
                f"herald probability did not converge within {MAX_HORIZON} levels "
                f"(last term {terms[-1] / terms.max():.3e} of the largest)"
            )
        horizon *= 2
    return float(terms.sum() * math.exp(2.0 * (log_amp.max() + log_const)))


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
