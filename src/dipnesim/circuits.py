"""Unitary circuit elements and composite gadgets on truncated Fock states.

Beamsplitter convention, fixed across the library: reflection picks up +i,
transmission is unchanged, so coherent amplitudes map as

    (alpha_a, alpha_b) -> (cos(theta) alpha_a + i sin(theta) alpha_b,
                           cos(theta) alpha_b + i sin(theta) alpha_a)

with theta = pi/4 the 50:50 case.  The generator is pinned by that map:
B(theta) = exp(i theta (a+ b + a b+)).  It commutes with total photon number,
so the unitary is applied sector by sector; each sector generator is a real
symmetric tridiagonal matrix, and clipped sectors (where a cutoff truncates
the sector) are exponentiated after clipping, which keeps every element
exactly unitary on the truncated space.

interference_gadget applies the pickoff gadget to a dense 4-mode state.  It
is the test oracle for measure.l_intf, which reads the same circuit out from
single-mode marginals through two cached gathers over the same sectors and
truncated unitaries: _bs_vacuum_split (a split against vacuum) and
_bs_number_readout (the exit photon number in the Heisenberg picture).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from .fock import FockState, _warn_leak, marginal_number_distribution, tensor
from .states import Squeeze

# above this per-mode dimension, dense expm of the mode operator is replaced
# by sparse expm_multiply on the state block
_DENSE_EXPM_MAX = 400


@dataclass(frozen=True)
class GadgetSpec:
    """Symmetric pickoff-and-interfere gadget parameters.

    theta_split sets how much light leaves each system mode; the picked-off
    light is recombined with the opposite system mode at theta_interfere.
    With pi_shift the picked-off light gets a pi phase first, flipping the
    sign of the interference term in the exit photon count (favors aligned
    displacements instead of anti-aligned ones).
    """

    theta_split: float
    theta_interfere: float
    pi_shift: bool = False
    erasure_modes: tuple[int, int] = (2, 3)

    def __post_init__(self):
        for name, th in (("theta_split", self.theta_split), ("theta_interfere", self.theta_interfere)):
            if not 0.0 <= th < math.pi / 2:
                raise ValueError(f"{name} must satisfy 0 <= angle < pi/2, got {th}")
        e = tuple(int(m) for m in self.erasure_modes)
        if len(e) != 2 or len(set(e)) != 2 or not all(0 <= m < 4 for m in e):
            raise ValueError(f"erasure_modes must be two distinct indices in 0..3, got {e}")
        object.__setattr__(self, "erasure_modes", e)


def phase_shift(state: FockState, mode: int, phi: float) -> FockState:
    """Multiply the amplitude at occupation n by e^{i phi n}."""
    state.layout._check_mode(mode)
    d = state.layout.dims[mode]
    shape = [1] * state.layout.n_modes
    shape[mode] = d
    factor = np.exp(1j * phi * np.arange(d)).reshape(shape)
    return FockState(state.layout, (state.nd * factor).reshape(-1), state.leakage)


@lru_cache(maxsize=4096)
def _bs_sector(da: int, db: int, total: int):
    """Eigendecomposition of the beamsplitter generator in one number sector.

    Returns (occupations of mode a, eigenvalues, eigenvectors); eigenpairs are
    None for one-dimensional sectors.
    """
    j_lo = max(0, total - (db - 1))
    j_hi = min(da - 1, total)
    js = np.arange(j_lo, j_hi + 1)
    if js.size == 1:
        return js, None, None
    off = np.sqrt((js[:-1] + 1.0) * (total - js[:-1]))
    lam, vec = scipy.linalg.eigh_tridiagonal(np.zeros(js.size), off)
    return js, lam, vec


def _bs_sector_unitary(da: int, db: int, total: int, theta: float):
    """Mode-a occupations and beamsplit's truncated unitary U_N in one sector."""
    js, lam, vec = _bs_sector(da, db, total)
    if lam is None:
        return js, np.ones((1, 1), dtype=np.complex128)
    return js, (vec * np.exp(1j * theta * lam)) @ vec.T


def _frozen(*parts) -> tuple:
    out = tuple(np.concatenate(p) for p in parts)
    for arr in out:
        arr.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _bs_vacuum_split(da: int, db: int, theta: float):
    """B(theta) on (mode-a state) (x) vacuum, as one gather.

    Occupation N of mode a sits in sector N as |N, 0>, the last state of the
    sector, so it maps to the last column of U_N.  For a mode-a amplitude
    vector c, the da x db output has flat amplitudes out.flat[idx] = u * c[src].
    Returns read-only (idx, src, u).
    """
    idx, src, u = [], [], []
    for total in range(da):
        js, unitary = _bs_sector_unitary(da, db, total, theta)
        idx.append(js * db + (total - js))
        src.append(np.full(js.size, total))
        u.append(unitary[:, -1])
    return _frozen(idx, src, u)


@lru_cache(maxsize=16)
def _bs_number_readout(da: int, db: int, theta: float):
    """Photon number of mode b after B(theta), in the Heisenberg picture.

    Per number sector N, H_N = U_N^dag diag(N - js) U_N.  The entries of all
    sectors are flattened against flat indices into a da x da matrix of mode
    a and a db x db matrix of mode b, so that for Hermitian rho_a and rho_b

        Tr[(rho_a (x) rho_b) B^dag n_b B] = sum(rho_a.flat[ia] * rho_b.flat[ib] * h).real.

    Only the upper triangle of each sector is kept, with its off-diagonal
    entries doubled: the lower triangle adds the complex conjugate.
    Returns read-only (ia, ib, h).
    """
    ia, ib, h = [], [], []
    for total in range(da + db - 1):
        js, unitary = _bs_sector_unitary(da, db, total, theta)
        ks = total - js
        heis = unitary.conj().T @ (ks[:, None] * unitary)
        p, q = np.triu_indices(js.size)
        ia.append(js[p] * da + js[q])
        ib.append(ks[p] * db + ks[q])
        # Tr[rho H] pairs rho[x, y] with H[y, x]
        h.append(np.where(p == q, 1.0, 2.0) * heis[q, p])
    return _frozen(ia, ib, h)


def beamsplit(state: FockState, mode_a: int, mode_b: int, theta: float) -> FockState:
    """Two-mode beamsplitter B(theta); symmetric in its mode arguments."""
    state.layout._check_mode(mode_a)
    state.layout._check_mode(mode_b)
    if mode_a == mode_b:
        raise ValueError("beamsplit needs two distinct modes")
    arr = np.moveaxis(state.nd, (mode_a, mode_b), (0, 1))
    da, db = arr.shape[0], arr.shape[1]
    rest = arr.shape[2:]
    arr = arr.reshape(da, db, -1)
    out = np.empty_like(arr)
    for total in range(da + db - 1):
        js, lam, vec = _bs_sector(da, db, total)
        ks = total - js
        if lam is None:
            out[js, ks, :] = arr[js, ks, :]
        else:
            unitary = (vec * np.exp(1j * theta * lam)) @ vec.T
            out[js, ks, :] = unitary @ arr[js, ks, :]
    out = np.moveaxis(out.reshape((da, db) + rest), (0, 1), (mode_a, mode_b))
    return FockState(state.layout, out.reshape(-1), state.leakage)


def _apply_mode_generator(state: FockState, mode: int, build, what: str) -> FockState:
    """Exponentiate a single-mode generator and apply it along one axis.

    ``build(a)`` returns the anti-Hermitian generator in terms of the mode's
    d x d lowering operator a.  Up to _DENSE_EXPM_MAX, a is a dense array and
    the generator goes through dense scaling-and-squaring; above it, a is a
    sparse CSR matrix, so the generator is built sparse (never as dense
    d x d products) and applied with expm_multiply.
    """
    state.layout._check_mode(mode)
    d = state.layout.dims[mode]
    arr = np.moveaxis(state.nd, mode, 0)
    shape = arr.shape
    block = arr.reshape(d, -1)
    ladder = np.sqrt(np.arange(1.0, d))
    if d <= _DENSE_EXPM_MAX:
        block = scipy.linalg.expm(build(np.diag(ladder, 1))) @ block
    else:
        gen = build(scipy.sparse.diags(ladder, 1, format="csr"))
        block = expm_multiply(scipy.sparse.csr_matrix(gen), block)
    out = np.moveaxis(block.reshape(shape), 0, mode)
    result = FockState(state.layout, out.reshape(-1), state.leakage)
    _warn_leak(result.guard_band_mass(), what)
    return result


def displace(state: FockState, mode: int, alpha: complex) -> FockState:
    """Apply D(alpha) = exp(alpha a+ - conj(alpha) a) to one mode."""
    alpha = complex(alpha)
    if alpha == 0:
        return state

    def build(a):
        return alpha * a.conj().T - np.conj(alpha) * a

    return _apply_mode_generator(state, mode, build, f"displace(alpha={alpha:.4g})")


def squeeze_op(state: FockState, mode: int, squeeze: Squeeze) -> FockState:
    """Apply S(xi) = exp((conj(xi) a^2 - xi a+^2)/2) to one mode."""
    if squeeze.r == 0.0:
        return state
    xi = squeeze.r * cmath.exp(1j * squeeze.theta)

    def build(a):
        ad = a.conj().T
        return (np.conj(xi) * (a @ a) - xi * (ad @ ad)) / 2

    return _apply_mode_generator(state, mode, build, f"squeeze_op(r={squeeze.r:.4g})")


def apply_element(state: FockState, element) -> FockState:
    """Apply one circuit element, given as a tagged tuple.

    Supported: ("displace", mode, alpha), ("phase", mode, phi),
    ("squeeze", mode, Squeeze), ("beamsplit", mode_a, mode_b, theta); the
    same tuples analytics.gaussian_propagate takes.
    """
    name = element[0]
    if name == "displace":
        return displace(state, element[1], element[2])
    if name == "phase":
        return phase_shift(state, element[1], element[2])
    if name == "squeeze":
        return squeeze_op(state, element[1], element[2])
    if name == "beamsplit":
        return beamsplit(state, element[1], element[2], element[3])
    raise ValueError(f"unknown circuit element {name!r}")


def phase_to_dide(state: FockState, measured_mode: int = 0, lo_mode: int = 1) -> FockState:
    """Translate a phase-encoded pair (measured, local oscillator) to displacement form.

    50:50 beamsplit, then a -i phase shift (e^{-i pi n/2}) on the measured
    mode.  A measured amplitude +-i a against a real oscillator L comes out as
    real displacements ((L +- a)/sqrt(2), (L -+ a)/sqrt(2)).
    """
    out = beamsplit(state, measured_mode, lo_mode, math.pi / 4)
    return phase_shift(out, measured_mode, -math.pi / 2)


def dide_to_phase(state: FockState, mode_a: int = 0, mode_b: int = 1) -> FockState:
    """Inverse of phase_to_dide: +i phase shift on mode_a, then 50:50 beamsplit.

    The beamsplitter runs at -pi/4 so that the composition with phase_to_dide
    is the exact identity on the truncated space.
    """
    out = phase_shift(state, mode_a, math.pi / 2)
    return beamsplit(out, mode_a, mode_b, -math.pi / 4)


def _require_vacuum(state: FockState, mode: int) -> None:
    dist = marginal_number_distribution(state, mode, _allow_unnormalized=True)
    occupied = float(dist[1:].sum())
    if occupied > 1e-10:
        raise ValueError(f"erasure mode {mode} must start in vacuum, P(n>0) = {occupied:.6g}")


def interference_gadget(state: FockState, spec: GadgetSpec) -> FockState:
    """Symmetric pickoff-and-interfere circuit over four modes.

    The two modes not listed in spec.erasure_modes are the system modes.
    Each system mode is split at theta_split into its erasure mode, the
    picked-off light optionally gets a pi phase, then each erasure mode is
    recombined with the opposite system mode at theta_interfere.  All four
    modes are kept so exit photon counts can be read off exactly.
    """
    if state.layout.n_modes != 4:
        raise ValueError(f"gadget expects 4 modes, got {state.layout.n_modes}")
    e0, e1 = spec.erasure_modes
    s0, s1 = (m for m in range(4) if m not in spec.erasure_modes)
    _require_vacuum(state, e0)
    _require_vacuum(state, e1)
    out = beamsplit(state, s0, e0, spec.theta_split)
    out = beamsplit(out, s1, e1, spec.theta_split)
    if spec.pi_shift:
        out = phase_shift(out, e0, math.pi)
        out = phase_shift(out, e1, math.pi)
    out = beamsplit(out, s1, e0, spec.theta_interfere)
    out = beamsplit(out, s0, e1, spec.theta_interfere)
    return out


def inject(system_state: FockState, prepared_state: FockState, theta_inject: float) -> FockState:
    """Beamsplit each prepared mode into its matching system mode.

    Returns the joint state with system modes first; theta_inject = pi/2
    swaps the registers (up to reflection phases).
    """
    n = system_state.layout.n_modes
    if prepared_state.layout.n_modes != n:
        raise ValueError(
            f"mode-count mismatch: system has {n}, prepared has {prepared_state.layout.n_modes}"
        )
    out = tensor(system_state, prepared_state)
    for i in range(n):
        out = beamsplit(out, i, n + i, theta_inject)
    return out
