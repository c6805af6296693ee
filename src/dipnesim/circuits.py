"""Unitary circuit elements on truncated Fock states.

Beamsplitter convention, fixed across the library: reflection picks up +i,
transmission is unchanged, so coherent amplitudes map as

    (alpha_a, alpha_b) -> (cos(theta) alpha_a + i sin(theta) alpha_b,
                           cos(theta) alpha_b + i sin(theta) alpha_a)

with theta = pi/4 the 50:50 case.  The generator is pinned by that map:
B(theta) = exp(i theta (a+ b + a b+)).  It commutes with total photon number,
so the unitary is applied sector by sector; each sector generator is a real
symmetric tridiagonal matrix, and clipped sectors (where a cutoff truncates
the sector) are exponentiated after clipping, which keeps every element
exactly unitary on the truncated space.  beamsplit never forms the sector
unitary U_N: it applies U_N = V exp(i theta Lambda) V^T in the cached real
eigenbasis of each sector, as two real products on the float64 view of the
sector block, so a new angle costs no eigensolve and no m x m product.

Displacement and squeezing exponentiate real generators only.  With
R(phi) = diag(e^{i phi n}), R(phi) a R(-phi) = e^{-i phi} a holds on the
truncated space, so

    D(alpha) = R(arg alpha) exp(|alpha| (a+ - a)) R(-arg alpha)
    S(r e^{i theta}) = R(theta/2) exp((r/2)(a^2 - a+^2)) R(-theta/2)

are the same truncated-generator exponentials as the complex forms, while
_expm (scaling and squaring, on numpy) sees only a real matrix.

GadgetSpec holds the pickoff gadget's parameters.  measure.l_intf reads that
circuit out from single-mode marginals through two cached gathers over the
same sectors and truncated unitaries as beamsplit: _bs_vacuum_split (a split
against vacuum) and _bs_number_readout (the exit photon number in the
Heisenberg picture).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import FockState, _warn_leak
from .states import Squeeze

# [13/13] Pade numerator coefficients b_k = (26 - k)! / (k! (13 - k)!)
_PADE13 = tuple(float(math.factorial(26 - k) // (math.factorial(k) * math.factorial(13 - k))) for k in range(14))


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

    def __post_init__(self):
        for name, th in (("theta_split", self.theta_split), ("theta_interfere", self.theta_interfere)):
            if not 0.0 <= th < math.pi / 2:
                raise ValueError(f"{name} must satisfy 0 <= angle < pi/2, got {th}")


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
    lam, vec = np.linalg.eigh(np.diag(off, -1))  # eigh reads the lower triangle
    return js, lam, vec


def _bs_sector_unitary(da: int, db: int, total: int, theta: float):
    """Mode-a occupations and beamsplit's truncated unitary U_N in one sector.

    Only the cached gathers use it; beamsplit applies U_N in the eigenbasis.
    """
    js, lam, vec = _bs_sector(da, db, total)
    if lam is None:
        return js, np.ones((1, 1), dtype=np.complex128)
    return js, (vec * np.exp(1j * theta * lam)) @ vec.T


def _real_matmul(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a real m and a C-ordered complex x, as one real gemm on x's float64 view."""
    return (m @ x.view(np.float64)).view(np.complex128)


def _expm(g: np.ndarray) -> np.ndarray:
    """exp(g) for a real antisymmetric g: [13/13] Pade approximant, scaled and squared.

    Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), scales g by 2^-s until its
    one-norm is at most theta_13 = 5.37, which bounds the error in norm only.  Entry
    (n, 0) of the squared product sums paths through 2^s factors, and the approximant
    is exact through x^26, so s also keeps (d - 1) / 2^s <= 8: every entry then keeps
    its relative accuracy, down to the ~1e-47 level-60 amplitude of a displaced
    vacuum.  Squaring 1 + f as f -> f^2 + 2f rounds relative to f, not to the
    identity, so the orthogonal result's norm drift is not doubled at each squaring.
    """
    d = g.shape[0]
    norm = float(np.abs(g).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(max(norm / 5.371920351148152, (d - 1) / 8, 1.0))))
    a = g / 2.0**s
    b = _PADE13
    eye = np.eye(d)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    f = np.linalg.solve(v - u, 2.0 * u)  # (v - u)^-1 (v + u) - 1
    for _ in range(s):
        f = f @ f + 2.0 * f
    return f + eye


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
        block = arr[js, ks, :]
        if lam is not None:
            # U_N x = vec (exp(i theta lam) * (vec.T x)), with vec real
            block = _real_matmul(vec.T, block)
            block *= np.exp(1j * theta * lam)[:, None]
            block = _real_matmul(vec, block)
        out[js, ks, :] = block
    out = np.moveaxis(out.reshape((da, db) + rest), (0, 1), (mode_a, mode_b))
    return FockState(state.layout, out.reshape(-1), state.leakage)


def _apply_mode_generator(state: FockState, mode: int, phi: float, build, what: str) -> FockState:
    """Apply R(phi) exp(G) R(-phi) along one axis, with G = build(a) real.

    R(phi) = diag(e^{i phi n}) rotates the phase out of the generator:
    R(phi) a R(-phi) = e^{-i phi} a holds on the truncated space too, so
    D(alpha) and S(xi) are the same truncated-generator exponentials with a
    real anti-symmetric G, and _expm never sees a complex matrix.
    ``build(a)`` returns G in terms of the mode's dense d x d lowering
    operator a.  The block is rotated by R(-phi) once, in C order, the real
    exp(G) is applied as one real gemm on its float64 view, and the result is
    scaled by R(phi) in place.
    """
    state.layout._check_mode(mode)
    d = state.layout.dims[mode]
    arr = np.moveaxis(state.nd, mode, 0)
    shape = arr.shape
    ladder = np.sqrt(np.arange(1.0, d))
    ph = np.exp(1j * phi * np.arange(d)).reshape((d,) + (1,) * (arr.ndim - 1))
    # R(-phi) applied while gathering the mode axis to the front, in one pass;
    # rebinding block frees it as soon as the product exists
    block = np.multiply(ph.conj(), arr, order="C").reshape(d, -1)
    block = _real_matmul(_expm(build(np.diag(ladder, 1))), block)
    block *= ph.reshape(d, 1)
    out = np.moveaxis(block.reshape(shape), 0, mode)
    result = FockState(state.layout, out.reshape(-1), state.leakage)
    _warn_leak(result.guard_band_mass(), what)
    return result


def displace(state: FockState, mode: int, alpha: complex) -> FockState:
    """Apply D(alpha) = exp(alpha a+ - conj(alpha) a) to one mode.

    Computed as R(arg alpha) exp(|alpha| (a+ - a)) R(-arg alpha).
    """
    alpha = complex(alpha)
    if alpha == 0:
        return state
    mag = abs(alpha)

    def build(a):
        return mag * (a.T - a)

    what = f"displace(alpha={alpha:.4g})"
    return _apply_mode_generator(state, mode, cmath.phase(alpha), build, what)


def squeeze_op(state: FockState, mode: int, squeeze: Squeeze) -> FockState:
    """Apply S(xi) = exp((conj(xi) a^2 - xi a+^2)/2) to one mode.

    Computed as R(theta/2) exp((r/2)(a^2 - a+^2)) R(-theta/2) for
    xi = r e^{i theta}.
    """
    if squeeze.r == 0.0:
        return state
    r = squeeze.r

    def build(a):
        a2 = a @ a
        return (r / 2) * (a2 - a2.T)

    what = f"squeeze_op(r={r:.4g})"
    return _apply_mode_generator(state, mode, squeeze.theta / 2, build, what)


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
