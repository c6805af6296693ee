"""Unitary circuit elements on truncated Fock states.

Beamsplitter convention, fixed across the library: reflection picks up +i,
transmission is unchanged, so coherent amplitudes map as

    (alpha_a, alpha_b) -> (cos(theta) alpha_a + i sin(theta) alpha_b,
                           cos(theta) alpha_b + i sin(theta) alpha_a)

with theta = pi/4 the 50:50 case.  The generator is pinned by that map:
B(theta) = exp(i theta (a+ b + a b+)).  It commutes with total photon number,
so the unitary is applied sector by sector; each sector generator is a real
symmetric tridiagonal matrix with a zero diagonal, and clipped sectors (where
a cutoff truncates the sector) are exponentiated after clipping, which keeps
every element exactly unitary on the truncated space.

_bs_plan(da, db) holds every sector's eigenpairs, cached per pair of
dimensions.  Ordered even then odd, a sector generator is [[0, B], [B^T, 0]],
so its eigenpairs come from the SVD of the half-size bidiagonal B (the
Schwinger picture of the lossless beamsplitter: Campos, Saleh & Teich,
Phys. Rev. A 40, 1371 (1989)).  Sectors of similar size share one
zero-padded stack.  beamsplit never forms a sector unitary: it applies
U_N = V exp(i theta Lambda) V^T as two real products on the float64 view of
the amplitudes, so a new angle costs no eigensolve and no m x m product.  On
a two-mode state each sector block is a vector and each of the two products
takes a whole stack at once; wider blocks are applied sector by sector from
unpadded views of the same stacks, where padding would only add flops.

Displacement and squeezing exponentiate real generators only.  With
R(phi) = diag(e^{i phi n}), R(phi) a R(-phi) = e^{-i phi} a holds on the
truncated space, so

    D(alpha) = R(arg alpha) exp(|alpha| (a+ - a)) R(-arg alpha)
    S(r e^{i theta}) = R(theta/2) exp((r/2)(a^2 - a+^2)) R(-theta/2)

are the same truncated-generator exponentials as the complex forms, while
_expm (scaling and squaring, on numpy) sees only a real matrix.  _expm takes
a stack, each matrix with its own scaling, so displacements applies every
D(alpha) of a sweep to one state from stacked exponentials, in chunks that
keep each stack within STACK_BYTES; displace and squeeze_op are one-row
calls.

GadgetSpec holds the pickoff gadget's parameters.  measure.l_intf reads that
circuit out from single-mode marginals through two cached tables, built from
the plan's stacks by batched products with no loop over sectors:
_bs_vacuum_split (a split against vacuum, as a gather: the last column of
each U_N) and _bs_number_readout (the exit photon number in the Heisenberg
picture, laid out on number-difference diagonals).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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


# sectors whose sizes lie within this ratio share one zero-padded stack
_STACK_RATIO = 1.25


class _SectorStack(NamedTuple):
    """Number sectors of one size range, zero-padded to a common size M.

    Row s is sector totals[s] with mode-a occupations j_lo[s] .. j_lo[s] +
    sizes[s] - 1.  lam[s] holds its eigenvalues and vec[s] its eigenvectors
    in columns; both are zero past sizes[s], so the padding adds exact zeros
    to every product.  idx[s] is the flat index j * db + k of each basis
    state |j, k> in a da x db array, and da * db past sizes[s].
    """

    totals: np.ndarray
    j_lo: np.ndarray
    sizes: np.ndarray
    lam: np.ndarray
    vec: np.ndarray
    idx: np.ndarray

    def valid(self) -> np.ndarray:
        """(S, M) mask of the unpadded entries."""
        return np.arange(self.lam.shape[1]) < self.sizes[:, None]

    def occupations(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, M) mode-a and mode-b occupations, running on past each size."""
        js = self.j_lo[:, None] + np.arange(self.lam.shape[1])
        return js, self.totals[:, None] - js


def _sector_eigenpairs(off: np.ndarray, lam: np.ndarray, vec: np.ndarray) -> None:
    """Eigenpairs of the zero-diagonal symmetric tridiagonal matrix T with
    sub-diagonal ``off``, written in ascending order into ``lam`` (m) and the
    columns of ``vec`` (m x m, zeroed).

    T couples even positions only to odd ones, so ordered even then odd it is
    [[0, B], [B^T, 0]] with B = T[0::2, 1::2] lower bidiagonal.  For
    B = U diag(sigma) W^T its eigenpairs are +-sigma_k with eigenvectors
    (u_k, +-w_k) / sqrt(2), and an odd size adds the zero mode (u_n, 0), the
    last column of the full U.
    """
    m = off.size + 1
    if m == 1:
        vec[0, 0] = 1.0
        return
    n = m // 2
    b = np.zeros(((m + 1) // 2, n))
    b[np.arange(n), np.arange(n)] = off[0::2]
    b[np.arange(1, m - n), np.arange(m - n - 1)] = off[1::2]
    u, sigma, wt = np.linalg.svd(b)
    half = math.sqrt(0.5)
    lam[:n] = -sigma
    lam[m - n:] = sigma[::-1]
    vec[0::2, :n] = half * u[:, :n]
    vec[1::2, :n] = -half * wt.T
    vec[0::2, m - n:] = half * u[:, n - 1::-1]
    vec[1::2, m - n:] = half * wt[::-1].T
    if m % 2:
        vec[0::2, n] = u[:, n]


@lru_cache(maxsize=16)
def _bs_plan(da: int, db: int):
    """The beamsplitter generator's eigenpairs in every number sector, as
    (stacks, sectors): the _SectorStacks, and each sector N as (js, ks, vec,
    lam) with vec and lam unpadded views into its stack.

    Sector N holds |j, N - j> for j from max(0, N - db + 1) to
    min(da - 1, N); its generator has sub-diagonal sqrt((j + 1)(N - j)).
    Sectors are grouped by size, each group one zero-padded stack, and a
    stack is filled one sector at a time, so no unpadded copy of the
    eigenvectors is alive next to it.
    """
    totals = np.arange(da + db - 1)
    j_lo = np.maximum(0, totals - (db - 1))
    sizes = np.minimum(da - 1, totals) - j_lo + 1
    order = np.argsort(sizes, kind="stable")
    groups, first = [], 0
    for at in range(1, order.size + 1):
        if at == order.size or sizes[order[at]] > _STACK_RATIO * sizes[order[first]]:
            groups.append(np.sort(order[first:at]))
            first = at
    stacks, sectors = [], {}
    for group in groups:
        width = int(sizes[group].max())
        lam = np.zeros((group.size, width))
        vec = np.zeros((group.size, width, width))
        idx = np.full((group.size, width), da * db)
        for row, total in enumerate(group):
            m = int(sizes[total])
            js = np.arange(j_lo[total], j_lo[total] + m)
            ks = total - js
            _sector_eigenpairs(np.sqrt((js[:-1] + 1.0) * ks[:-1]), lam[row, :m], vec[row, :m, :m])
            idx[row, :m] = js * db + ks
            sectors[total] = (js, ks, vec[row, :m, :m], lam[row, :m])
        for arr in (lam, vec, idx):
            arr.setflags(write=False)
        stacks.append(_SectorStack(totals[group], j_lo[group], sizes[group], lam, vec, idx))
    return tuple(stacks), tuple(sectors[n] for n in totals)


def _real_matmul(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a real m and a C-ordered complex x, as real gemms on x's float64 view."""
    return (m @ x.view(np.float64)).view(np.complex128)


def _expm(g: np.ndarray) -> np.ndarray:
    """exp(g) for a stack (..., d, d) of real antisymmetric g: [13/13] Pade
    approximant, scaled and squared.

    Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), scales g by 2^-s until its
    one-norm is at most theta_13 = 5.37, which bounds the error in norm only.  Entry
    (n, 0) of the squared product sums paths through 2^s factors, and the approximant
    is exact through x^26, so s also keeps (d - 1) / 2^s <= 8: every entry then keeps
    its relative accuracy, down to the ~1e-47 level-60 amplitude of a displaced
    vacuum.  Squaring 1 + f as f -> f^2 + 2f rounds relative to f, not to the
    identity, so the orthogonal result's norm drift is not doubled at each squaring.
    Each matrix keeps its own s, and squaring step t touches only the matrices with
    s > t, so every matrix of a stack comes out as it would alone.
    """
    d = g.shape[-1]
    stack = g.reshape(-1, d, d)
    s = [
        max(0, math.ceil(math.log2(max(norm / 5.371920351148152, (d - 1) / 8, 1.0))))
        for norm in np.abs(stack).sum(axis=1).max(axis=1).tolist()
    ]
    a = stack / np.array([2.0**e for e in s])[:, None, None]
    b = _PADE13
    eye = np.eye(d)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    f = np.linalg.solve(v - u, 2.0 * u)  # (v - u)^-1 (v + u) - 1
    for step in range(max(s)):
        if min(s) > step:
            f = f @ f + 2.0 * f
        else:
            rows = [row for row, e in enumerate(s) if e > step]
            part = f[rows]
            f[rows] = part @ part + 2.0 * part
    return (f + eye).reshape(g.shape)


def _frozen(*parts) -> tuple:
    out = tuple(np.concatenate(p) for p in parts)
    for arr in out:
        arr.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _bs_vacuum_split(da: int, db: int, theta: float):
    """B(theta) on (mode-a state) (x) vacuum, as one gather.

    Occupation N of mode a sits in sector N as |N, 0>, the last state of the
    sector, so it maps to the last column of U_N = V e^{i theta Lambda} V^T,
    which is V (e^{i theta lam} * V[last]): one batched product per stack.
    For a mode-a amplitude vector c, the da x db output has flat amplitudes
    out.flat[idx] = u * c[src].  Returns read-only (idx, src, u).
    """
    stacks, _ = _bs_plan(da, db)
    idx, src, u = [], [], []
    for st in stacks:
        rows = st.totals < da
        vec, sizes = st.vec[rows], st.sizes[rows]
        last = vec[np.arange(sizes.size), sizes - 1] * np.exp(1j * theta * st.lam[rows])
        cols = _real_matmul(vec, last[..., None])[..., 0]
        valid = st.valid()[rows]
        idx.append(st.idx[rows][valid])
        src.append(np.broadcast_to(st.totals[rows, None], valid.shape)[valid])
        u.append(cols[valid])
    return _frozen(idx, src, u)


# number-difference diagonals per block of the number readout
DIAGONAL_RUN = 16


@lru_cache(maxsize=16)
def _bs_number_readout(da: int, db: int, theta: float):
    """Photon number of mode b after B(theta), in the Heisenberg picture,
    laid out on number-difference diagonals.

    Per number sector N, H_N = U_N^dag diag(ks) U_N with ks = N - js.  Its
    parts C = V cos(theta Lambda) V^T and S = V sin(theta Lambda) V^T of
    U_N = C + i S are real symmetric, so H_N = CKC + SKS + i (CKS - (CKS)^T)
    with K = diag(ks): five real batched products per stack.  For Hermitian
    rho_a and rho_b, Tr[(rho_a (x) rho_b) B^dag n_b B] pairs rho_a[j, j + delta]
    rho_b[k, k - delta] with H_{j+k}[j + delta, j]; the entries with delta < 0
    add the complex conjugate of those with delta > 0, so

        Tr[...] = Re sum_delta s_delta^T G_delta e_delta,

    with s_delta[j] = rho_a[j, j + delta] and e_delta[m] = rho_b[m + delta, m]
    the delta-th diagonals of the two marginals and
    G_delta[j, k - delta] = H_{j+k}[j + delta, j], doubled for delta > 0.  Every
    (j, m) with j < da - delta and m < db - delta is a pair of states of one
    sector, so G_delta is dense.  Runs of DIAGONAL_RUN diagonals share one
    zero-padded block: block r is G[lo:lo + w] as (w, da - lo, db - lo) with
    lo = r DIAGONAL_RUN.  ia (delta, j) and ib (delta, m) gather the diagonals
    from rho_a and rho_b flattened with one trailing zero, which entries past
    a diagonal's end point at.  Returns read-only (ia, ib, blocks).
    """
    stacks, _ = _bs_plan(da, db)
    n = min(da, db)
    los = range(0, n, DIAGONAL_RUN)
    shapes = [(min(DIAGONAL_RUN, n - lo), da - lo, db - lo) for lo in los]
    offsets = np.cumsum([0] + [math.prod(shape) for shape in shapes])
    flat = np.zeros(offsets[-1], dtype=np.complex128)
    for st in stacks:
        js, ks = st.occupations()
        vec_t = st.vec.transpose(0, 2, 1)
        cos = (st.vec * np.cos(theta * st.lam)[:, None, :]) @ vec_t
        sin = (st.vec * np.sin(theta * st.lam)[:, None, :]) @ vec_t
        real = cos @ (ks[..., None] * cos)
        real += sin @ (ks[..., None] * sin)
        cross = cos @ (ks[..., None] * sin)
        p, q = np.triu_indices(st.lam.shape[1])
        # q in range keeps p, since q >= p
        keep = st.valid()[:, q]
        heis = real[:, q, p] + 1j * (cross[:, q, p] - cross[:, p, q])
        delta = q - p
        lo = delta - delta % DIAGONAL_RUN
        pos = offsets[delta // DIAGONAL_RUN] + ((delta - lo) * (da - lo) + js[:, p]) * (db - lo) + ks[:, p] - delta
        flat[pos[keep]] = (np.where(delta == 0, 1.0, 2.0) * heis)[keep]
    diag = np.arange(n)[:, None]
    j, m = np.arange(da), np.arange(db)
    ia = np.where(j + diag < da, j * (da + 1) + diag, da * da)
    ib = np.where(m + diag < db, (m + diag) * db + m, db * db)
    for arr in (flat, ia, ib):
        arr.setflags(write=False)
    blocks = tuple(flat[a:b].reshape(shape) for a, b, shape in zip(offsets[:-1], offsets[1:], shapes))
    return ia, ib, blocks


def beamsplit(state: FockState, mode_a: int, mode_b: int, theta: float) -> FockState:
    """Two-mode beamsplitter B(theta); symmetric in its mode arguments."""
    state.layout._check_mode(mode_a)
    state.layout._check_mode(mode_b)
    if mode_a == mode_b:
        raise ValueError("beamsplit needs two distinct modes")
    arr = np.moveaxis(state.nd, (mode_a, mode_b), (0, 1))
    da, db = arr.shape[0], arr.shape[1]
    stacks, sectors = _bs_plan(da, db)
    if arr.ndim == 2:
        # each sector block is a vector: apply a whole stack per product,
        # with its padding read from and written to one spare slot
        flat = np.zeros(da * db + 1, dtype=np.complex128)
        flat[:-1].reshape(da, db)[...] = arr
        out = np.empty_like(flat)
        for st in stacks:
            block = _real_matmul(st.vec.transpose(0, 2, 1), flat[st.idx][..., None])
            block *= np.exp(1j * theta * st.lam)[..., None]
            out[st.idx] = _real_matmul(st.vec, block)[..., 0]
        out = np.moveaxis(out[:-1].reshape(da, db), (0, 1), (mode_a, mode_b))
    else:
        # wide blocks: padding would cost flops, so each sector reads its
        # unpadded views; indexing (da, db, rest) keeps the moved view uncopied
        rest = arr.shape[2:]
        arr = arr.reshape(da, db, -1)
        out = np.empty_like(arr)
        for js, ks, vec, lam in sectors:
            # U_N x = vec (exp(i theta lam) * (vec.T x)), with vec real
            block = _real_matmul(vec.T, arr[js, ks, :])
            block *= np.exp(1j * theta * lam)[:, None]
            out[js, ks, :] = _real_matmul(vec, block)
        out = np.moveaxis(out.reshape((da, db) + rest), (0, 1), (mode_a, mode_b))
    return FockState(state.layout, out.reshape(-1), state.leakage)


# byte budget of one chunk of a stacked mode operation: of each (d, d)
# exponential stack and of each stack of rotated copies of the state
STACK_BYTES = 1 << 18


def _lowering(d: int) -> np.ndarray:
    """Dense d x d lowering operator."""
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


def _apply_mode_generator(state: FockState, mode: int, base: np.ndarray, scales, phis, whats) -> list[FockState]:
    """Apply R(phi_i) exp(scale_i G) R(-phi_i) along one axis, for each row i.

    R(phi) = diag(e^{i phi n}) rotates the phase out of the generator:
    R(phi) a R(-phi) = e^{-i phi} a holds on the truncated space too, so
    D(alpha) and S(xi) are the same truncated-generator exponentials with a
    real anti-symmetric G = ``base``, and _expm never sees a complex matrix.
    Rows go through in chunks of as many as fit in STACK_BYTES per stack (at
    least one): one stacked exponential per chunk, the state rotated by each
    R(-phi_i) in one C-order pass, each real exp(scale_i G) applied as a real
    gemm on the float64 view of its copy, and the result scaled by R(phi_i)
    in place.  Every row is bit for bit the one-row call, and each warns on
    its own guard-band mass.
    """
    d = state.layout.dims[mode]
    arr = np.moveaxis(state.nd, mode, 0)
    shape = arr.shape
    per = max(1, STACK_BYTES // (8 * max(d * d, 2 * arr.size)))
    results = []
    for lo in range(0, len(scales), per):
        scale = np.array(scales[lo : lo + per], dtype=np.float64)
        phi = np.array(phis[lo : lo + per], dtype=np.float64)
        ph = np.exp(1j * phi[:, None] * np.arange(d)).reshape((phi.size, d) + (1,) * (arr.ndim - 1))
        # R(-phi) applied while gathering the mode axis to the front, in one
        # pass; rebinding block frees it as soon as the product exists
        block = np.multiply(ph.conj(), arr, order="C").reshape(phi.size, d, -1)
        block = _real_matmul(_expm(scale[:, None, None] * base), block)
        block *= ph.reshape(phi.size, d, 1)
        for row, what in zip(block, whats[lo : lo + per]):
            out = np.moveaxis(row.reshape(shape), 0, mode)
            result = FockState(state.layout, out.reshape(-1), state.leakage)
            _warn_leak(result.guard_band_mass, what)
            results.append(result)
    return results


def displacements(state: FockState, mode: int, alphas) -> list[FockState]:
    """[displace(state, mode, alpha) for alpha in alphas], from stacked exponentials."""
    alphas = [complex(alpha) for alpha in alphas]
    moved = [alpha for alpha in alphas if alpha != 0]
    if not moved:
        return [state] * len(alphas)
    state.layout._check_mode(mode)
    a = _lowering(state.layout.dims[mode])
    out = iter(_apply_mode_generator(
        state,
        mode,
        a.T - a,
        [abs(alpha) for alpha in moved],
        [cmath.phase(alpha) for alpha in moved],
        [f"displace(alpha={alpha:.4g})" for alpha in moved],
    ))
    return [next(out) if alpha != 0 else state for alpha in alphas]


def displace(state: FockState, mode: int, alpha: complex) -> FockState:
    """Apply D(alpha) = exp(alpha a+ - conj(alpha) a) to one mode.

    Computed as R(arg alpha) exp(|alpha| (a+ - a)) R(-arg alpha).
    """
    return displacements(state, mode, (alpha,))[0]


def squeeze_op(state: FockState, mode: int, squeeze: Squeeze) -> FockState:
    """Apply S(xi) = exp((conj(xi) a^2 - xi a+^2)/2) to one mode.

    Computed as R(theta/2) exp((r/2)(a^2 - a+^2)) R(-theta/2) for
    xi = r e^{i theta}.
    """
    if squeeze.r == 0.0:
        return state
    state.layout._check_mode(mode)
    a = _lowering(state.layout.dims[mode])
    a2 = a @ a
    what = f"squeeze_op(r={squeeze.r:.4g})"
    return _apply_mode_generator(state, mode, a2 - a2.T, [squeeze.r / 2], [squeeze.theta / 2], [what])[0]


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
