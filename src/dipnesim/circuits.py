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

are the same truncated-generator exponentials as the complex forms, with a
real G.  On a one-mode state they go through _mode_action: the generators
are banded (a+ - a tridiagonal, a^2 - a+^2 tridiagonal in even-then-odd
order), so a stack of vectors, each with its own generator, scale and
phase, takes Taylor steps of shifted-slice products (Al-Mohy & Higham, SIAM
J. Sci. Comput. 33, 488 (2011)), with no d^3 work and no BLAS call.
displacements applies a sweep's D(alpha) to a state as one batch, and
oracle-check runs its circuits' one-mode prefixes through it in lockstep.
_expm (scaling and squaring, on numpy) serves multi-mode factors only: with the
phases folded in, one complex matmul per step along the mode axis, no copy.

GadgetSpec holds the pickoff gadget's parameters.  measure.l_intf reads that
circuit out from single-mode marginals through _number_trace, which reads
_bs_number_readout: the exit photon number in the Heisenberg picture, laid
out on number-difference diagonals and built from the plan's stacks by
batched products with no loop over sectors.
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
    """exp(g) for one real antisymmetric d x d g: [13/13] Pade approximant,
    scaled and squared.

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


def _number_trace(a: np.ndarray, b: np.ndarray, theta: float) -> float:
    """Re Tr[(a (x) b) B(theta)^dag n_b B(theta)] for Hermitian a and b:
    Re sum_delta s_delta^T G_delta e_delta over the _bs_number_readout
    layout, one gather of each matrix's diagonals, then one batched product
    per run of diagonals."""
    da, db = a.shape[0], b.shape[0]
    ia, ib, blocks = _bs_number_readout(da, db, theta)
    a_diag, b_diag = np.append(a.ravel(), 0.0)[ia], np.append(b.ravel(), 0.0)[ib]
    total = 0.0
    for block in blocks:
        width, rows, cols = block.shape
        run = slice(da - rows, da - rows + width)
        sg = np.matmul(a_diag[run, None, :rows], block)[:, 0]
        total += float(np.einsum("dm,dm->", sg, b_diag[run, :cols]).real)
    return total


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


def _lowering(d: int) -> np.ndarray:
    """Dense d x d lowering operator."""
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


# (m, theta_m): m Taylor terms of exp(A) keep a backward error <= 2^-53 while
# ||A||_1 <= theta_m (Al-Mohy & Higham 2011, Table 3.1)
_TAYLOR = ((5, 2.4e-3), (10, 0.144), (15, 0.641), (20, 1.44), (25, 2.43), (30, 3.54),
           (35, 4.7), (40, 6.0), (45, 7.2), (50, 8.5), (55, 9.9))


def _mode_action(vecs: np.ndarray, powers, scales, phis) -> np.ndarray:
    """R(phi_i) exp(scale_i G_i) R(-phi_i) vecs[i] for a (k, d) stack of
    one-mode vectors, with G_i = a+ - a (powers[i] = 1) or a^2 - a+^2 (2).

    Row i takes s_i steps of up to m_i Taylor terms, the least m_i s_i with
    ||scale_i G_i||_1 / s_i <= theta_m (Al-Mohy & Higham) and a mean reach
    per step, r / s_i of the r generator applications that lead to level
    d - 1, of at most m_i / 3.  That is _expm's relative tail rule,
    (d - 1) / 2^s <= 8 for a degree-26-exact approximant: every level keeps
    its relative accuracy.  A step ends early once two consecutive terms lie
    below 2^-53 of the sum in every entry (Al-Mohy & Higham's test, taken
    entrywise and checked every eighth term).  Rows are held level-first,
    between two zero levels, so a term is two products on shifted slices of
    the float64 view and a sum.  Every row is bit for bit the row run alone.
    """
    k, d = vecs.shape
    # G_i in level order (even then odd levels for power 2) is tridiagonal:
    # (G x)[j] = low[j] x[j - 1] + high[j] x[j + 1]
    power = np.asarray(powers)[:, None]
    order = np.where(power == 1, np.arange(d), np.concatenate([np.arange(0, d, 2), np.arange(1, d, 2)]))
    n = order.astype(np.float64)
    high = np.where(n + power < d, np.where(power == 2, np.sqrt((n + 1) * (n + 2)), -np.sqrt(n + 1)), 0.0)
    low = np.where(power == 2, -np.sqrt(n * (n - 1)), np.sqrt(n))
    # (m, s) per row: the least m s, ties to the larger m
    degrees, thetas = np.array(_TAYLOR).T
    beta = np.asarray(scales, dtype=np.float64) * (np.abs(low) + np.abs(high)).max(axis=1)
    reach = np.ceil((d - 1) / power[:, 0])
    counts = np.maximum(np.ceil(beta[:, None] / thetas), np.ceil(3 * reach[:, None] / degrees)).clip(min=1)
    pick = degrees.size - 1 - (degrees * counts)[:, ::-1].argmin(axis=1)
    plans = np.stack([degrees[pick], counts[np.arange(k), pick]], axis=1).astype(int)
    # each row's coefficients, scaled to one step, for both of its float columns
    step_scale = (np.asarray(scales, dtype=np.float64) / plans[:, 1])[:, None]
    low, high = (np.repeat((band * step_scale).T, 2, axis=1) for band in (low, high))
    rot = np.exp(1j * np.asarray(phis, dtype=np.float64)[:, None] * np.arange(d))
    rows = np.arange(k)[:, None]
    cur = np.ascontiguousarray((vecs * rot.conj())[rows, order].T)
    for step in range(int(plans[:, 1].max(initial=0))):
        live = np.flatnonzero(plans[:, 1] > step)
        cols, degree = (2 * live[:, None] + np.arange(2)).reshape(-1), plans[live, 0]
        lo, hi = np.ascontiguousarray(low[:, cols]), np.ascontiguousarray(high[:, cols])
        term, nxt = np.zeros((2, d + 2, cols.size))
        term[1:-1] = np.ascontiguousarray(cur[:, live]).view(np.float64)
        total, out, tmp = term[1:-1].copy(), term[1:-1].copy(), np.empty((d, cols.size))
        done, ends = np.zeros(live.size, dtype=bool), set(degree.tolist())
        for j in range(1, max(ends) + 1):
            np.multiply(lo, term[:-2], out=tmp)
            np.multiply(hi, term[2:], out=nxt[1:-1])
            tmp += nxt[1:-1]
            np.multiply(tmp, 1.0 / j, out=nxt[1:-1])
            term, nxt = nxt, term
            total += term[1:-1]
            if j % 8 and j not in ends:
                continue
            stop = degree == j
            if j % 8 == 0:  # nxt still holds term j - 1
                small = (np.abs(term[1:-1]) + np.abs(nxt[1:-1]) <= 2.0**-53 * np.abs(total)).all(axis=0)
                stop |= small[0::2] & small[1::2]
            new = stop & ~done
            if new.any():
                out[:, np.repeat(new, 2)] = total[:, np.repeat(new, 2)]
                done |= new
                if done.all():
                    break
        cur[:, live] = out.view(np.complex128)
    result = np.empty_like(cur.T)
    result[rows, order] = cur.T
    return result * rot


def _displacement_matrix(x: float, d: int) -> np.ndarray:
    """<m|D(x)|n> for m, n < d and real x, untruncated: the Laguerre form sqrt(n!/(n + k)!) x^k e^{-x^2/2}
    L_n^(k)(x^2) of <n + k|D(x)|n> (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)) by its normalised recurrence
    in n (DLMF 18.9.13) on all diagonals k at once from D[k, 0], and D[n, m] = (-1)^(m - n) D[m, n].
    Absolute error ~1e-14 at d = 161, x in [0.5, 10]; tiny entries keep no relative accuracy."""
    y, j, k = x * x, np.arange(d - 1.0)[:, None], np.arange(d - 1.0)
    a, b = np.stack([2 * j + 1 + k - y, np.sqrt(j * (j + k))]) / np.sqrt((j + 1) * (j + 1 + k))
    t = np.zeros((d + 1, d + 1))  # t[n + 1, n + 1 + k] = <n + k|D(x)|n>
    t[1, 1:] = math.exp(-y / 2) * np.cumprod(np.concatenate(([1.0], x / np.sqrt(np.arange(1.0, d)))))
    for n in range(1, d):
        t[n + 1, n + 1 :] = a[n - 1, : d - n] * t[n, n:d] - b[n - 1, : d - n] * t[n - 1, n - 1 : d - 1]
    return np.where(np.tri(d, dtype=bool), t[1:, 1:].T, t[1:, 1:] * (-1.0) ** (np.arange(d)[:, None] - np.arange(d)))


def _mode_step(element) -> tuple[int, float, float, str]:
    """(power, scale, phi, what) of a displace or squeeze element, applied as
    R(phi) exp(scale G) R(-phi) with a real G, and its warning label."""
    if element[0] == "displace":
        alpha = complex(element[2])
        return 1, abs(alpha), cmath.phase(alpha), f"displace(alpha={alpha:.4g})"
    squeeze = element[2]
    return 2, squeeze.r / 2, squeeze.theta / 2, f"squeeze_op(r={squeeze.r:.4g})"


def _apply_mode_steps(state: FockState, mode: int, steps) -> list[FockState]:
    """Apply each (power, scale, phi, what) step of _mode_step along one mode:
    on a one-mode state as one _mode_action batch, on a multi-mode state as
    one complex matrix R(phi) _expm(scale G) R(-phi) per row, multiplied
    along the mode axis of the (before, d, after) view, so that each row
    allocates only its output."""
    state.layout._check_mode(mode)
    powers, scales, phis, whats = zip(*steps)
    d = state.layout.dims[mode]
    if state.layout.n_modes == 1:
        rows = _mode_action(np.broadcast_to(state.amplitudes, (len(steps), d)), powers, scales, phis)
    else:
        x, a, rows = state.amplitudes.reshape(math.prod(state.layout.dims[:mode]), d, -1), _lowering(d), []
        for power, scale, phi in zip(powers, scales, phis):
            ph = np.exp(1j * phi * np.arange(d))
            m = ph[:, None] * _expm(scale * (a.T - a if power == 1 else a @ a - (a @ a).T)) * ph.conj()
            rows.append((x[..., 0] @ m.T if x.shape[2] == 1 else np.matmul(m, x)).reshape(-1))
    states = [FockState(state.layout, row, state.leakage) for row in rows]
    for result, what in zip(states, whats):
        _warn_leak(result.guard_band_mass, what)
    return states


def displacements(state: FockState, mode: int, alphas) -> list[FockState]:
    """[displace(state, mode, alpha) for alpha in alphas], as one batch."""
    alphas = [complex(alpha) for alpha in alphas]
    moved = [alpha for alpha in alphas if alpha != 0]
    if not moved:
        return [state] * len(alphas)
    if not math.isfinite(sum(abs(alpha) for alpha in moved)):
        raise ValueError("displacement must be finite")
    out = iter(_apply_mode_steps(state, mode, [_mode_step(("displace", mode, alpha)) for alpha in moved]))
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
    return _apply_mode_steps(state, mode, [_mode_step(("squeeze", mode, squeeze))])[0]


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
