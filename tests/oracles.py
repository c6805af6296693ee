"""Reference implementations that only the tests use.

Each one computes, the slow and direct way, something the library computes
faster: the dense 4-mode interference gadget behind measure.l_intf, the
two-mode subtraction circuit (with number post-selection) and the
log-space series of the shifted source (kitten_series,
kitten_probability_series) behind kitten.kitten_direct and
kitten.kitten_probability, the dense eigh sector eigenpairs and the
per-sector unitaries behind circuits.beamsplit and its SVD sector plan,
the masked |amp|^2 sum behind FockState.guard_band_mass, the packed
truncated-generator _mode_action path, the mpmath Laguerre elements and the
30-digit box mass behind numberdiff's untruncated displacement matrix,
the flat gathers of the exit photon number behind l_intf's readout on
number-difference diagonals, the 0/1 clipped-sector matrix behind its
suffix-sum clipped mass, the full-state circuit loop behind the
product factors of experiments.run_oracle_check, the cutoff-length
candidate recurrence behind catfit's closed-form overlaps, the
cutoff-length squeezed-cat constructors (cat_state, squeezed_coherent and
the complex-arithmetic recurrence behind them) that states' real
squeezed-cat kernel is checked against, the squeeze_op antisqueeze and r
bisection behind kitten.antisqueezed_kitten and the secant of
analytics.squeeze_to_match, and the one-kitten-at-a-time Horner pass
behind kitten._build's row batch.  A few closed forms no
experiment uses (erasure_residual, poisson_pn, displacement_estimate) live
here with their tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from dipnesim.analytics import (
    MatchResult,
    gaussian_propagate,
    mean_photons_from_moments,
    vacuum_moments,
)
from dipnesim.catfit import FitTarget, _budget_split, _parity_phase, fit_squeezed_cat
from dipnesim.circuits import (
    GadgetSpec,
    _bs_plan,
    _mode_action,
    apply_element,
    beamsplit,
    phase_shift,
    squeeze_op,
)
from dipnesim.experiments import _enumerated_circuits
from dipnesim.fock import (
    GUARD_BAND,
    FockState,
    LeakageWarning,
    ModeLayout,
    basis_state,
    tensor,
    vacuum_state,
)
from dipnesim.kitten import KittenSpec, KittenState, _ladder, kitten_direct, peak_estimate
from dipnesim.measure import _split_marginals, _vacuum_split, joint_number_distribution
from dipnesim.states import (
    Squeeze,
    _as_layout,
    _cat_norms_squared,
    _finish,
    _parity_filter,
    _unit_phase,
    coherent,
    log_factorial,
    squeezed_vacuum,
    squeezed_vacuum_log_even,
)


def apply_annihilation(state: FockState, mode: int) -> FockState:
    """The annihilation operator on one mode, as a shifted and weighted copy.
    Does not renormalize."""
    state.layout._check_mode(mode)
    nd = state.nd
    d = state.layout.dims[mode]
    out = np.zeros_like(nd)
    shape = [1] * nd.ndim
    shape[mode] = d - 1
    src = [slice(None)] * nd.ndim
    dst = [slice(None)] * nd.ndim
    src[mode] = slice(1, d)
    dst[mode] = slice(0, d - 1)
    out[tuple(dst)] = nd[tuple(src)] * np.sqrt(np.arange(1, d)).reshape(shape)
    return FockState(state.layout, out.reshape(-1), state.leakage)


def inner(a: FockState, b: FockState) -> complex:
    """Inner product <a|b>, conjugate-linear in the first argument, summed by
    einsum so that it does not depend on the BLAS thread count."""
    if a.layout != b.layout:
        raise ValueError("inner product requires identical layouts")
    return complex(np.einsum("i,i->", a.amplitudes.conj(), b.amplitudes))


def guard_band_masked(state: FockState) -> float:
    """FockState.guard_band_mass as |amp|^2 summed under a full boolean mask
    of the basis states with any mode in its top GUARD_BAND levels."""
    occupations = np.indices(state.layout.dims)
    mask = np.zeros(state.layout.dims, dtype=bool)
    for occupation, d in zip(occupations, state.layout.dims):
        mask |= occupation >= d - GUARD_BAND
    return float(np.sum(np.abs(state.nd[mask]) ** 2))


def readout_oracle(state: FockState, mode: int) -> tuple[float, complex]:
    """(<n>, <a>) of one mode from the shifted copy: the readout oracle for
    FockState.mean_photons and measure.mean_quadrature."""
    lowered = apply_annihilation(state, mode)
    return inner(lowered, lowered).real, inner(state, lowered)


def bs_sector_eigh(da: int, db: int, total: int):
    """Mode-a occupations and the eigenpairs (ascending) of the beamsplitter
    generator in number sector ``total``, from a dense np.linalg.eigh."""
    js = np.arange(max(0, total - (db - 1)), min(da - 1, total) + 1)
    off = np.sqrt((js[:-1] + 1.0) * (total - js[:-1]))
    lam, vec = np.linalg.eigh(np.diag(off, -1))  # eigh reads the lower triangle
    return js, lam, vec


def beamsplit_sector_unitaries(state: FockState, mode_a: int, mode_b: int, theta: float) -> FockState:
    """beamsplit with each sector's truncated unitary U_N formed from
    bs_sector_eigh and multiplied."""
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
        js, lam, vec = bs_sector_eigh(da, db, total)
        unitary = (vec * np.exp(1j * theta * lam)) @ vec.T
        ks = total - js
        out[js, ks, :] = unitary @ arr[js, ks, :]
    out = np.moveaxis(out.reshape((da, db) + rest), (0, 1), (mode_a, mode_b))
    return FockState(state.layout, out.reshape(-1), state.leakage)


def phase_to_dide(state: FockState, measured_mode: int = 0, lo_mode: int = 1) -> FockState:
    """Translate a phase-encoded pair (measured, local oscillator) to displacement form.

    50:50 beamsplit, then a -i phase shift (e^{-i pi n/2}) on the measured
    mode.  A measured amplitude +-i a against a real oscillator L comes out as
    real displacements ((L +- a)/sqrt(2), (L -+ a)/sqrt(2)).
    """
    out = beamsplit(state, measured_mode, lo_mode, math.pi / 4)
    return phase_shift(out, measured_mode, -math.pi / 2)


def numberdiff_by_beamsplit(config) -> np.ndarray:
    """The joint count distribution of experiments.run_numberdiff the direct
    way: the kitten padded to joint_cutoff, tensored with the truncated
    coherent oscillator, turned by R(pi/2) and translated by phase_to_dide
    through the (joint_cutoff + 1)^2 sector plan."""
    cutoff, joint_cutoff = config["cutoff"], config["joint_cutoff"]
    kit = kitten_direct(KittenSpec(config["squeeze_photons"], config["theta_sub"], config["k"], cutoff))
    if config["lo_rule"] == "sqrt-plus-2":
        lo_amp = math.sqrt(kit.mean_photons) + 2.0
    else:
        lo_amp = math.sqrt(kit.mean_photons + 2.0)
    amps = np.zeros(joint_cutoff + 1, dtype=np.complex128)
    amps[: cutoff + 1] = kit.state.amplitudes
    padded = FockState(ModeLayout((joint_cutoff,)), amps, kit.state.leakage)
    joint = phase_shift(tensor(padded, coherent(lo_amp, joint_cutoff)), 0, math.pi / 2)
    return joint_number_distribution(phase_to_dide(joint, 0, 1))


def _numberdiff_split(config) -> tuple[np.ndarray, float, float]:
    """run_numberdiff's real split chi on its (cutoff + 1)^2 block, and the
    displacements of its two axes, beta cos(pi/4) and beta sin(pi/4)."""
    cutoff = config["cutoff"]
    kit = kitten_direct(KittenSpec(config["squeeze_photons"], config["theta_sub"], config["k"], cutoff))
    mean = kit.mean_photons
    lo_amp = math.sqrt(mean) + 2.0 if config["lo_rule"] == "sqrt-plus-2" else math.sqrt(mean + 2.0)
    ds = cutoff + 1
    idx, src, u = _vacuum_split(ds, ds, math.pi / 4)
    chi = np.zeros((ds, ds))
    chi.reshape(-1)[idx] = (u * np.array([1, 1j, -1, -1j])[idx % ds % 4]).real * kit.state.amplitudes.real[src]
    return chi, lo_amp * math.cos(math.pi / 4), lo_amp * math.sin(math.pi / 4)


def numberdiff_by_mode_action(config) -> np.ndarray:
    """The joint count distribution of experiments.run_numberdiff with the
    truncated-generator displacement exp(x (a+ - a)) on joint_cutoff + 1
    levels: each axis of chi as one _mode_action batch, two real rows packed
    into each complex row, first along axis 1 on the rows chi fills, then
    along axis 0 on every column."""
    chi_s, x1, x0 = _numberdiff_split(config)
    ds, d = chi_s.shape[0], config["joint_cutoff"] + 1
    chi = np.zeros((d, d))
    chi[:ds, :ds] = chi_s
    for view, count, x in ((chi[:ds], ds, x1), (chi.T, d, x0)):
        half = (count + 1) // 2
        packed = np.zeros((half, d), dtype=np.complex128)
        packed.real, packed.imag[: count // 2] = view[0::2], view[1::2]
        moved = _mode_action(packed, [1] * half, [x] * half, [0.0] * half)
        view[0::2], view[1::2] = moved.real, moved.imag[: count // 2]
    return chi**2


def displacement_element(m: int, n: int, x: float, dps: int = 30):
    """<m|D(x)|n> for real x from mpmath's Laguerre form (Cahill & Glauber
    1969) at ``dps`` digits: sqrt(n!/m!) x^(m - n) e^{-x^2/2} L_n^(m - n)(x^2)
    for m >= n, and sqrt(m!/n!) (-x)^(n - m) e^{-x^2/2} L_m^(n - m)(x^2)
    above the diagonal.  An mpf."""
    import mpmath

    with mpmath.workdps(dps):
        lo, hi, y = min(m, n), max(m, n), mpmath.mpf(x) ** 2
        head = mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(hi)) * mpmath.exp(-y / 2)
        return head * mpmath.mpf(x if m >= n else -x) ** (hi - lo) * mpmath.laguerre(lo, hi - lo, y, maxprec=10**4)


def numberdiff_box_mass(config, dps: int = 30):
    """run_numberdiff's total_probability at ``dps`` digits: the mass of
    D_0(x) D_1(x) chi on counts <= joint_cutoff, with chi as the run builds
    it and every element and product from displacement_element.  An mpf."""
    import mpmath

    chi, x, _ = _numberdiff_split(config)
    ds, d = chi.shape[0], config["joint_cutoff"] + 1
    with mpmath.workdps(dps):
        e = [[displacement_element(m, n, x, dps) for n in range(ds)] for m in range(d)]
        rows = [[(mpmath.mpf(v), j) for j, v in enumerate(row) if v] for row in chi.tolist()]
        half = [[mpmath.fdot((v, e[n][j]) for v, j in row) for n in range(d)] for row in rows]  # chi E^T
        return mpmath.fsum(mpmath.fdot((e[m][i], half[i][n]) for i in range(ds)) ** 2 for m in range(d) for n in range(d))


def depth_first_factors(n_modes: int, cutoff: int, elements) -> dict[int, tuple]:
    """One circuit on product-state factors, element by element through
    apply_element: {mode: (modes, state)}.  The oracle for the lockstep
    phase of experiments._product_factors, which must give the same bits."""
    vacuum = vacuum_state(ModeLayout((cutoff,)))
    factors = {mode: ((mode,), vacuum) for mode in range(n_modes)}
    for element in elements:
        targets = element[1:3] if element[0] == "beamsplit" else element[1:2]
        modes, state = factors[targets[0]]
        if targets[-1] not in modes:
            other, state_b = factors[targets[-1]]
            modes, state = modes + other, tensor(state, state_b)
        local = tuple(modes.index(m) for m in targets)
        state = apply_element(state, (element[0], *local, *element[1 + len(targets):]))
        for mode in modes:
            factors[mode] = (modes, state)
    return factors


def full_state_oracle_rows(seed: int, circuits: int, cutoff: int, max_modes: int) -> list[tuple]:
    """run_oracle_check's circuit rows, each circuit run on its full n-mode
    array.  Each mode's <n> and <a> are read from its trace-normalized
    reduced density matrix, so the other modes' norms, each a few ulps
    from 1, do not scale them."""
    rows = []
    for circuit_id, n_modes, elements in _enumerated_circuits(seed, circuits, max_modes):
        moments = vacuum_moments(n_modes)
        state = basis_state(ModeLayout((cutoff,) * n_modes), (0,) * n_modes)
        for element in elements:
            moments = gaussian_propagate(moments, element)
            state = apply_element(state, element)
        photon_err = 0.0
        quad_err = 0.0
        for mode in range(n_modes):
            psi = np.moveaxis(state.nd, mode, 0).reshape(state.nd.shape[mode], -1)
            rho = psi @ psi.conj().T
            rho /= np.trace(rho).real
            levels = np.arange(len(rho))
            mean_n = float(levels @ np.diagonal(rho).real)
            mean_a = complex(np.sqrt(levels[1:]) @ np.diagonal(rho, 1).conj())
            photon_err = max(photon_err, abs(mean_photons_from_moments(moments, mode) - mean_n))
            quad_err = max(
                quad_err,
                abs(moments.mean[2 * mode] - 2.0 * mean_a.real),
                abs(moments.mean[2 * mode + 1] - 2.0 * mean_a.imag),
            )
        rows.append((circuit_id, photon_err, quad_err))
    return rows


def _require_vacuum(state: FockState, mode: int) -> None:
    probs = np.abs(np.moveaxis(state.nd, mode, 0)) ** 2
    occupied = float(probs[1:].sum())
    if occupied > 1e-10:
        raise ValueError(f"erasure mode {mode} must start in vacuum, P(n>0) = {occupied:.6g}")


def interference_gadget(
    state: FockState, spec: GadgetSpec, erasure_modes: tuple[int, int] = (2, 3)
) -> FockState:
    """Symmetric pickoff-and-interfere circuit over four modes.

    The two modes not listed in erasure_modes are the system modes.
    Each system mode is split at theta_split into its erasure mode, the
    picked-off light optionally gets a pi phase, then each erasure mode is
    recombined with the opposite system mode at theta_interfere.  All four
    modes are kept so exit photon counts can be read off exactly.
    """
    e = tuple(int(m) for m in erasure_modes)
    if len(e) != 2 or len(set(e)) != 2 or not all(0 <= m < 4 for m in e):
        raise ValueError(f"erasure_modes must be two distinct indices in 0..3, got {e}")
    if state.layout.n_modes != 4:
        raise ValueError(f"gadget expects 4 modes, got {state.layout.n_modes}")
    e0, e1 = e
    s0, s1 = (m for m in range(4) if m not in e)
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


def bs_number_gathers(da: int, db: int, theta: float):
    """The Heisenberg-picture exit photon number of B(theta) as flat gathers.

    Per number sector N, H_N = U_N^dag diag(ks) U_N from the plan's stacks,
    as in circuits._bs_number_readout.  Only the upper triangle of each
    sector is kept, with its off-diagonal entries doubled, against flat
    indices into a da x da matrix of mode a and a db x db matrix of mode b,
    so that for Hermitian rho_a and rho_b

        Tr[(rho_a (x) rho_b) B^dag n_b B] = sum(rho_a.flat[ia] * rho_b.flat[ib] * h).real.

    Returns (ia, ib, h).
    """
    stacks, _ = _bs_plan(da, db)
    ia, ib, h = [], [], []
    for st in stacks:
        js, ks = st.occupations()
        vec_t = st.vec.transpose(0, 2, 1)
        cos = (st.vec * np.cos(theta * st.lam)[:, None, :]) @ vec_t
        sin = (st.vec * np.sin(theta * st.lam)[:, None, :]) @ vec_t
        real = cos @ (ks[..., None] * cos)
        real += sin @ (ks[..., None] * sin)
        cross = cos @ (ks[..., None] * sin)
        p, q = np.triu_indices(st.lam.shape[1])
        # Tr[rho H] pairs rho[x, y] with H[y, x]; q >= p, so q in range keeps p
        keep = st.valid()[:, q]
        heis = real[:, q, p] + 1j * (cross[:, q, p] - cross[:, p, q])
        ia.append((js[:, p] * da + js[:, q])[keep])
        ib.append((ks[:, p] * db + ks[:, q])[keep])
        h.append((np.where(p == q, 1.0, 2.0) * heis)[keep])
    return tuple(np.concatenate(part) for part in (ia, ib, h))


def l_intf_gathers(input0: FockState, input1: FockState, spec: GadgetSpec) -> float:
    """measure.l_intf with each recombination read out by bs_number_gathers."""
    erasure_cutoff = max(input0.layout.cutoffs[0], input1.layout.cutoffs[0])
    (sys0, era0), (sys1, era1) = (
        _split_marginals(state, erasure_cutoff, spec) for state in (input0, input1)
    )
    total = 0.0
    for rho_s, rho_e in ((sys1, era0), (sys0, era1)):
        ia, ib, h = bs_number_gathers(rho_s.shape[0], rho_e.shape[0], spec.theta_interfere)
        dev_s, dev_e = rho_s.ravel().copy(), rho_e.ravel().copy()
        dev_s[0] -= 1.0
        dev_e[0] -= 1.0
        total += float(np.sum(dev_s[ia] * dev_e[ib] * h).real)
    return total


@lru_cache(maxsize=16)
def clip_matrix(ds: int, de: int) -> np.ndarray:
    """0/1 matrix of the (n_s, n_e) pairs in number sectors a cutoff clips:
    n_s + n_e >= min(ds, de)."""
    clip = (np.add.outer(np.arange(ds), np.arange(de)) >= min(ds, de)).astype(np.float64)
    clip.setflags(write=False)
    return clip


def clipped_sector_mass(input0: FockState, input1: FockState, spec: GadgetSpec) -> float:
    """measure.l_intf's clipped_sector_mass diagnostic, with each
    recombination's clipped mass read as clip_matrix(ds, de) @ p_e."""
    erasure_cutoff = max(input0.layout.cutoffs[0], input1.layout.cutoffs[0])
    (sys0, era0), (sys1, era1) = (
        _split_marginals(state, erasure_cutoff, spec) for state in (input0, input1)
    )
    clipped = 0.0
    for rho_s, rho_e in ((sys1, era0), (sys0, era1)):
        p_s, p_e = np.diagonal(rho_s).real, np.diagonal(rho_e).real
        clip_e = clip_matrix(p_s.size, p_e.size) @ p_e
        clipped = max(clipped, float(p_s @ clip_e), float(clip_e[0]))
    return clipped


@dataclass(frozen=True)
class SubtractionOutcome:
    """Result of conditioning on a photon count in one mode.

    post_state is None when the measured mode was the only mode.
    """

    k: int
    probability: float
    post_state: FockState | None


def drop(layout: ModeLayout, mode: int) -> ModeLayout:
    """Layout with one mode removed (used after a number measurement)."""
    layout._check_mode(mode)
    if layout.n_modes == 1:
        raise ValueError("cannot drop the only mode of a layout")
    return ModeLayout(layout.cutoffs[:mode] + layout.cutoffs[mode + 1 :])


def measure_count(state: FockState, mode: int, k: int) -> SubtractionOutcome:
    """Condition on measuring exactly k photons in a mode.

    The measured mode is removed from the layout and the remaining amplitudes
    renormalized.  Raises when the outcome has no support.
    """
    state.layout._check_mode(mode)
    if not 0 <= k <= state.layout.cutoffs[mode]:
        raise ValueError(f"count {k} outside 0..{state.layout.cutoffs[mode]}")
    sel = [slice(None)] * state.layout.n_modes
    sel[mode] = k
    block = state.nd[tuple(sel)]
    probability = float(np.sum(np.abs(block) ** 2))
    if probability < 1e-300:
        raise ValueError(f"measuring {k} photons in mode {mode} has zero probability")
    if state.layout.n_modes == 1:
        return SubtractionOutcome(k, probability, None)
    post = FockState(
        drop(state.layout, mode), block.reshape(-1) / math.sqrt(probability), state.leakage
    )
    return SubtractionOutcome(k, probability, post)


def kitten_by_subtraction(spec: KittenSpec, pickoff_cutoff: int | None = None) -> KittenState:
    """Two-mode simulation of the subtraction circuit.

    Squeezed vacuum meets vacuum on a theta_sub beamsplitter; the tap
    mode is measured at k.  Exists as an independent cross-check of
    kitten_direct; requires finite squeezing.  The source cutoff is
    spec.cutoff + k, which is exact: a (n, 0) input only reaches kept
    levels at or below n - k after a k count.  The pickoff matches it by
    default so no photon-number sector is clipped.
    """
    if spec.infinite:
        raise ValueError("two-mode simulation needs finite squeezing")
    if spec.squeeze_photons == 0.0:
        return kitten_series(spec)
    if pickoff_cutoff is None:
        pickoff_cutoff = spec.cutoff + spec.k
    r = math.asinh(math.sqrt(spec.squeeze_photons))
    # source truncation above cutoff + k cannot reach the kept window
    # after a k count, so the leak warning would be noise here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LeakageWarning)
        source = squeezed_vacuum(Squeeze(r, math.pi), spec.cutoff + spec.k)
    joint = tensor(source, vacuum_state(ModeLayout((pickoff_cutoff,))))
    out = beamsplit(joint, 0, 1, spec.theta_sub)
    res = measure_count(out, 1, spec.k)
    kept = res.post_state
    # strip the herald's global i^k so amplitudes are real and positive
    # like kitten_direct's, then drop the k guard levels
    amps = kept.nd * (-1j) ** spec.k
    layout = ModeLayout((spec.cutoff,))
    head = amps[: layout.dim].copy()
    tail = float(np.sum(np.abs(amps[layout.dim:]) ** 2))
    head /= math.sqrt(1.0 - tail) if tail < 1.0 else 1.0
    levels = np.arange(layout.dim)
    mean = float(np.sum(levels * np.abs(head) ** 2))
    return KittenState(
        FockState(layout, head, leakage=tail), res.probability, mean
    )


def antisqueezed(state: FockState, r: float, work_cutoff: int) -> FockState:
    """Embed into a larger space and (anti)squeeze along the
    displacement axis with squeeze_op; r < 0 squeezes instead."""
    dim = work_cutoff + 1
    amps = np.zeros(dim, dtype=np.complex128)
    amps[: state.layout.dim] = state.amplitudes
    grown = FockState(ModeLayout((work_cutoff,)), amps, state.leakage)
    if r == 0.0:
        return grown
    if r > 0.0:
        return squeeze_op(grown, 0, Squeeze(r, math.pi))
    return squeeze_op(grown, 0, Squeeze(-r, 0.0))


def squeeze_to_match_bisect(
    state: FockState,
    source_alpha: float,
    target_displacement: float,
    work_cutoff: int = 1000,
) -> MatchResult:
    """r that brings any source state's fitted displacement to the
    target: bisection on the monotone displacement-versus-r map, one
    antisqueeze and one fit per step, to 1e-7 in the displacement.  It
    reports no guard mass (nan)."""
    if target_displacement <= 0.0:
        raise ValueError("target displacement must be positive")
    if source_alpha <= 1e-9:
        raise ValueError("source has no fitted displacement to match")

    def fit_after(r: float):
        return fit_squeezed_cat(antisqueezed(state, r, work_cutoff))

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
    return MatchResult(mid, fit_mid.squeeze_fraction, math.nan)


def kitten_horner_row(spec: KittenSpec, rho: float, work_cutoff: int) -> tuple[np.ndarray, float, float]:
    """(unnormalized amplitudes, kept norm^2, tail) of spec's kitten
    antisqueezed by rho: the Horner pass kitten._build runs on a batch of
    rows, here for one kitten at a time, a+ applied by a shift of one
    vector and each zero coefficient skipped."""
    r_sub, core = spec.core()
    dim, big, tan = work_cutoff + 1, r_sub + rho, math.tan(spec.theta_sub)
    vac = np.zeros(dim)
    if big == 0.0:
        vac[0] = 1.0
    else:
        m = np.arange((dim + 1) // 2)
        vac[::2] = np.sign(big) ** m * np.exp(squeezed_vacuum_log_even(abs(big), m))
    x = tan * math.sinh(r_sub) / math.cosh(big)
    coeffs = _ladder(spec.k, x, 0.5 * x * tan * math.cosh(rho))
    root = np.sqrt(np.arange(1.0, dim))
    amps = coeffs[spec.k] * vac
    for p in range(spec.k - 1, -1, -1):
        amps[1:] = amps[:-1] * root
        amps[0] = 0.0
        amps *= 1.0 / math.sqrt(p + 1)
        if coeffs[p]:
            amps += coeffs[p] * vac
    kept = float(amps @ amps)
    return amps, kept, max(0.0, 1.0 - kept / (core @ core))


def fit_target(kitten: KittenState) -> FitTarget:
    """A kitten's own amplitudes at R = 0, fitted at its photon number."""
    return FitTarget(0.0, kitten.state.amplitudes, kitten.mean_photons, _parity_phase(kitten.state))


def _unwrap(kitten) -> tuple[FockState, float]:
    """Accept a KittenState or a bare FockState; return (state, N)."""
    if isinstance(kitten, KittenState):
        return kitten.state, kitten.mean_photons
    state = kitten
    weights = np.abs(state.amplitudes) ** 2
    mean = float(np.arange(state.layout.dim) @ weights / weights.sum())
    return state, mean


# levels _family_fidelities holds before folding them into its sums
TILE = 64


def _family_fidelities(targets, totals, phis, ss: np.ndarray) -> np.ndarray:
    """Fidelities of the budget-split candidates: entry (k, j) is the
    candidate at fraction ss[k, j] against targets[k].

    One recurrence advances every row together: the three-term recurrence
    of states._squeezed_coherent_batch at squeeze angle pi, where every
    amplitude is real.  It holds TILE levels at a time and folds each full
    tile into the running overlaps and truncated norms with one einsum, so
    memory grows with the rows, never with rows x dim.  The parity filter
    that makes the cat, and the cut at each target's own cutoff, live in
    per-level weights, so targets of different cutoffs can share a call.
    Each candidate is renormalized within its target's truncated space
    before the overlap is squared; a candidate with no finite, nonzero
    mass left there is an error, not a zero.
    """
    totals = np.asarray(totals, float)[:, None]
    phis = np.asarray(phis, float)[:, None]
    alphas, rs = _budget_split(ss, totals, phis)
    _cat_norms_squared(alphas, rs, math.pi, phis)

    dims = [target.layout.dim for target in targets]
    dim = max(dims)
    # per level and target: the conjugate target times the parity weight
    # 1 + e^{i phi} (-1)^n, and that weight squared; both vanish above the
    # target's cutoff
    conj_re = np.zeros((dim, len(targets)))
    conj_im = np.zeros((dim, len(targets)))
    weight_sq = np.zeros((dim, len(targets)))
    for k, (target, d) in enumerate(zip(targets, dims)):
        weight = _parity_filter(float(phis[k, 0]), d).real
        conj_re[:d, k] = target.amplitudes.real * weight
        conj_im[:d, k] = -target.amplitudes.imag * weight
        weight_sq[:d, k] = weight * weight

    # D(alpha) S(r e^{i pi}) |0> with real alpha:
    # c_{n+1} = (a c_n + tanh(r) sqrt(n) c_{n-1}) / sqrt(n + 1)
    ch = np.cosh(rs)
    t = np.tanh(rs)
    a = alphas * np.exp(-rs) / ch
    root = np.sqrt(np.arange(dim + 1.0))
    inv_next = (1.0 / root[1:]).tolist()
    ratio = (root[:-1] / root[1:]).tolist()

    # running overlap (real, imaginary part) and truncated norm^2 per row
    sums = np.zeros((3,) + ss.shape)
    # slots 0 and 1 carry the last two levels of the previous tile
    buf = np.zeros((TILE + 2,) + ss.shape)
    slot = list(buf)
    slot[2][...] = np.exp(-0.5 * alphas * a) / np.sqrt(ch)
    tmp = np.empty(ss.shape)
    start, j = 0, 2  # level `start` is in slot 2, the newest level in slot j

    def fold(tile: np.ndarray, first: int) -> None:
        levels = slice(first, first + len(tile))
        sums[0] += np.einsum("tkp,tk->kp", tile, conj_re[levels])
        sums[1] += np.einsum("tkp,tk->kp", tile, conj_im[levels])
        sums[2] += np.einsum("tkp,tkp,tk->kp", tile, tile, weight_sq[levels])

    for n in range(dim - 1):  # level n + 1 from levels n and n - 1
        if j == TILE + 1:
            fold(buf[2:], start)
            buf[:2] = buf[TILE:]
            start, j = start + TILE, 1
        np.multiply(a, slot[j], out=tmp)
        tmp *= inv_next[n]
        nxt = slot[j + 1]
        np.multiply(t, slot[j - 1], out=nxt)
        nxt *= ratio[n]
        nxt += tmp
        j += 1
    fold(buf[2 : j + 1], start)
    overlap_re, overlap_im, norms = sums

    bad = ~(np.isfinite(norms) & (norms > 0.0))
    if bad.any():
        k, i = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(
            f"squeezed-cat candidate at squeeze fraction {ss[k, i]:.6g} of a "
            f"{totals[k, 0]:.6g}-photon budget has truncated norm^2 {norms[k, i]:.3g} "
            f"at cutoff {dims[k] - 1}: its amplitudes under- or overflow"
        )
    return (overlap_re**2 + overlap_im**2) / norms


# The cutoff-length squeezed-cat constructors, which no experiment builds:
# the recurrence of states._squeezed_coherent_levels in complex arithmetic,
# at any alpha and squeeze angle, and the states and cat norm built on it.


def squeezed_coherent_batch(alphas, rs, theta: float, dim: int) -> np.ndarray:
    """Amplitudes of D(alpha) S(r e^{i theta}) |0> for broadcast alpha/r
    arrays, shape broadcast(alphas, rs) + (dim,): c_0 = exp(-conj(alpha)
    a / 2) / sqrt(cosh r), c_n = (a c_{n-1} + t sqrt(n - 1) c_{n-2}) /
    sqrt(n), with t = -e^{i theta} tanh r and a = alpha + conj(alpha)
    e^{i theta} tanh r."""
    ph = _unit_phase(theta)
    alphas = np.asarray(alphas).astype(np.complex128)
    rs = np.asarray(rs, dtype=np.float64)
    ch, th = np.cosh(rs), np.tanh(rs)
    a = alphas + np.conj(alphas) * ph * th
    t = -ph * th
    prev, cur = 0.0, np.exp(-0.5 * np.conj(alphas) * a) / np.sqrt(ch)
    levels = [cur]
    for n in range(1, dim):
        prev, cur = cur, a * cur / math.sqrt(n) + t * prev * math.sqrt((n - 1) / n)
        levels.append(cur)
    return np.stack(levels, axis=-1)


def _require_representable(amps: np.ndarray, alpha: complex, r: float, layout: ModeLayout) -> None:
    """Raise where the recurrence under- or overflowed: its first amplitude
    is exp(-|alpha|^2/2 ...), which is 0.0 in floating point once |alpha|^2
    passes ~1400."""
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if not (norm_sq > 0.0 and math.isfinite(norm_sq)):
        raise ValueError(
            f"alpha={alpha:.6g}, r={r:.6g} has truncated norm^2 {norm_sq} at cutoff "
            f"{layout.cutoffs[0]}: the amplitude recurrence under- or overflows"
        )


def squeezed_coherent(alpha, squeeze: Squeeze, layout) -> FockState:
    """Displaced squeezed state D(alpha) S(xi) |0>."""
    layout = _as_layout(layout)
    a = complex(alpha)
    if squeeze.r == 0.0:
        return coherent(a, layout)
    amps = squeezed_coherent_batch(a, squeeze.r, squeeze.theta, layout.dim)
    _require_representable(amps, a, squeeze.r, layout)
    return _finish(amps, layout, f"squeezed_coherent(alpha={a:.4g}, r={squeeze.r:.4g})")


@dataclass(frozen=True)
class CatSpec:
    """Two-component superposition (D(alpha) + e^{i phi} D(-alpha)) S(xi) |0>."""

    alpha: complex
    phi: float
    squeeze: Squeeze


def cat_norm_squared(spec: CatSpec) -> float:
    """Norm^2 of the unnormalized superposition; raises where the two
    branches cancel exactly."""
    sq = spec.squeeze
    return float(_cat_norms_squared(complex(spec.alpha), sq.r, sq.theta, spec.phi))


def cat_state(spec: CatSpec, layout) -> FockState:
    """Normalized (D(alpha) + e^{i phi} D(-alpha)) S(xi) |0>: D(-alpha)S|0>
    has amplitudes (-1)^n times those of D(alpha)S|0>, so the superposition
    is a parity filter on the displaced squeezed state."""
    layout = _as_layout(layout)
    a, sq = complex(spec.alpha), spec.squeeze
    norm_sq = _cat_norms_squared(a, sq.r, sq.theta, spec.phi)
    base = squeezed_coherent_batch(a, sq.r, sq.theta, layout.dim)
    amps = base * _parity_filter(spec.phi, layout.dim) / math.sqrt(norm_sq)
    _require_representable(amps, a, sq.r, layout)
    return _finish(amps, layout, f"cat_state(alpha={a:.4g}, phi={spec.phi:.4g}, r={sq.r:.4g})")


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


def displacement_estimate(k: int, theta_sub: float) -> float:
    """Coherent displacement whose photon number sits at the envelope
    peak: sqrt(peak_estimate)."""
    return math.sqrt(peak_estimate(k, theta_sub))


# The log-space series of the shifted source that kitten_direct and
# kitten_probability ran before KittenSpec.core() described every kitten:
# each kept level j sums one source level n = j + k, so the state needs a
# tail window and a remainder bound, and the probability a horizon sum.

# Extra levels kept beyond the cutoff when summing the amplitude tail.
TAIL_WINDOW = 600

# Relative tail mass above which the infinite-limit state is rejected.
TAIL_LIMIT = 1e-10

# Levels summed for a herald probability before giving up on convergence.
MAX_HORIZON = 64000


def infinite_squeeze_log_even(m: np.ndarray) -> np.ndarray:
    """log |C_{2m}| = log(sqrt((2m)!) / (2^m m!)) of the infinite-squeezing
    limit, up to its overall scale, for an array of m.

    |C_{2m+2}/C_{2m}| tends to 1 from below, so the sequence is not
    square-summable: callers supply convergent weights before normalizing.
    """
    return 0.5 * log_factorial(2 * m) - m * math.log(2.0) - log_factorial(m)


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
        r = math.asinh(math.sqrt(spec.squeeze_photons))
        log_c = squeezed_vacuum_log_even(r, n // 2)
    log_amp = (
        0.5 * (log_factorial(n) - log_factorial(j))
        + j * math.log(math.cos(spec.theta_sub))
        + log_c
    )
    return j, log_amp


def kitten_series(spec: KittenSpec) -> KittenState:
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
            f"kitten_series: {tail:.3e} of the heralded mass lies beyond "
            f"cutoff {spec.cutoff}",
            LeakageWarning,
            stacklevel=2,
        )

    # renormalize within the cutoff: the kitten is a conditional state,
    # so post-selection renormalizes; the cut mass goes to leakage
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[j[inside]] = np.sqrt(w[inside] / w[inside].sum())
    mean = float((j * w).sum() / w.sum())
    prob = math.nan if spec.infinite else kitten_probability_series(spec)
    return KittenState(FockState(layout, amps, leakage=float(tail)), prob, mean)


def kitten_probability_series(spec: KittenSpec) -> float:
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
