"""Reference implementations that only the tests use.

Each one computes, the slow and direct way, something the library computes
faster: the dense 4-mode interference gadget behind measure.l_intf, and the
two-mode subtraction circuit (with number post-selection) behind
kitten.kitten_direct.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from dipnesim.circuits import GadgetSpec, beamsplit, phase_shift
from dipnesim.fock import (
    FockState,
    LeakageWarning,
    ModeLayout,
    marginal_number_distribution,
    tensor,
    vacuum_state,
)
from dipnesim.kitten import KittenSpec, KittenState, kitten_direct
from dipnesim.states import Squeeze, r_from_squeeze_photons, squeezed_vacuum


def _require_vacuum(state: FockState, mode: int) -> None:
    dist = marginal_number_distribution(state, mode, _allow_unnormalized=True)
    occupied = float(dist[1:].sum())
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
        return kitten_direct(spec)
    if pickoff_cutoff is None:
        pickoff_cutoff = spec.cutoff + spec.k
    r = r_from_squeeze_photons(spec.squeeze_photons)
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
