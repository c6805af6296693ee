"""Truncated multimode Fock spaces: layouts, state vectors, marginals, tensor products.

A mode with cutoff c holds occupations 0..c inclusive (dimension c+1).  Joint
states are dense complex vectors over the mixed-radix basis with the LAST mode
varying fastest (C order), so ``amplitudes.reshape(layout.dims)`` gives one
axis per mode.

Truncation bookkeeping: constructors record probability dropped against a
cutoff in ``FockState.leakage``; the guard-band diagnostic
(`FockState.guard_band_mass`) measures how much probability sits in the top
GUARD_BAND levels of any mode.  Operations emit a `LeakageWarning` when either
exceeds LEAK_THRESHOLD, and production sweeps assert low guard mass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Largest joint dimension, in amplitudes: 2**25 complex128 amplitudes are
# 512 MiB per vector.  A displace, squeeze_op or beamsplit on a multi-mode
# state runs in place on a copy of its input and allocates at most 1.2 vectors
# (two tracemalloc tests in test_circuits bound this): a public call holds
# about 2.2 with its input, oracle-check's phase 2 one.  A larger layout would
# risk an out-of-memory kill where a ValueError belongs.
MAX_JOINT_DIM = 2**25
GUARD_BAND = 2
LEAK_THRESHOLD = 1e-8


class LeakageWarning(UserWarning):
    """Probability mass beyond LEAK_THRESHOLD is pressing against a cutoff."""


@dataclass(frozen=True)
class ModeLayout:
    """Per-mode photon-number cutoffs for a register of optical modes."""

    cutoffs: tuple[int, ...]

    def __post_init__(self):
        cuts = tuple(int(c) for c in self.cutoffs)
        if len(cuts) == 0:
            raise ValueError("a layout needs at least one mode")
        if any(c < 1 for c in cuts):
            raise ValueError(f"cutoffs must be >= 1, got {cuts}")
        object.__setattr__(self, "cutoffs", cuts)
        if self.dim > MAX_JOINT_DIM:
            raise ValueError(
                f"cutoffs {cuts} give joint dimension {self.dim}, above "
                f"MAX_JOINT_DIM={MAX_JOINT_DIM} amplitudes; reduce cutoffs or mode count"
            )

    @property
    def n_modes(self) -> int:
        return len(self.cutoffs)

    @property
    def dims(self) -> tuple[int, ...]:
        """Per-mode dimensions (cutoff + 1)."""
        return tuple(c + 1 for c in self.cutoffs)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def index(self, occupation) -> int:
        """Basis index of an occupation tuple (last mode fastest)."""
        if len(occupation) != self.n_modes:
            raise ValueError(f"expected {self.n_modes} occupations, got {len(occupation)}")
        idx = 0
        for n, c in zip(occupation, self.cutoffs):
            if not 0 <= n <= c:
                raise ValueError(f"occupation {n} outside 0..{c}")
            idx = idx * (c + 1) + n
        return idx

    def _check_mode(self, mode: int) -> None:
        if not 0 <= mode < self.n_modes:
            raise ValueError(f"mode {mode} outside 0..{self.n_modes - 1}")


@dataclass(frozen=True)
class FockState:
    """Immutable dense state vector over a ModeLayout.

    ``leakage`` accumulates probability dropped against cutoffs by the
    operations that produced this state (analytic constructors report their
    exact truncated tail here).
    """

    layout: ModeLayout
    amplitudes: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != self.layout.dim:
            raise ValueError(
                f"amplitude length {amps.size} does not match layout dimension {self.layout.dim}"
            )
        amps = np.ascontiguousarray(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def nd(self) -> np.ndarray:
        """Read-only view shaped with one axis per mode."""
        return self.amplitudes.reshape(self.layout.dims)

    def norm(self) -> float:
        # einsum, not BLAS: a threaded dot splits the sum by thread count, so
        # results would depend on OPENBLAS_NUM_THREADS
        flat = self.amplitudes.view(np.float64)
        return math.sqrt(np.einsum("i,i->", flat, flat))

    def is_normalized(self, tol: float = 1e-9) -> bool:
        return abs(self.norm() - 1.0) <= tol

    @cached_property
    def guard_band_mass(self) -> float:
        """_guard_mass of the amplitudes, computed on first read."""
        return _guard_mass(self.nd)

    def _mode_rows(self, mode: int) -> np.ndarray:
        """The float64 view of the amplitudes as (before, d, 2 after): axis 1
        counts the photons in ``mode``, with no copy."""
        self.layout._check_mode(mode)
        return self.amplitudes.view(np.float64).reshape(math.prod(self.layout.dims[:mode]), self.layout.dims[mode], -1)

    def mean_photons(self, mode: int) -> float:
        """Expectation of the number operator on one mode, normalized or not:
        the level probabilities, weighted and summed exactly."""
        rows = self._mode_rows(mode)
        return math.fsum((np.arange(rows.shape[1]) * np.einsum("pnr,pnr->n", rows, rows)).tolist())


def _guard_mass(nd: np.ndarray) -> float:
    """Guard-band mass of a C-ordered array with one axis per mode, summed over
    the band: piece m holds the modes before m below their band, mode m in it."""
    flat = nd.reshape(-1).view(np.float64).reshape(nd.shape + (2,))
    below = [slice(0, max(d - GUARD_BAND, 0)) for d in nd.shape]
    pieces = (flat[(*below[:m], slice(below[m].stop, None))] for m in range(nd.ndim))
    axes = list(range(flat.ndim))
    return float(sum(np.einsum(piece, axes, piece, axes, []) for piece in pieces))


def _warn_leak(mass: float, what: str) -> None:
    if mass > LEAK_THRESHOLD:
        warnings.warn(
            f"{what}: {mass:.3e} probability against a cutoff (threshold {LEAK_THRESHOLD:.0e})",
            LeakageWarning,
            stacklevel=3,
        )


def vacuum_state(layout: ModeLayout) -> FockState:
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[0] = 1.0
    return FockState(layout, amps)


def basis_state(layout: ModeLayout, occupation) -> FockState:
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.index(occupation)] = 1.0
    return FockState(layout, amps)


def marginal_number_distribution(state: FockState, mode: int) -> np.ndarray:
    """Photon-number probabilities of one mode of a normalized state,
    tracing out the rest."""
    state.layout._check_mode(mode)
    if not state.is_normalized():
        raise ValueError(f"state is not normalized (norm {state.norm()})")
    probs = np.abs(state.nd) ** 2
    axes = tuple(ax for ax in range(state.layout.n_modes) if ax != mode)
    return probs.sum(axis=axes)


def tensor(a: FockState, b: FockState) -> FockState:
    """Tensor product; layouts concatenate, amplitudes multiply."""
    layout = ModeLayout(a.layout.cutoffs + b.layout.cutoffs)  # raises on overflow
    amps = np.multiply.outer(a.nd, b.nd)
    return FockState(layout, amps.reshape(-1), a.leakage + b.leakage)
