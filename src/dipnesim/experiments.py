"""Deterministic experiment runners.

Each experiment consumes a flat key=value config and produces a
ResultTable whose CSV/JSON rendering is byte-identical across runs:
no wall clock, no ambient randomness (the oracle enumerator draws from
a seeded generator), rows sorted by their sweep keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from ._version import __version__
from .analytics import (
    c_equal,
    c_equal_bruteforce,
    gaussian_propagate,
    interference_loss_theory,
    mean_photons_from_moments,
    squeeze_fraction_strong,
    squeeze_to_match,
    vacuum_moments,
)
from .catfit import CatFitResult, fit_squeezed_cats, kitten_target
from .circuits import (
    GadgetSpec,
    _apply_into,
    _displacement_matrix,
    _mode_action,
    _mode_step,
    displacements,
    squeeze_op,
)
from .fock import FockState, ModeLayout, _guard_mass, _warn_leak, basis_state, vacuum_state
from .kitten import KittenSpec, herald_tails, kitten_direct, kitten_probability
from .measure import _vacuum_split, l_intf, mean_quadrature
from .states import Squeeze

MEANPHOTON_TOL = 1e-6
QUADRATURE_TOL = 1e-8
C_EQUAL_TOL = 1e-9

INTERFERENCE_FAMILIES = (
    "vacuum",
    "photon0",
    "photon-both",
    "photon-both+squeeze-i",
)


# ---------------------------------------------------------------- tables


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, str):
        if any(c in value for c in ",\n\r"):
            raise ValueError(f"cell value {value!r} would break the CSV dialect")
        return value
    raise TypeError(f"unsupported cell type {type(value).__name__}")


@dataclass(frozen=True)
class ResultTable:
    """Column-oriented result set with a '#'-prefixed metadata header."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if set(map(len, self.rows)) - {len(self.columns)}:
            raise ValueError("row width does not match the column list")

    def to_csv(self) -> str:
        # by column: exact floats and ints convert as _fmt would, strings are
        # checked once per distinct value, anything else goes through _fmt
        lines = [f"# {key} = {value}" for key, value in self.metadata]
        lines.append(",".join(self.columns))
        cells, plain = [], {float: float.__repr__, int: int.__str__}
        for column in zip(*self.rows):
            kinds = set(map(type, column))
            kind = kinds.pop() if len(kinds) == 1 else None
            if kind is str:
                for text in set(column):
                    _fmt(text)
                cells.append(column)
            else:
                cells.append(map(plain.get(kind, _fmt), column))
        lines += map(",".join, zip(*cells))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """RFC 8259 JSON: a non-finite float cell is written as the string
        the CSV writes for it ("nan", "inf", "-inf")."""
        import json

        payload = {
            "metadata": dict(self.metadata),
            "columns": list(self.columns),
            "rows": [
                [_fmt(cell) if isinstance(cell, float) and not math.isfinite(cell) else cell for cell in row]
                for row in self.rows
            ],
        }
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def meta(self, key: str) -> str:
        for k, v in self.metadata:
            if k == key:
                return v
        raise KeyError(key)


# ---------------------------------------------------------------- config


def _as_int(v) -> int:
    if isinstance(v, bool):
        raise ValueError(f"expected an integer, got {v!r}")
    if isinstance(v, (int, np.integer)):
        return int(v)
    return int(str(v).strip())


def _as_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    token = str(v).strip().lower()
    if token in ("true", "1", "yes", "on"):
        return True
    if token in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


def _as_list(convert: Callable) -> Callable[[object], tuple]:
    """A converter of a comma list, or of a tuple, list or array, to a
    tuple of convert's values; an empty comma list raises."""

    def parse(v) -> tuple:
        if isinstance(v, (tuple, list, np.ndarray)):
            return tuple(map(convert, v))
        parts = [p.strip() for p in str(v).split(",") if p.strip()]
        if not parts:
            raise ValueError("empty list value")
        return tuple(map(convert, parts))

    return parse


def _choice(*options: str) -> Callable[[object], str]:
    def convert(v) -> str:
        token = str(v).strip()
        if token not in options:
            raise ValueError(
                f"invalid value {token!r}: valid names are {', '.join(options)}"
            )
        return token

    return convert


@dataclass(frozen=True)
class _Key:
    convert: Callable
    default: object


# kitten and catfit are two column projections of one sweep
_KITTEN_SWEEP = {
    "squeeze_min": _Key(float, 1.0),
    "squeeze_max": _Key(float, 20.0),
    "squeeze_steps": _Key(_as_int, 20),
    "infinite": _Key(_as_bool, False),
    "k_list": _Key(_as_list(_as_int), (1, 3, 5, 7, 9)),
    "theta_sub": _Key(float, math.pi / 5),
    "cutoff": _Key(_as_int, 1000),
}

SCHEMAS: dict[str, dict[str, _Key]] = {
    "interference": {
        "theta_split": _Key(float, math.pi / 5),
        "theta_recomb": _Key(float, math.pi / 10),
        "phase": _Key(float, 0.0),
        "family": _Key(_choice(*INTERFERENCE_FAMILIES), "vacuum"),
        "fraction_count": _Key(_as_int, 21),
        "displacement_photons": _Key(float, 1.0),
        "cutoff": _Key(_as_int, 30),
    },
    "kitten": _KITTEN_SWEEP,
    "catfit": _KITTEN_SWEEP,
    "numberdiff": {
        "k": _Key(_as_int, 1),
        "squeeze_photons": _Key(float, 10.0),
        "theta_sub": _Key(float, math.pi / 5),
        "cutoff": _Key(_as_int, 100),
        "joint_cutoff": _Key(_as_int, 160),
        "lo_rule": _Key(_choice("sqrt-plus-2", "sqrt-of-plus-2"), "sqrt-plus-2"),
    },
    "match": {
        "source_k": _Key(_as_list(_as_int), (1, 3, 5, 7, 9)),
        "target_k": _Key(_as_list(_as_int), (1, 3, 5, 7, 9)),
        "squeeze_photons": _Key(float, math.inf),
        "theta_sub": _Key(float, math.pi / 5),
        "cutoff": _Key(_as_int, 300),
        "work_cutoff": _Key(_as_int, 600),
    },
    "gaussdrive": {
        "d0_list": _Key(_as_list(float), (1.0,)),
        "r0_photons": _Key(_as_list(float), (0.0, 0.1)),
        "r_min": _Key(float, 0.0),
        "r_max": _Key(float, 6.0),
        "r_steps": _Key(_as_int, 25),
    },
    "oracle-check": {
        "seed": _Key(_as_int, 7),
        "circuits": _Key(_as_int, 100),
        "cutoff": _Key(_as_int, 60),
        "max_modes": _Key(_as_int, 3),
    },
}

EXPERIMENTS = tuple(sorted(SCHEMAS))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    values: Mapping[str, object]

    def __getitem__(self, key: str):
        return self.values[key]


def make_config(experiment: str, overrides: Mapping[str, object] | None = None) -> ExperimentConfig:
    if experiment not in SCHEMAS:
        raise ValueError(
            f"unknown experiment {experiment!r}: valid names are {', '.join(EXPERIMENTS)}"
        )
    schema = SCHEMAS[experiment]
    overrides = dict(overrides or {})
    unknown = sorted(set(overrides) - set(schema))
    if unknown:
        raise ValueError(
            f"unknown keys for {experiment}: {', '.join(unknown)}; "
            f"valid keys are {', '.join(sorted(schema))}"
        )
    values = {}
    for key, keyspec in schema.items():
        raw = overrides.get(key, keyspec.default)
        try:
            values[key] = keyspec.convert(raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad value for {key}: {exc}") from None
    return ExperimentConfig(experiment, MappingProxyType(values))


def read_config_file(path) -> dict[str, str]:
    """Flat key=value lines; blank lines and '#' comments are skipped."""
    result: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            result[key.strip()] = value.strip()
    return result


def _base_metadata(config: ExperimentConfig, extras: list[tuple[str, str]]) -> tuple:
    meta = [("experiment", config.experiment)]
    for key in sorted(config.values):
        val = config.values[key]
        if isinstance(val, tuple):
            meta.append((key, ",".join(_fmt(x) for x in val)))
        else:
            meta.append((key, _fmt(val)))
    meta.extend(extras)
    meta.append(("version", __version__))
    return tuple(meta)


# ------------------------------------------------------------- runners


def _interference_cores(family: str, cutoff: int) -> tuple[FockState, FockState]:
    layout = ModeLayout((cutoff,))
    vac = vacuum_state(layout)
    one = basis_state(layout, (1,))
    if family == "vacuum":
        return vac, vac
    if family == "photon0":
        return one, vac
    if family == "photon-both":
        return one, one
    if family == "photon-both+squeeze-i":
        return one, squeeze_op(one, 0, Squeeze(math.asinh(1.0), math.pi / 2))
    raise ValueError(
        f"invalid family {family!r}: valid names are {', '.join(INTERFERENCE_FAMILIES)}"
    )


def run_interference(config: ExperimentConfig) -> ResultTable:
    """Photon loss due to interference in the pickoff gadget, swept over
    how the displacement budget splits across the two system modes."""
    phase = config["phase"]
    if not (abs(phase) < 1e-12 or abs(phase - math.pi) < 1e-12):
        raise ValueError("phase must be 0 or pi")
    pi_shift = phase > 1.0
    spec = GadgetSpec(config["theta_split"], config["theta_recomb"], pi_shift)
    cutoff = config["cutoff"]
    count = config["fraction_count"]
    if count < 2:
        raise ValueError("fraction_count must be at least 2")
    budget = config["displacement_photons"]
    if not 0.0 <= budget < math.inf:
        raise ValueError("displacement_photons must be finite and nonnegative")

    core0, core1 = _interference_cores(config["family"], cutoff)
    fractions = np.linspace(0.0, 1.0, count)
    alphas0 = [math.sqrt(fraction * budget) for fraction in fractions]
    alphas1 = [math.sqrt((1.0 - fraction) * budget) for fraction in fractions]
    # every fraction's D(alpha) on each core from stacked exponentials
    inputs0 = displacements(core0, 0, alphas0)
    inputs1 = displacements(core1, 0, alphas1)
    rows = []
    max_leak = 0.0
    max_guard = 0.0
    max_clipped = 0.0
    for fraction, alpha0, alpha1, input0, input1 in zip(fractions, alphas0, alphas1, inputs0, inputs1):
        max_leak = max(max_leak, input0.leakage, input1.leakage)
        max_guard = max(max_guard, input0.guard_band_mass, input1.guard_band_mass)
        diagnostics = {}
        sim = l_intf(input0, input1, spec, diagnostics)
        max_clipped = max(max_clipped, diagnostics["clipped_sector_mass"])
        theory = interference_loss_theory(
            alpha0, alpha1, spec.theta_split, spec.theta_interfere, pi_shift
        )
        rows.append((float(fraction), sim, theory, abs(sim - theory)))

    rows.sort(key=lambda r: r[0])
    extras = [
        ("max_leakage", _fmt(max_leak)),
        ("max_input_guard_mass", _fmt(max_guard)),
        ("max_clipped_sector_mass", _fmt(max_clipped)),
    ]
    return ResultTable(
        columns=("fraction", "L_intf_sim", "L_intf_theory", "abs_error"),
        rows=tuple(rows),
        metadata=_base_metadata(config, extras),
    )


def _linear_sweep(config: ExperimentConfig, name: str) -> list[float]:
    """The grid from {name}_min to {name}_max in {name}_steps points."""
    lo, hi, steps = config[f"{name}_min"], config[f"{name}_max"], config[f"{name}_steps"]
    if steps < 1:
        raise ValueError(f"{name}_steps must be at least 1")
    if not 0.0 <= lo <= hi < math.inf:
        raise ValueError(f"need 0 <= {name}_min <= {name}_max < inf")
    if steps == 1:
        return [lo]
    return [float(x) for x in np.linspace(lo, hi, steps)]


def _squeeze_sweep(config: ExperimentConfig) -> list[float]:
    if config["infinite"]:
        return [math.inf]
    return _linear_sweep(config, "squeeze")


def _kitten_table(config: ExperimentConfig, columns: tuple[str, ...], project) -> ResultTable:
    """Herald each (squeeze_photons, k) point of the sweep, then fit the
    kitten_target of every point in one lockstep call (k + 1 levels per
    row, no cutoff); the row is the point followed by
    ``project(k, (probability, mean_n), fit)``.  At zero squeezing there is
    nothing to herald or fit, and both are None.  Every column is closed
    form from the point's spec.core(); the cutoff enters only the Fock
    kittens' largest truncated tail, max_leakage, which kitten.herald_tails
    measures for all points in one batched build (and warns of per point)."""
    sweep = _squeeze_sweep(config)
    theta, cutoff = config["theta_sub"], config["cutoff"]

    points = [(photons, k) for photons in sweep for k in config["k_list"]]
    specs = [KittenSpec(photons, theta, k, cutoff) for photons, k in points]
    live = [spec for spec in specs if spec.squeeze_photons != 0.0]
    tails = herald_tails(live)
    targets = [kitten_target(spec) for spec in live]
    # target.photons is photon_number(r' + 0.0, c): kitten_direct's mean_photons
    done = iter(
        ((math.nan if spec.infinite else kitten_probability(spec), target.photons), fit)
        for spec, target, fit in zip(live, targets, fit_squeezed_cats(targets))
    )
    rows = [
        (photons, k) + project(k, *(next(done) if photons != 0.0 else (None, None)))
        for photons, k in points
    ]

    rows.sort(key=lambda r: (r[0], r[1]))
    extras = [("max_leakage", _fmt(max(tails, default=0.0)))]
    return ResultTable(
        columns=("squeeze_photons", "k") + columns,
        rows=tuple(rows),
        metadata=_base_metadata(config, extras),
    )


def _kitten_columns(k: int, herald: tuple[float, float] | None, fit: CatFitResult | None) -> tuple:
    if herald is None:
        prob, mean = (1.0, 0.0) if k == 0 else (0.0, math.nan)
        return (prob, mean, math.nan, math.nan, math.nan)
    return (*herald, fit.infidelity, 1.0 - fit.plain_cat_fidelity, fit.squeeze_fraction)


def run_kitten(config: ExperimentConfig) -> ResultTable:
    """Herald probability, photon content, and cat quality of subtracted
    squeezed vacuum across a squeezing sweep."""
    columns = (
        "probability",
        "mean_n",
        "infidelity_sqcat",
        "infidelity_plaincat",
        "squeeze_fraction",
    )
    return _kitten_table(config, columns, _kitten_columns)


def _catfit_columns(k: int, herald: tuple[float, float], fit: CatFitResult) -> tuple:
    return (
        fit.fidelity,
        fit.plain_cat_fidelity,
        fit.squeeze_fraction,
        fit.alpha,
        fit.r,
        fit.phi,
    )


def run_catfit(config: ExperimentConfig) -> ResultTable:
    """Full fit parameters (not just infidelities) for the same sweep
    run_kitten covers."""
    if any(s == 0.0 for s in _squeeze_sweep(config)):
        raise ValueError("catfit requires positive squeezing")
    columns = (
        "fidelity",
        "plain_fidelity",
        "squeeze_fraction",
        "alpha",
        "r",
        "phi",
    )
    return _kitten_table(config, columns, _catfit_columns)


def run_numberdiff(config: ExperimentConfig) -> ResultTable:
    """Joint photon-count distribution of a kitten translated against a
    local oscillator, plus the count-difference marginal.

    B(pi/4) (R(pi/2) phi (x) |beta>) = D_0(i beta c) D_1(beta c) B(pi/4) (R(pi/2) phi (x) |0>), c = cos(pi/4),
    so the counts are the squares of E chi E^T: chi = R_0(-pi/2) B(pi/4) R_0(pi/2) (phi (x) |0>) is the real
    split measure._vacuum_split times i^b, E = <m|D(beta c)|n> untruncated (circuits._displacement_matrix) on
    the columns chi fills, and R_0(pi/2) and the -i of D_0 change no count.  That is the translated state on
    counts <= joint_cutoff, so 1 - total_probability is the mass beyond.  Two einsum products, no BLAS call."""
    cutoff, joint_cutoff = config["cutoff"], config["joint_cutoff"]
    if joint_cutoff < cutoff:
        raise ValueError("joint_cutoff must be at least cutoff")
    kit = kitten_direct(KittenSpec(config["squeeze_photons"], config["theta_sub"], config["k"], cutoff))
    mean = kit.mean_photons
    lo_amp = math.sqrt(mean) + 2.0 if config["lo_rule"] == "sqrt-plus-2" else math.sqrt(mean + 2.0)
    ds, d = cutoff + 1, joint_cutoff + 1
    idx, src, u = _vacuum_split(ds, ds, math.pi / 4)
    chi = np.zeros((ds, ds))
    chi.reshape(-1)[idx] = (u * np.array([1, 1j, -1, -1j])[idx % ds % 4]).real * kit.state.amplitudes.real[src]
    e = np.ascontiguousarray(_displacement_matrix(lo_amp * math.cos(math.pi / 4), d)[:, :ds])
    dist = np.einsum("mi,in->mn", e, np.einsum("ij,nj->in", chi, e)) ** 2
    total = float(dist.sum())
    _warn_leak(1.0 - total, f"numberdiff counts beyond joint_cutoff={joint_cutoff}")

    n0, n1 = np.nonzero(dist > 0.0)
    p = dist[n0, n1]
    rows = list(zip(["joint"] * p.size, n0.tolist(), n1.tolist(), (n0 - n1).tolist(), p.tolist()))
    diffs = np.bincount(n0 - n1 + d - 1, weights=p, minlength=2 * d - 1)
    rows += [("difference", -1, -1, diff, q) for diff, q in zip(range(1 - d, d), diffs.tolist()) if q > 0.0]

    extras = [
        ("lo_amplitude", _fmt(lo_amp)),
        ("kitten_mean_photons", _fmt(kit.mean_photons)),
        ("kitten_probability", _fmt(kit.probability)),
        ("p_equal_counts", _fmt(float(diffs[d - 1]))),
        ("total_probability", _fmt(total)),
        ("max_leakage", _fmt(kit.state.leakage)),
    ]
    return ResultTable(
        columns=("section", "n0", "n1", "diff", "probability"),
        rows=tuple(rows),
        metadata=_base_metadata(config, extras),
    )


def run_match(config: ExperimentConfig) -> ResultTable:
    """Antisqueezing needed to move each source kitten's displacement to
    each target kitten's, with the photon overhead it causes.  Diagonal
    pairs need none and keep the kitten's own fit; the others share one
    squeeze_to_match search, which has no cutoff.  max_guard_mass is the
    largest tail of a matched state beyond work_cutoff levels."""
    theta, cutoff = config["theta_sub"], config["cutoff"]
    photons = config["squeeze_photons"]
    ks = sorted(set(config["source_k"]) | set(config["target_k"]))
    specs = {k: KittenSpec(photons, theta, k, cutoff) for k in ks}
    max_leak = max(herald_tails(list(specs.values())))
    fits = dict(zip(ks, fit_squeezed_cats([kitten_target(spec) for spec in specs.values()])))

    grid = sorted((s, t) for s in config["source_k"] for t in config["target_k"])
    off = sorted({(s, t) for s, t in grid if s != t})
    pairs = [(specs[s], fits[s].alpha, fits[t].alpha) for s, t in off]
    matched = dict(zip(off, squeeze_to_match(pairs, work_cutoff=config["work_cutoff"])))
    rows = [
        (s, t, matched[s, t].r_required, matched[s, t].excess_fraction)
        if s != t else (s, t, 0.0, fits[s].squeeze_fraction)
        for s, t in grid
    ]
    guard = max((res.guard_mass for res in matched.values()), default=0.0)
    extras = [("max_leakage", _fmt(max_leak)), ("max_guard_mass", _fmt(guard))]
    extras += [(f"alpha_k{k}", _fmt(fits[k].alpha)) for k in ks]
    return ResultTable(
        columns=("k_source", "k_target", "r_required", "excess_fraction"),
        rows=tuple(rows),
        metadata=_base_metadata(config, extras),
    )


def run_gaussdrive(config: ExperimentConfig) -> ResultTable:
    """Squeezing-photon fraction under antisqueezed driving, exact next
    to its strong-drive limit."""
    r_values = _linear_sweep(config, "r")
    rows = []
    for d0 in config["d0_list"]:
        for photons in config["r0_photons"]:
            if not photons >= 0.0:
                raise ValueError("r0_photons entries must be nonnegative")
            r0 = math.asinh(math.sqrt(photons))
            for r in r_values:
                exact, strong = squeeze_fraction_strong(d0, r0, r)
                rows.append((d0, r0, r, exact, strong))
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    return ResultTable(
        columns=("d0", "r0", "r", "fraction_exact", "fraction_strong_limit"),
        rows=tuple(rows),
        metadata=_base_metadata(config, []),
    )


def _enumerated_circuits(seed: int, count: int, max_modes: int):
    """Fixed pseudorandom element sequences with bounded photon
    potential, so cutoff 60 keeps truncation far below the tolerances."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n_modes = 1 + i % max_modes
        if i == 0:
            yield f"g{i:03d}", n_modes, []
            continue
        n_elements = int(rng.integers(1, 7))
        disp_left, squeeze_left = 2.0, 0.5
        elements = []
        for _ in range(n_elements):
            kinds = ["displace", "squeeze", "phase"]
            if n_modes > 1:
                kinds.append("beamsplit")
            kind = kinds[int(rng.integers(len(kinds)))]
            if kind == "displace":
                mag = disp_left * float(rng.uniform(0.3, 0.9))
                disp_left -= mag
                angle = float(rng.uniform(0.0, 2.0 * math.pi))
                elements.append(
                    ("displace", int(rng.integers(n_modes)), mag * complex(math.cos(angle), math.sin(angle)))
                )
            elif kind == "squeeze":
                r = squeeze_left * float(rng.uniform(0.3, 0.9))
                squeeze_left -= r
                elements.append(
                    ("squeeze", int(rng.integers(n_modes)), Squeeze(r, float(rng.uniform(0.0, 2.0 * math.pi))))
                )
            elif kind == "phase":
                elements.append(
                    ("phase", int(rng.integers(n_modes)), float(rng.uniform(0.0, 2.0 * math.pi)))
                )
            else:
                pair = rng.choice(n_modes, size=2, replace=False)
                elements.append(
                    ("beamsplit", int(pair[0]), int(pair[1]), float(rng.uniform(0.1, 1.4)))
                )
        yield f"g{i:03d}", n_modes, elements


def _product_factors(circuits, cutoff: int):
    """Run (n_modes, elements) circuits on product-state factors, yielding
    {mode: (modes, state)} for each circuit in turn.

    A lane is one (circuit, mode) pair; its prefix is every element before
    the first beamsplit that touches the mode, which commutes with all work
    on other modes.  Phase 1 runs every lane's prefix from vacuum in
    lockstep: step t is one _mode_action call for the t-th displace and
    squeeze elements of all lanes, and one product for their phases.  Phase
    2 runs each circuit's other elements depth-first, in place through
    _apply_into, on one array per joined factor that np.multiply.outer makes
    at the joining beamsplit, and yields the circuit before the next starts.
    """
    circuits, levels = list(circuits), np.arange(cutoff + 1)
    lanes, rests = [], []
    for n_modes, elements in circuits:
        coupled, rest, prefixes = set(), [], [[] for _ in range(n_modes)]
        for element in elements:
            if element[0] == "beamsplit":
                coupled.update(element[1:3])
            (rest if element[1] in coupled else prefixes[element[1]]).append(element)
        lanes += prefixes
        rests.append(rest)
    vecs = np.zeros((len(lanes), cutoff + 1), dtype=np.complex128)
    vecs[:, 0] = 1.0
    for step in range(max(map(len, lanes), default=0)):
        moves = []
        for lane, prefix in enumerate(lanes):
            if len(prefix) > step and prefix[step][0] == "phase":
                vecs[lane] *= np.exp(1j * prefix[step][2] * levels)
            elif len(prefix) > step:
                moves.append((lane, _mode_step(prefix[step])))
        if moves:
            at, (powers, scales, phis, whats) = [lane for lane, _ in moves], zip(*(op for _, op in moves))
            vecs[at] = _mode_action(vecs[at], powers, scales, phis)
            for lane, what in zip(at, whats):
                _warn_leak(_guard_mass(vecs[lane]), what)
    starts = np.cumsum([0] + [n_modes for n_modes, _ in circuits])
    for (n_modes, _), rest, lane in zip(circuits, rests, starts):
        factors = {mode: ((mode,), vecs[lane + mode]) for mode in range(n_modes)}
        for element in rest:
            targets = element[1:3] if element[0] == "beamsplit" else element[1:2]
            modes, amps = factors[targets[0]]
            if targets[-1] not in modes:
                other, amps_b = factors[targets[-1]]
                ModeLayout((cutoff,) * len(modes + other))  # raises on overflow
                modes, amps = modes + other, np.multiply.outer(amps, amps_b)
            _apply_into(amps, (element[0], *(modes.index(m) for m in targets), *element[1 + len(targets):]))
            for mode in modes:
                factors[mode] = (modes, amps)
        held = {modes: FockState(ModeLayout((cutoff,) * len(modes)), amps) for modes, amps in dict(factors.values()).items()}
        yield {mode: (modes, held[modes]) for mode, (modes, _) in factors.items()}


def run_oracle_check(config: ExperimentConfig) -> ResultTable:
    """Moment propagation against the Fock simulator over enumerated
    Gaussian circuits, plus the equal-count amplitude against brute
    force.

    The Fock side runs on product-state factors (_product_factors): every
    circuit's one-mode prefixes first, in lockstep across circuits, then each
    circuit's rest in turn, read out and dropped before the next.  A mode's
    photon number and quadratures are read from the factor that holds it,
    and the full n-mode array is built only when beamsplits join every mode.
    """
    cutoff = config["cutoff"]
    if config["circuits"] < 1:
        raise ValueError("circuits must be at least 1")
    if not 1 <= config["max_modes"] <= 3:
        raise ValueError("max_modes must be 1, 2, or 3")

    rows = []
    all_ok = True
    circuits = list(_enumerated_circuits(config["seed"], config["circuits"], config["max_modes"]))
    runs = _product_factors([(n_modes, elements) for _, n_modes, elements in circuits], cutoff)
    for (circuit_id, n_modes, elements), factors in zip(circuits, runs):
        moments = vacuum_moments(n_modes)
        for element in elements:
            moments = gaussian_propagate(moments, element)
        photon_err = quad_err = 0.0
        for mode in range(n_modes):
            modes, state = factors[mode]
            local = modes.index(mode)
            n_err = abs(mean_photons_from_moments(moments, mode) - state.mean_photons(local))
            qx, qp = mean_quadrature(state, local)
            photon_err = max(photon_err, n_err)
            quad_err = max(quad_err, abs(moments.mean[2 * mode] - qx), abs(moments.mean[2 * mode + 1] - qp))
        all_ok &= photon_err <= MEANPHOTON_TOL and quad_err <= QUADRATURE_TOL
        rows.append((circuit_id, photon_err, quad_err))

    c_dev = 0.0
    for n in range(9):
        for m in range(9):
            c_dev = max(c_dev, abs(c_equal(n, m) - c_equal_bruteforce(n, m)))
    all_ok &= c_dev <= C_EQUAL_TOL
    rows.append(("c_equal", c_dev, 0.0))

    extras = [
        ("meanphoton_tolerance", _fmt(MEANPHOTON_TOL)),
        ("quadrature_tolerance", _fmt(QUADRATURE_TOL)),
        ("c_equal_tolerance", _fmt(C_EQUAL_TOL)),
        ("c_equal_note", "the c_equal row reports its deviation in the meanphoton column"),
        ("within_tolerance", "yes" if all_ok else "no"),
    ]
    return ResultTable(
        columns=("circuit_id", "max_meanphoton_error", "max_quadrature_error"),
        rows=tuple(rows),
        metadata=_base_metadata(config, extras),
    )


RUNNERS: dict[str, Callable[[ExperimentConfig], ResultTable]] = {
    "interference": run_interference,
    "kitten": run_kitten,
    "catfit": run_catfit,
    "numberdiff": run_numberdiff,
    "match": run_match,
    "gaussdrive": run_gaussdrive,
    "oracle-check": run_oracle_check,
}


def run_experiment(config: ExperimentConfig) -> ResultTable:
    return RUNNERS[config.experiment](config)
