"""Benchmark workloads: seeded argv generators and output checks.

Each workload turns a seed into the ``dipne-sim`` argv that one benchmark
run replays, and checks the CSV table that argv produces.  The program
only ever sees the argv.  A check gives one verdict per table row; a run
that exited non-zero or wrote no table fails every row it should have
produced.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

FAMILIES = ("vacuum", "photon0", "photon-both", "photon-both+squeeze-i")
# gadget angles keep this margin from the ends of (0, pi/2)
ANGLE_MARGIN = 0.05
# match-grid's theta_sub lies within this of pi/5
MATCH_THETA_SPREAD = 0.05

# |L_intf_sim - theory| bound per input family.  The displaced photon and
# vacuum cores are exact at cutoff 30.  The squeezed core loses ~1e-3 of
# its mass to the cutoff, which moves L_intf by up to 1.5e-3 where
# sin(2 theta_split) sin(2 theta_recomb) is near 1; acceptance criterion
# 01's 1e-3 covers only its default angles.
GADGET_TOL = {"photon-both+squeeze-i": 2e-3}
GADGET_EXACT_TOL = 1e-9
MATCH_REFIT_TOL = 1e-6


def _num(x: float) -> str:
    return repr(round(x, 6))


def fit_sweep_argv(rng: random.Random, seed: int) -> list[str]:
    lo = rng.uniform(1.0, 10.0)
    hi = rng.uniform(11.0, 20.0)
    return [
        "kitten",
        "--k_list", "1,3,5,7,9",
        "--cutoff", "1000",
        "--squeeze_steps", "4",
        "--squeeze_min", _num(lo),
        "--squeeze_max", _num(hi),
    ]


def gadget_argv(rng: random.Random, seed: int) -> list[str]:
    family = rng.choice(FAMILIES)
    span = math.pi / 2 - 2 * ANGLE_MARGIN
    split = ANGLE_MARGIN + span * rng.random()
    recomb = ANGLE_MARGIN + span * rng.random()
    return [
        "interference",
        "--cutoff", "30",
        "--fraction_count", "21",
        "--displacement_photons", "1",
        "--family", family,
        "--theta_split", _num(split),
        "--theta_recomb", _num(recomb),
    ]


def match_grid_argv(rng: random.Random, seed: int) -> list[str]:
    # the k pair sets how far the bisection has to squeeze, and with it the
    # cost, so the pair is fixed and the seed moves the subtraction angle
    # instead
    theta = math.pi / 5 + MATCH_THETA_SPREAD * (2.0 * rng.random() - 1.0)
    return [
        "match",
        "--squeeze_photons", "inf",
        "--theta_sub", _num(theta),
        "--cutoff", "300",
        "--work_cutoff", "600",
        "--source_k", "1",
        "--target_k", "3",
    ]


def oracle_argv(rng: random.Random, seed: int) -> list[str]:
    # the enumerator's own seed is the workload seed
    return ["oracle-check", "--circuits", "100", "--cutoff", "60", "--seed", str(seed)]


# ----------------------------------------------------------------- tables


@dataclass(frozen=True)
class Table:
    meta: dict[str, str]
    columns: list[str]
    rows: list[list[str]]

    def col(self, row: list[str], name: str) -> float:
        return float(row[self.columns.index(name)])


def parse_csv(text: str) -> Table:
    meta: dict[str, str] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition(" = ")
        meta[key] = value
        i += 1
    if i >= len(lines):
        raise ValueError("table has no header line")
    columns = lines[i].split(",")
    rows = [line.split(",") for line in lines[i + 1 :]]
    if any(len(r) != len(columns) for r in rows):
        raise ValueError("ragged table")
    return Table(meta, columns, rows)


def params(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def _ints(value: str) -> list[int]:
    return [int(x) for x in value.split(",")]


# ----------------------------------------------------------------- checks
# Each check returns one verdict per table row.


def check_fit_sweep(argv: list[str], table: Table) -> list[bool]:
    p = params(argv)
    ks = _ints(p["--k_list"])
    steps = int(p["--squeeze_steps"])
    lo, hi = float(p["--squeeze_min"]), float(p["--squeeze_max"])
    grid = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    keys, oks = [], []
    infidelity: dict[tuple[float, int], float] = {}
    for row in table.rows:
        s, k = table.col(row, "squeeze_photons"), int(table.col(row, "k"))
        sq, plain = table.col(row, "infidelity_sqcat"), table.col(row, "infidelity_plaincat")
        oks.append(
            k in ks
            and any(abs(s - g) <= 1e-9 * g for g in grid)
            and 0.0 <= table.col(row, "probability") <= 1.0
            and 0.0 <= sq <= plain  # s = 0, the plain cat, is on the fit grid
            and 0.0 <= table.col(row, "squeeze_fraction") <= 1.0
        )
        keys.append((s, k))
        infidelity[(s, k)] = sq
    # criterion 03: at each squeezing, infidelity strictly falls with k >= 3;
    # a break fails the row with the larger k
    for i, (s, k) in enumerate(keys):
        lower = [kk for (ss, kk) in infidelity if ss == s and 3 <= kk < k]
        if lower and not infidelity[(s, k)] < infidelity[(s, max(lower))]:
            oks[i] = False
    return oks


def check_gadget(argv: list[str], table: Table) -> list[bool]:
    from dipnesim import interference_loss_theory

    p = params(argv)
    count = int(p["--fraction_count"])
    budget = float(p["--displacement_photons"])
    split, recomb = float(p["--theta_split"]), float(p["--theta_recomb"])
    tol = GADGET_TOL.get(p["--family"], GADGET_EXACT_TOL)
    oks = []
    for i, row in enumerate(table.rows):
        f = table.col(row, "fraction")
        a0, a1 = math.sqrt(f * budget), math.sqrt((1.0 - f) * budget)
        theory = interference_loss_theory(a0, a1, split, recomb, False)
        oks.append(
            abs(f - i / (count - 1)) <= 1e-12
            and abs(table.col(row, "L_intf_sim") - theory) <= tol
        )
    return oks


def check_match_grid(argv: list[str], table: Table) -> list[bool]:
    import numpy as np
    from dipnesim import (
        FockState,
        KittenSpec,
        ModeLayout,
        Squeeze,
        fit_squeezed_cat,
        kitten_direct,
        squeeze_op,
    )

    p = params(argv)
    sources, targets = _ints(p["--source_k"]), _ints(p["--target_k"])
    cutoff, work = int(p["--cutoff"]), int(p["--work_cutoff"])
    photons = float(p["--squeeze_photons"])
    theta = float(table.meta["theta_sub"])
    oks = []
    for row in table.rows:
        ks, kt = int(table.col(row, "k_source")), int(table.col(row, "k_target"))
        r, excess = table.col(row, "r_required"), table.col(row, "excess_fraction")
        a_s = float(table.meta[f"alpha_k{ks}"])
        a_t = float(table.meta[f"alpha_k{kt}"])
        ok = (
            ks in sources
            and kt in targets
            and 0.0 <= excess < 1.0
            and r != 0.0
            and (r > 0.0) == (a_t > a_s)
        )
        if ok:
            # antisqueeze the source along its displacement axis by r, refit
            kit = kitten_direct(KittenSpec(photons, theta, ks, cutoff))
            amps = np.zeros(work + 1, dtype=np.complex128)
            amps[: cutoff + 1] = kit.state.amplitudes
            grown = FockState(ModeLayout((work,)), amps, kit.state.leakage)
            sq = Squeeze(r, math.pi) if r > 0.0 else Squeeze(-r, 0.0)
            alpha = fit_squeezed_cat(squeeze_op(grown, 0, sq)).alpha
            ok = abs(alpha - a_t) <= MATCH_REFIT_TOL
        oks.append(ok)
    return oks


def check_oracle(argv: list[str], table: Table) -> list[bool]:
    tol_n = float(table.meta["meanphoton_tolerance"])
    tol_q = float(table.meta["quadrature_tolerance"])
    tol_c = float(table.meta["c_equal_tolerance"])
    oks = []
    for row in table.rows:
        err_n = table.col(row, "max_meanphoton_error")
        err_q = table.col(row, "max_quadrature_error")
        if row[0] == "c_equal":
            oks.append(err_n <= tol_c)
        else:
            oks.append(err_n <= tol_n and err_q <= tol_q)
    if table.meta.get("within_tolerance") != "yes" and all(oks):
        oks[-1] = False  # the program's own verdict disagrees with its rows
    return oks


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_argv: Callable[[random.Random, int], list[str]]
    expected_rows: Callable[[dict[str, str]], int]
    check: Callable[[list[str], Table], list[bool]]

    def argv(self, seed: int) -> list[str]:
        return self.make_argv(random.Random(f"{self.name}:{seed}"), seed)

    def verify(self, argv: list[str], rc: int | None, csv_text: str | None) -> tuple[int, int]:
        """(rows attempted, rows failed) for one invocation's output.

        Rows missing from the table, or beyond the expected count, fail.
        """
        expected = self.expected_rows(params(argv))
        if rc != 0 or not csv_text:
            return expected, expected
        try:
            oks = self.check(argv, parse_csv(csv_text))
        except (ValueError, KeyError, IndexError):
            return expected, expected
        return expected, oks.count(False) + abs(expected - len(oks))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fit-sweep",
            "kitten sweep, 20 squeezed-cat fits at cutoff 1000; cat_state under "
            "fit_squeezed_cat dominates and no circuits run",
            fit_sweep_argv,
            lambda p: len(_ints(p["--k_list"])) * int(p["--squeeze_steps"]),
            check_fit_sweep,
        ),
        Workload(
            "gadget",
            "interference gadget at cutoff 30; beamsplit on 31^4-amplitude states "
            "dominates time and peak memory, no fits run",
            gadget_argv,
            lambda p: int(p["--fraction_count"]),
            check_gadget,
        ),
        Workload(
            "match-grid",
            "displacement matching at infinite squeezing, k = 1 onto k = 3; chained fits "
            "at dim 601 inside squeeze_to_match, sparse squeeze_op path",
            match_grid_argv,
            lambda p: len(_ints(p["--source_k"])) * len(_ints(p["--target_k"])),
            check_match_grid,
        ),
        Workload(
            "oracle-circuits",
            "100 small random Gaussian circuits; dense displace/squeeze_op, random "
            "beamsplit angles, Gaussian moment oracle",
            oracle_argv,
            lambda p: int(p["--circuits"]) + 1,
            check_oracle,
        ),
    )
}
