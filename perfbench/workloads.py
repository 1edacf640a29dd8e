"""The benchmark's workloads: configs drawn from a seed, and output checks.

Each workload is a "round" of one or more fracvar CLI commands, each run on
a JSON config that this file writes. Seed 0 is the reference config; other
seeds draw inputs within ranges that keep the expected outcome:

* the position of the domain (a translation, which the operators ignore);
* the units of the sublinear reaction: f = nu * amplitude * g depends on
  nu * amplitude only, so nu and its sweep bracket are scaled by c and the
  amplitude by 1 / c;
* the forcing scale of the two-solution pipeline and the strength of its
  weak-reaction control.

Nothing a seed draws moves the sublinear threshold relative to the sweep's
bisection probes or changes the 2D solution. That is deliberate: the cost of
these solves is dominated by the few probes that land next to the threshold,
whose iteration counts jump with their distance to it, so a seed that moved
the probes would measure where they landed, not the code.

There are two workloads, so that each benchmark run can last 60 s: on a
shared 2-core VM the host's speed drifts over tens of seconds, and only
longer runs average that out. sweep-mpass-1d runs the sublinear sweep and
the two-solution pipeline (with its control) one after the other on 384
cells (a sweep on 512 took 12-20 s); solve-2d runs on 48 x 48 cells (64 x 64
took ~25 s). Each round takes about 6-14 s with one BLAS thread, so a run
holds four or more rounds, and so a median.

Reference numbers below were computed with fracvar itself at seed 0
(experiments.prepare; numpy.linalg.eigvalsh of fracops.composition_matrix;
the `fracvar solve` report) on the power diffusivity A=1, B=2, p=1.5, for
which gamma(0) = A + B p / 2 = 2.5 and gamma_min = gamma_inf = A = 1.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

GAMMA_0 = 2.5
GAMMA_INF = 1.0
NODES_1D = 384
SOLVE_NODES = 48                       # per side
LAMBDA1_1D = 2.318452568959003         # (-Lap)^{1/2}, 384 cells of a unit interval
LAMBDA_MIN_COMPOSITION_1D = 0.5072537249010018  # -div_s grad_s, same grid
LAMBDA1_SOLVE = 3.6909384419404176     # (-Lap)^{1/2}, 48 x 48 cells of a unit square
ENERGY_SOLVE = -78842.2436057648       # 2D solve, nu = 50 gamma_max lambda1

LAMBDA1_RTOL = 1e-8
# the bisection stops at a relative bracket width of 1e-2, so its midpoint
# is within 0.5% of the discrete threshold; at seed 0 that threshold sits
# 0.29% below the linear-stability prediction gamma(0) lambda_min
THRESHOLD_RTOL = 1e-2
# seeds change the 2D solve only by rounding
ENERGY_SOLVE_RTOL = 1e-6
# the 2D solve stops at a KKT residual of 1e-4: at the default 1e-6 the last
# iterations chase rounding (|E| ~ 8e4), and their number jumped from 53 to
# 77 between seeds; at 1e-4 every seed tried took 42 iterations and reached
# the same energy to 1e-15
TOL_G_SOLVE = 1e-4

POWER = {"family": "power", "params": {"A": 1.0, "B": 2.0, "p": 1.5}}


@dataclass(frozen=True)
class Command:
    """One fracvar CLI invocation of a round and what its outputs must show."""

    name: str
    command: str
    config: dict
    check: object  # (outdir, exit status) -> list of (check name, passed)


@dataclass(frozen=True)
class Workload:
    name: str
    dimension: int
    nodes: int
    commands: list


def _draw(seed: int):
    """Seed 0 keeps every reference value; other seeds draw from a stream."""
    rng = random.Random(seed)
    return lambda ref, lo, hi: ref if seed == 0 else rng.uniform(lo, hi)


def _config(bounds, nodes, reaction, forcing, max_iter, sweep=None) -> dict:
    cfg = {
        "domain": {"bounds": bounds, "nodes": nodes},
        "operator": {"s": 0.5},
        "coefficient": POWER,
        "reaction": reaction,
        "forcing": forcing,
        "solver": {"max_iter": max_iter},
        "threads": 1,
    }
    if sweep is not None:
        cfg["sweep"] = {"values": sweep}
    return cfg


def _read_report(outdir) -> dict:
    return json.loads((Path(outdir) / "report.json").read_text())


def _lambda1_ok(report: dict, ref: float) -> bool:
    return abs(report["lambda1"] - ref) <= LAMBDA1_RTOL * ref


def sweep_mpass_1d(seed: int) -> Workload:
    """The sublinear sweep, then the two-solution pipeline and its control."""
    return Workload("sweep-mpass-1d", dimension=1, nodes=NODES_1D,
                    commands=[_sweep(seed)] + _mpass(seed))


def _sweep(seed: int) -> Command:
    draw = _draw(seed)
    shift = draw(0.0, -0.5, 0.5)
    c = 2.0 ** draw(0.0, -1.0, 1.0)
    amplitude = 1.0 / c
    config = _config([[shift, shift + 1.0]], [NODES_1D],
                     {"family": "saturating", "params": {"nu": c, "amplitude": amplitude}},
                     {"kind": "zero"}, 20000, sweep=[0.05 * c, 400.0 * c])
    predicted = GAMMA_0 * LAMBDA_MIN_COMPOSITION_1D / amplitude

    def check(outdir, status):
        rep = _read_report(outdir)
        nu_star = rep.get("nu_threshold")
        return [
            ("sweep.exit_0", status == 0),
            ("sweep.lambda1", _lambda1_ok(rep, LAMBDA1_1D)),
            ("sweep.low_nu_trivial_high_nu_local_min",
             rep["classifications"] == ["trivial", "local-min"]),
            ("sweep.threshold_matches_linear_stability",
             nu_star is not None and abs(nu_star - predicted) <= THRESHOLD_RTOL * predicted),
        ]

    return Command("sweep", "sweep", config, check)


def _mpass(seed: int) -> list:
    draw = _draw(seed)
    shift = draw(0.0, -0.5, 0.5)
    scale = draw(0.01, 0.008, 0.012)
    weak = draw(0.5, 0.4, 0.6)
    bounds = [[shift, shift + 1.0]]
    forcing = {"kind": "eigenfunction", "scale": scale}
    main = _config(bounds, [NODES_1D],
                   {"family": "cubic_saturating", "params": {"kappa": 2.0 * GAMMA_INF * LAMBDA1_1D}},
                   forcing, 8000, sweep=[scale, 0.0])
    control = _config(bounds, [NODES_1D],
                      {"family": "cubic_saturating", "params": {"kappa": weak * LAMBDA1_1D}},
                      forcing, 4000, sweep=[scale])

    def check_main(outdir, status):
        rep = _read_report(outdir)
        runs = rep["runs"]
        passes = [r.get("mountain_pass") for r in runs]
        return [
            ("mpass.exit_0", status == 0),
            ("mpass.lambda1", _lambda1_ok(rep, LAMBDA1_1D)),
            ("mpass.two_runs_mountain_pass", len(runs) == 2 and all(
                p is not None and p["classification"] == "mountain-pass" for p in passes)),
            ("mpass.distinct", len(runs) == 2 and all(r.get("distinct") is True for r in runs)),
            ("mpass.pass_above_minimizer", len(runs) == 2 and all(
                p is not None and p["energy"] > r["minimizer"]["energy"]
                for r, p in zip(runs, passes))),
        ]

    def check_control(outdir, status):
        rep = _read_report(outdir)
        runs = rep["runs"]
        return [
            ("control.exit_1", status == 1),
            ("control.no_geometry", len(runs) == 1 and runs[0]["geometry_ok"] is False
             and "mountain_pass" not in runs[0]),
        ]

    return [Command("mpass", "mpass", main, check_main),
            Command("control", "mpass", control, check_control)]


def solve_2d(seed: int) -> Workload:
    draw = _draw(seed)
    sx, sy = draw(0.0, -0.5, 0.5), draw(0.0, -0.5, 0.5)
    c = 2.0 ** draw(0.0, -1.0, 1.0)
    nu = 50.0 * GAMMA_0 * LAMBDA1_SOLVE * c
    config = _config([[sx, sx + 1.0], [sy, sy + 1.0]], [SOLVE_NODES, SOLVE_NODES],
                     {"family": "saturating", "params": {"nu": nu, "amplitude": 1.0 / c}},
                     {"kind": "zero"}, 20000)
    config["solver"]["tol_g"] = TOL_G_SOLVE

    def check(outdir, status):
        rep = _read_report(outdir)
        run = rep["run"]
        return [
            ("solve.exit_0", status == 0),
            ("solve.lambda1", _lambda1_ok(rep, LAMBDA1_SOLVE)),
            ("solve.local_min", run["classification"] == "local-min"),
            ("solve.nonnegative", run["solution_min"] >= 0.0 and _csv_min(outdir) >= 0.0),
            ("solve.energy_matches_reference",
             abs(run["energy"] - ENERGY_SOLVE) <= ENERGY_SOLVE_RTOL * abs(ENERGY_SOLVE)),
        ]

    return Workload("solve-2d", dimension=2, nodes=SOLVE_NODES ** 2,
                    commands=[Command("solve", "solve", config, check)])


def _csv_min(outdir) -> float:
    with open(Path(outdir) / "solution.csv") as fh:
        return min(float(row["u"]) for row in csv.DictReader(fh))


WORKLOADS = {"sweep-mpass-1d": sweep_mpass_1d, "solve-2d": solve_2d}
