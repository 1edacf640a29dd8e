"""Command-line entry point, JSON configuration, and run persistence.

Usage:

    fracvar <command> --config <path> [--out <dir>]

Commands: verify (operator identity suite), eig (first eigenpair), solve
(cone minimization), mpass (two-solution pipeline), sweep (sublinear
regime sweep plus, when bracketed, the threshold and its linear-stability
prediction), appendix (scaling limit of the quasilinear form).

The configuration is strict JSON: unknown keys are fatal (a silent typo
in a hypothesis parameter would invalidate regime conclusions), ranges
are validated with the offending key named, and the persisted snapshot
has all defaults materialized. This module writes every file of a run
directory: each command's data files (CSV with LF line endings, FVFD),
then one report.json per run (a solve's entry is built by _solve_entry),
then a manifest listing the config snapshot, per-stage wall-clock
timings (prepare_seconds: grid, operator assembly and first eigenpair,
of which assemble_seconds and eigenpair_seconds are the last two; for
sweep, sweep_seconds and threshold_seconds: the sweep solves, and the
spectral prediction, certifying probes and bisection; for solve,
minimize_seconds; for mpass, minimize_seconds, ray_seconds and
mountain_pass_seconds summed over the sweep values;
command_seconds: the whole command), and a sha256 inventory of the
produced files; reruns with the same config and seed reproduce the
inventory bit for bit (the manifest itself, which holds the timings, is
not in it).

Field files use the FVFD binary format of grid.write_field and
grid.read_field. Exit codes: 0 success, 1 a failed solve or no
mountain-pass geometry (in the report), 2 configuration error, including
a config whose numbers overflow floating-point range (ArithmeticError).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import experiments as ex
from .coeffs import COEFFICIENT_FAMILIES, REACTION_FAMILIES, make_coefficient, make_reaction
from .grid import DomainSpec, Field, build_grid, read_field, write_field
from .solvers import SolveReport, SolverOptions

# CPython's built-in SHA-256: hashlib would load OpenSSL (~3.6 MB resident)
# for the few digests of a run's inventory
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

__all__ = ["ConfigError", "parse_config", "run_command", "write_field", "read_field", "main"]

ARTIFACT_VERSION = "0.1.0"


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""


# ---------------------------------------------------------------------------
# configuration schema: each section is read from the definition that owns
# it, whose ValueErrors start with the offending name
# ---------------------------------------------------------------------------

_TOP_KEYS = {"domain", "operator", "coefficient", "reaction", "forcing", "solver",
             "sweep", "output_dir", "seed", "threads"}


def _reject_unknown(section: str, data: dict, allowed):
    for key in data:
        if key not in allowed:
            raise ConfigError(f'unknown key "{key}" in section "{section}"')


def _require(data: dict, section: str, key: str):
    if key not in data:
        raise ConfigError(f'missing required key "{section}.{key}"')
    return data[key]


def _section(raw: dict, name: str) -> dict:
    data = raw.get(name, {})
    if not isinstance(data, dict):
        raise ConfigError(f'section "{name}" must be a JSON object, got {data!r}')
    return data


_EXPECTED = {int: "an integer", float: "a finite number"}


def _typed(key: str, kind, value):
    """Check one JSON value against a numeric type: an integral number for
    int, a finite number for float (a JSON bool is neither)."""
    ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
          and abs(value) <= sys.float_info.max and (kind is float or value == int(value)))
    if not ok:
        raise ConfigError(f'"{key}" must be {_EXPECTED[kind]}, got {value!r}')
    return kind(value)


def _checked(key: str, build, *args, **kwargs):
    """Call a validating constructor; its ValueError names key.<name>."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{key}.{err}") from None


def _dataclass_from(cls, section: str, data: dict):
    """Build a config dataclass from its section: the keys are the fields,
    every value is type-checked, and omitted keys keep the dataclass
    defaults."""
    hints = typing.get_type_hints(cls)
    _reject_unknown(section, data, {f.name for f in dataclasses.fields(cls)})
    kwargs = {k: _typed(f"{section}.{k}", hints[k], v) for k, v in data.items()}
    return _checked(section, cls, **kwargs)


def _family_from(raw: dict, section: str, families: dict, make) -> dict:
    """Family and params of one section, as the model built from them uses."""
    data = _section(raw, section)
    _reject_unknown(section, data, {"family", "params"})
    # an omitted family is the RegimeConfig default
    family = data.get("family", getattr(ex.RegimeConfig, section)[0])
    if not isinstance(family, str) or family not in families:
        raise ConfigError(f'"{section}.family" must be one of {tuple(families)}, got {family!r}')
    params = data.get("params")
    if params is not None and not isinstance(params, dict):
        raise ConfigError(f'"{section}.params" must be a JSON object, got {params!r}')
    return _checked(f"{section}.params", make, family, params).to_dict()


def _check_forcing_file(path: str, spec: DomainSpec) -> None:
    try:
        values = read_field(path, build_grid(spec)).values
    except (OSError, ValueError) as err:
        raise ConfigError(f'"forcing.path" {path!r}: {err}') from None
    if np.any(values < 0):
        raise ConfigError(f'"forcing.path" {path!r}: forcing values must be nonnegative')


def parse_config(path) -> dict:
    """Load, validate, and materialize a run configuration.

    Returns a plain dict with every default filled in; this materialized
    form is what gets persisted in the run manifest.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown("<root>", raw, _TOP_KEYS)

    _require(raw, "<root>", "domain")
    dom = _section(raw, "domain")
    _reject_unknown("domain", dom, {f.name for f in dataclasses.fields(DomainSpec)})
    bounds, nodes = _require(dom, "domain", "bounds"), _require(dom, "domain", "nodes")
    try:
        spec = DomainSpec(
            bounds=tuple(tuple(_typed("domain.bounds", float, x) for x in ab) for ab in bounds),
            nodes=tuple(_typed("domain.nodes", int, n) for n in nodes))
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"domain: {err}") from None
    # the 2D near-cell rule loses accuracy on long cells (worst cell-integral
    # error 4.9e-3 at aspect 2, 2.4e-2 at 4, 0.21 at 8)
    if max(spec.spacing) > 2.0 * min(spec.spacing):
        raise ConfigError(f'"domain.nodes" must give cells whose spacings differ by at most a '
                          f'factor 2 across axes, got spacings {spec.spacing}')

    op = _section(raw, "operator")
    _reject_unknown("operator", op, {"s"})
    s = _typed("operator.s", float, _require(op, "operator", "s"))
    if not 0.0 < s < 1.0:
        raise ConfigError(f'"operator.s" must lie in (0, 1), got {s}')

    forcing = _checked("forcing", ex.forcing_spec, _section(raw, "forcing"))
    if forcing["kind"] == "file":
        _check_forcing_file(forcing["path"], spec)

    sweep = _section(raw, "sweep")
    _reject_unknown("sweep", sweep, {"values"})
    values = sweep.get("values", [])
    if not isinstance(values, list):
        raise ConfigError(f'"sweep.values" must be a list, got {values!r}')

    seed = _typed("seed", int, raw.get("seed", ex.RegimeConfig.seed))
    if seed < 0:
        raise ConfigError(f'"seed" must be nonnegative, got {seed}')
    # sweeps run serially; "threads" stays accepted as 1, the value existing configs set
    if _typed("threads", int, raw.get("threads", 1)) != 1:
        raise ConfigError(f'"threads" must be 1 (sweeps run serially), got {raw["threads"]!r}')
    output_dir = raw.get("output_dir", "fracvar-out")
    if not isinstance(output_dir, str):
        raise ConfigError(f'"output_dir" must be a string, got {output_dir!r}')

    return {
        "domain": spec.to_dict(),
        "operator": {"s": s},
        "coefficient": _family_from(raw, "coefficient", COEFFICIENT_FAMILIES, make_coefficient),
        "reaction": _family_from(raw, "reaction", REACTION_FAMILIES, make_reaction),
        "forcing": forcing,
        "solver": dataclasses.asdict(_dataclass_from(SolverOptions, "solver", _section(raw, "solver"))),
        "sweep": {"values": [_typed(f"sweep.values[{k}]", float, v) for k, v in enumerate(values)]},
        "output_dir": output_dir,
        "seed": seed,
    }


def regime_config_from(materialized: dict) -> ex.RegimeConfig:
    """Build the experiments-facing config from a materialized dict."""
    return ex.RegimeConfig(
        domain=DomainSpec.from_dict(materialized["domain"]),
        s=materialized["operator"]["s"],
        coefficient=(materialized["coefficient"]["family"],
                     materialized["coefficient"]["params"]),
        reaction=(materialized["reaction"]["family"], materialized["reaction"]["params"]),
        forcing=materialized["forcing"],
        solver=SolverOptions(**materialized["solver"]),
        sweep=tuple(materialized["sweep"]["values"]),
        seed=materialized["seed"],
    )


# ---------------------------------------------------------------------------
# run files: the one writer of a run directory
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if type(x) is float:
        return repr(x)
    if type(x) is str:
        return x
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        x = x.item()
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.writelines([",".join(header) + "\n"] + [",".join(map(_fmt, row)) + "\n" for row in rows])


def _write_json(path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        # numpy scalars as their Python values (a float64 is a float already)
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=True,
                  default=lambda x: x.item())
        fh.write("\n")


def _sha256(path) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _RunFiles:
    """The files of one run directory: write() puts each one down through
    its writer (_write_csv, _write_json, write_field) and records its name
    for the manifest's inventory."""

    def __init__(self, outdir: Path):
        self.outdir, self.names = outdir, []

    def write(self, name: str, writer, *args) -> None:
        writer(self.outdir / name, *args)
        self.names.append(name)

    def inventory(self) -> dict:
        return {name: _sha256(self.outdir / name) for name in sorted(self.names)}


def _nodal_csv(fld: Field, column: str):
    """Header and rows of a field's CSV: the node coordinates, then the value.
    Node (i, j) sits at (x_i, y_j) in row-major order, so each axis
    coordinate is formatted once (n_0 + n_1 reprs in 2D, not 2 n_0 n_1) and
    a row carries its node's joined coordinate text."""
    grid, shape = fld.grid, fld.grid.shape
    header = (["x"] if grid.dimension == 1 else ["x", "y"]) + [column]
    # axis k's coordinates: every prod(n_{k+1}, ...)-th node, first n_k
    axes = [map(_fmt, grid.nodes[::math.prod(shape[k + 1:]), k][:n].tolist())
            for k, n in enumerate(shape)]
    coords = map(",".join, itertools.product(*axes))
    return header, [[c, v] for c, v in zip(coords, fld.values.tolist())]


def _solve_entry(report: SolveReport) -> dict:
    """The report.json entry of one solve: every SolveReport field but the
    solution, whose minimum stands in for it, with the energy trace in the
    diagnostics cut to its first value (its last is the energy), so that
    every solve reports the same keys."""
    entry = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
             if f.name != "solution"}
    diag = entry["diagnostics"] = dict(report.diagnostics)
    trace = diag.pop("energy_trace", None)
    if trace is not None:
        diag["energy_initial"] = float(trace[0])
    entry["solution_min"] = float(np.min(report.solution.values))
    return entry


# ---------------------------------------------------------------------------
# commands: each writes its data files and returns (exit status, the
# report.json payload)
# ---------------------------------------------------------------------------


def _status(reports, geometry_ok: bool = True) -> int:
    """Exit status 1 when a solve failed or mpass found no geometry, else 0."""
    return int(not geometry_ok or any(r.classification == "failed" for r in reports))


def _prepare(rcfg, timings: dict):
    with ex.timed(timings, "prepare_seconds"):
        return ex.prepare(rcfg, timings)


def _cmd_verify(rcfg, files, timings):
    report = ex.verify_identities(rcfg, prep=_prepare(rcfg, timings))
    rows = [[c.name, c.value, c.tolerance, int(c.passed)] for c in report.checks]
    files.write("identities.csv", _write_csv, ["check", "value", "tolerance", "passed"], rows)
    return (0 if report.all_passed else 1), {
        "all_passed": report.all_passed,
        "checks": [{"name": c.name, "value": c.value, "tolerance": c.tolerance,
                    "passed": c.passed} for c in report.checks],
    }


def _cmd_eig(rcfg, files, timings):
    pair = _prepare(rcfg, timings).eigenpair
    files.write("eigenpair.csv", _write_csv, *_nodal_csv(pair.function, "phi1"))
    return 0, {"lambda1": pair.value, "residual": pair.residual, "iterations": pair.iterations}


def _cmd_solve(rcfg, files, timings):
    prep = _prepare(rcfg, timings)
    h = ex.build_forcing(prep)
    reaction = ex._reaction_with(rcfg)
    with ex.timed(timings, "minimize_seconds"):
        report = ex._solve_once(prep, reaction, h)
    files.write("solution.csv", _write_csv, *_nodal_csv(report.solution, "u"))
    files.write("solution.fvfd", write_field, report.solution)
    return _status([report]), {"lambda1": prep.lambda1, "run": _solve_entry(report)}


def _cmd_mpass(rcfg, files, timings):
    if ex._reaction_with(rcfg).growth_class != "linear":
        raise ConfigError(
            f"mpass needs a linear-growth reaction family, got {rcfg.reaction[0]!r}")
    if rcfg.forcing["kind"] == "file":
        raise ConfigError('"forcing.kind" "file" is not read by mpass: its forcing is '
                          "each sweep value times phi1")
    if any(v < 0 for v in rcfg.sweep):
        raise ConfigError(f'"sweep.values" are forcing scales for mpass and must be '
                          f"nonnegative, got {list(rcfg.sweep)}")
    if not rcfg.sweep:
        rcfg = dataclasses.replace(rcfg, sweep=(rcfg.forcing.get("scale", 0.0),))
    # each sweep value names its run's files; two values of one name would
    # leave one run's files in place of the other's
    tags = [f"{v:g}".replace(".", "p").replace("-", "m") for v in rcfg.sweep]
    if len(set(tags)) < len(tags):
        raise ConfigError(f'"sweep.values" must give each mpass run its own files, got '
                          f"{list(rcfg.sweep)}, whose file tags are {tags}")
    report = ex.run_linear_regime(rcfg, _prepare(rcfg, timings), timings)
    payload = {"lambda1": report.lambda1,
               "audit": {"verdicts": report.audit.verdicts,
                         "witnesses": report.audit.witnesses},
               "runs": []}
    for run, tag in zip(report.runs, tags):
        entry = {
            "h_scale": run.h_scale,
            "minimizer": _solve_entry(run.minimizer),
            "geometry_ok": run.geometry_ok,
            "ray_t_star": run.ray.t_star,
        }
        files.write(f"minimizer_{tag}.csv", _write_csv, *_nodal_csv(run.minimizer.solution, "u"))
        if run.pass_report is not None:
            entry["mountain_pass"] = _solve_entry(run.pass_report)
            entry["distance"] = run.distance
            entry["distinct"] = run.distinct
            files.write(f"mountain_pass_{tag}.csv", _write_csv,
                        *_nodal_csv(run.pass_report.solution, "u"))
        payload["runs"].append(entry)
    solves = [rep for run in report.runs for rep in (run.minimizer, run.pass_report) if rep]
    return _status(solves, all(run.geometry_ok for run in report.runs)), payload


def _cmd_sweep(rcfg, files, timings):
    if ex._reaction_with(rcfg).growth_class != "sublinear":
        raise ConfigError(
            f"sweep needs the sublinear reaction family, got {rcfg.reaction[0]!r}")
    if not rcfg.sweep or any(v <= 0 for v in rcfg.sweep):
        raise ConfigError(f'"sweep.values" are nu values for sweep and must be one or more '
                          f"positive values, got {list(rcfg.sweep)}")
    prep = _prepare(rcfg, timings)
    with ex.timed(timings, "sweep_seconds"):
        report = ex.run_sublinear_regime(rcfg, prep)
    solves = [run.report for run in report.runs]
    rows = [[run.nu, rep.classification, rep.energy, rep.kkt_residual, rep.l2_norm, rep.hs_norm]
            for run, rep in zip(report.runs, solves)]
    files.write("sweep.csv", _write_csv,
                ["nu", "classification", "energy", "kkt_residual", "l2_norm", "hs_norm"], rows)
    verdicts = [rep.classification for rep in solves]
    payload = {
        "lambda1": report.lambda1,
        "audit": {"verdicts": report.audit.verdicts,
                  "witnesses": report.audit.witnesses},
        "classifications": verdicts,
    }
    # the threshold rests on certified verdicts only
    if set(verdicts) == {"trivial", "local-min"}:
        with ex.timed(timings, "threshold_seconds"):
            payload["nu_threshold"] = ex.find_nu_threshold(rcfg, prep, runs=report.runs)
            payload["nu_linear"], ground = ex.linear_threshold(rcfg, prep)
        payload["lambda_min_composition"] = ground.value
    return _status(solves), payload


def _cmd_appendix(rcfg, files, timings):
    report = ex.appendix_convergence(rcfg, prep=_prepare(rcfg, timings))
    rows = [[t, v, e] for t, v, e in zip(report.scales, report.values, report.rel_errors)]
    files.write("appendix.csv", _write_csv, ["scale_t", "form_value", "rel_error"], rows)
    return 0, {
        "limit": report.limit,
        "final_rel_error": report.final_rel_error,
        "nonincreasing_from_2": report.nonincreasing_from_2,
    }


_DISPATCH = {
    "verify": _cmd_verify,
    "eig": _cmd_eig,
    "solve": _cmd_solve,
    "mpass": _cmd_mpass,
    "sweep": _cmd_sweep,
    "appendix": _cmd_appendix,
}
COMMANDS = tuple(_DISPATCH)


def run_command(materialized: dict, command: str, out_dir=None) -> int:
    """Execute one command; writes its files, report.json and the manifest,
    returns the exit status (0 ok, 1 solver failure recorded in the report)."""
    if command not in _DISPATCH:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    outdir = Path(out_dir if out_dir is not None else materialized["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    rcfg = regime_config_from(materialized)

    files = _RunFiles(outdir)
    timings: dict = {}
    t0 = time.perf_counter()
    status, payload = _DISPATCH[command](rcfg, files, timings)
    files.write("report.json", _write_json, payload)
    timings["command_seconds"] = time.perf_counter() - t0

    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "command": command,
        "config": materialized,
        "timings": timings,
        "files": files.inventory(),
    }
    _write_json(outdir / "manifest.json", manifest)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracvar",
        description="variational solver for the quasilinear nonlocal boundary value problem",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    args = parser.parse_args(argv)

    try:
        materialized = parse_config(args.config)
        # a run that leaves floating-point range ends in the ArithmeticError
        # below; numpy's warnings on the way would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            status = run_command(materialized, args.command, out_dir=args.out)
    except ConfigError as err:
        print(f"fracvar: config error: {err}", file=sys.stderr)
        return 2
    except ArithmeticError as err:
        # numbers of the config that leave floating-point range on the way:
        # a finite-value check's NonFiniteError, or Python's OverflowError
        print(f"fracvar: config error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    out = Path(args.out if args.out is not None else materialized["output_dir"])
    print(f"fracvar {args.command}: exit {status}, outputs in {out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
