"""Command-line entry point, JSON configuration, and run persistence.

Usage:

    fracvar <command> --config <path> [--out <dir>]

Commands: verify (operator identity suite), eig (first eigenpair), solve
(cone minimization), mpass (two-solution pipeline), sweep (sublinear
regime sweep plus threshold bisection when bracketed), appendix (scaling
limit of the quasilinear form).

The configuration is strict JSON: unknown keys are fatal (a silent typo in
a hypothesis parameter would invalidate regime conclusions), ranges are
validated with the offending key named, and the persisted snapshot has all
defaults materialized. Every run directory receives a manifest listing the
config snapshot, per-stage wall-clock timings (prepare_seconds: grid,
operator assembly and first eigenpair, of which assemble_seconds and
eigenpair_seconds are the last two; for sweep, sweep_seconds and
threshold_seconds: the sweep solves and the bisection; for solve,
minimize_seconds; for mpass, minimize_seconds, ray_seconds and
mountain_pass_seconds summed over the sweep values; command_seconds: the
whole command), and a sha256 inventory of the produced files; reruns
with the same config and seed reproduce the inventory bit for bit (the manifest
itself, which holds the timings, is not in it).

Field files use the FVFD binary format: magic "FVFD", little-endian u32
dimension, little-endian u32 node count, then the nodal values as
little-endian 8-byte floats. Exit codes: 0 success, 1 solver failure
(classified in the report), 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import struct
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import experiments as ex
from .coeffs import COEFFICIENT_FAMILIES, REACTION_FAMILIES, make_coefficient, make_reaction
from .grid import DomainSpec, Field, Grid, build_grid
from .solvers import SolverOptions
from .spectral import eigenpair_to_csv

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


def _typed(key: str, hint, value):
    """Check one JSON value against a numeric field type: an integral number
    for int, a finite number for float (a JSON bool is neither), and null
    only where the type admits None."""
    options = typing.get_args(hint) or (hint,)
    if value is None and type(None) in options:
        return None
    kind = options[0]
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
    threads = _typed("threads", int, raw.get("threads", ex.RegimeConfig.threads))
    if threads < 1:
        raise ConfigError(f'"threads" must be at least 1, got {threads}')
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
        "threads": threads,
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
        threads=materialized["threads"],
    )


# ---------------------------------------------------------------------------
# field binary format
# ---------------------------------------------------------------------------

_FVFD_MAGIC = b"FVFD"


def write_field(path, fld: Field) -> None:
    """Write the nodal values in the FVFD binary format."""
    with open(path, "wb") as fh:
        fh.write(_FVFD_MAGIC)
        fh.write(struct.pack("<I", fld.grid.dimension))
        fh.write(struct.pack("<I", fld.grid.n_nodes))
        fh.write(fld.values.astype("<f8").tobytes())


def read_field(path, grid: Grid) -> Field:
    """Read an FVFD file back onto a grid; header mismatches and non-finite
    values are fatal."""
    with open(path, "rb") as fh:
        header = fh.read(12)
        payload = fh.read()
    if header[:4] != _FVFD_MAGIC:
        raise ValueError(f"bad field magic {header[:4]!r}, expected {_FVFD_MAGIC!r}")
    if len(header) < 12:
        raise ValueError(f"field header has {len(header)} bytes, expected 12")
    d, n = struct.unpack("<II", header[4:])
    if d != grid.dimension:
        raise ValueError(f"field dimension {d} does not match grid dimension {grid.dimension}")
    if n != grid.n_nodes:
        raise ValueError(f"field has {n} nodes, grid has {grid.n_nodes}")
    if len(payload) != 8 * n:
        raise ValueError(f"field payload has {len(payload)} bytes, expected {8 * n}")
    values = np.frombuffer(payload, dtype="<f8").copy()
    if not np.all(np.isfinite(values)):
        raise ValueError("field has non-finite values")
    return Field(grid, values)


# ---------------------------------------------------------------------------
# deterministic serialization helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        x = x.item()
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _solution_csv_rows(grid: Grid, values: np.ndarray):
    header = (["x"] if grid.dimension == 1 else ["x", "y"]) + ["u"]
    rows = [[float(c) for c in node] + [float(v)] for node, v in zip(grid.nodes, values)]
    return header, rows


def _report_payload(report) -> dict:
    data = report.to_dict()
    data["solution_min"] = float(np.min(report.solution.values))
    return data


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _prepare(rcfg, timings: dict):
    with ex.timed(timings, "prepare_seconds"):
        return ex.prepare(rcfg, timings)


def _cmd_verify(rcfg, outdir, files, timings):
    report = ex.verify_identities(rcfg, prep=_prepare(rcfg, timings))
    rows = [[c.name, c.value, c.tolerance, int(c.passed)] for c in report.checks]
    _write_csv(outdir / "identities.csv", ["check", "value", "tolerance", "passed"], rows)
    files.append("identities.csv")
    _write_json(outdir / "report.json", {
        "all_passed": report.all_passed,
        "checks": [{"name": c.name, "value": c.value, "tolerance": c.tolerance,
                    "passed": c.passed} for c in report.checks],
    })
    files.append("report.json")
    return 0 if report.all_passed else 1


def _cmd_eig(rcfg, outdir, files, timings):
    prep = _prepare(rcfg, timings)
    eigenpair_to_csv(prep.eigenpair, outdir / "eigenpair.csv")
    files.append("eigenpair.csv")
    _write_json(outdir / "report.json", {
        "lambda1": prep.eigenpair.value,
        "residual": prep.eigenpair.residual,
        "iterations": prep.eigenpair.iterations,
    })
    files.append("report.json")
    return 0


def _cmd_solve(rcfg, outdir, files, timings):
    prep = _prepare(rcfg, timings)
    h = ex.build_forcing(prep)
    reaction = ex._reaction_with(rcfg)
    with ex.timed(timings, "minimize_seconds"):
        report = ex._solve_once(prep, reaction, h)
    header, rows = _solution_csv_rows(prep.grid, report.solution.values)
    _write_csv(outdir / "solution.csv", header, rows)
    files.append("solution.csv")
    write_field(outdir / "solution.fvfd", report.solution)
    files.append("solution.fvfd")
    _write_json(outdir / "report.json", {
        "lambda1": prep.lambda1, "run": _report_payload(report),
    })
    files.append("report.json")
    return 0 if report.classification != "failed" else 1


def _cmd_mpass(rcfg, outdir, files, timings):
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
    report = ex.run_linear_regime(rcfg, _prepare(rcfg, timings), timings)
    payload = {"lambda1": report.lambda1,
               "audit": {"verdicts": report.audit.verdicts,
                         "witnesses": _jsonable(report.audit.witnesses)},
               "runs": []}
    status = 0
    for run in report.runs:
        entry = {
            "h_scale": run.h_scale,
            "minimizer": _report_payload(run.minimizer),
            "geometry_ok": run.geometry_ok,
            "ray_t_star": run.ray.t_star,
        }
        if run.pass_report is not None:
            entry["mountain_pass"] = _report_payload(run.pass_report)
            entry["distance"] = run.distance
            entry["distinct"] = run.distinct
            if run.pass_report.classification == "failed":
                status = 1
        else:
            status = 1
        payload["runs"].append(entry)
        tag = f"{run.h_scale:g}".replace(".", "p").replace("-", "m")
        header, rows = _solution_csv_rows(run.minimizer.solution.grid,
                                          run.minimizer.solution.values)
        _write_csv(outdir / f"minimizer_{tag}.csv", header, rows)
        files.append(f"minimizer_{tag}.csv")
        if run.pass_report is not None:
            header, rows = _solution_csv_rows(run.pass_report.solution.grid,
                                              run.pass_report.solution.values)
            _write_csv(outdir / f"mountain_pass_{tag}.csv", header, rows)
            files.append(f"mountain_pass_{tag}.csv")
    _write_json(outdir / "report.json", payload)
    files.append("report.json")
    return status


def _cmd_sweep(rcfg, outdir, files, timings):
    if ex._reaction_with(rcfg).growth_class != "sublinear":
        raise ConfigError(
            f"sweep needs the sublinear reaction family, got {rcfg.reaction[0]!r}")
    if not rcfg.sweep or any(v <= 0 for v in rcfg.sweep):
        raise ConfigError(f'"sweep.values" are nu values for sweep and must be one or more '
                          f"positive values, got {list(rcfg.sweep)}")
    prep = _prepare(rcfg, timings)
    with ex.timed(timings, "sweep_seconds"):
        report = ex.run_sublinear_regime(rcfg, prep)
    rows = []
    status = 0
    for run in report.runs:
        rep = run.report
        rows.append([run.nu, rep.classification, rep.energy, rep.kkt_residual,
                     rep.l2_norm, rep.hs_norm])
        if rep.classification == "failed":
            status = 1
    _write_csv(outdir / "sweep.csv",
               ["nu", "classification", "energy", "kkt_residual", "l2_norm",
                "hs_norm"], rows)
    files.append("sweep.csv")
    payload = {
        "lambda1": report.lambda1,
        "audit": {"verdicts": report.audit.verdicts,
                  "witnesses": _jsonable(report.audit.witnesses)},
        "classifications": [r.report.classification for r in report.runs],
    }
    kinds = {r.report.classification == "trivial" for r in report.runs}
    if kinds == {True, False}:
        with ex.timed(timings, "threshold_seconds"):
            payload["nu_threshold"] = ex.find_nu_threshold(rcfg, prep, runs=report.runs)
    _write_json(outdir / "report.json", payload)
    files.append("report.json")
    return status


def _cmd_appendix(rcfg, outdir, files, timings):
    report = ex.appendix_convergence(rcfg, prep=_prepare(rcfg, timings))
    rows = [[t, v, e] for t, v, e in zip(report.scales, report.values, report.rel_errors)]
    _write_csv(outdir / "appendix.csv", ["scale_t", "form_value", "rel_error"], rows)
    files.append("appendix.csv")
    _write_json(outdir / "report.json", {
        "limit": report.limit,
        "final_rel_error": report.final_rel_error,
        "nonincreasing_from_2": report.nonincreasing_from_2,
    })
    files.append("report.json")
    return 0


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


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
    """Execute one command; writes outputs plus the manifest, returns the
    exit status (0 ok, 1 solver failure recorded in the report)."""
    if command not in _DISPATCH:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    outdir = Path(out_dir if out_dir is not None else materialized["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    rcfg = regime_config_from(materialized)

    files: list[str] = []
    timings: dict = {}
    t0 = time.perf_counter()
    status = _DISPATCH[command](rcfg, outdir, files, timings)
    timings["command_seconds"] = time.perf_counter() - t0

    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "command": command,
        "config": materialized,
        "timings": timings,
        "files": {name: _sha256(outdir / name) for name in sorted(files)},
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
        status = run_command(materialized, args.command, out_dir=args.out)
    except ConfigError as err:
        print(f"fracvar: config error: {err}", file=sys.stderr)
        return 2
    out = Path(args.out if args.out is not None else materialized["output_dir"])
    print(f"fracvar {args.command}: exit {status}, outputs in {out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
