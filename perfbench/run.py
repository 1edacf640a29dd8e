"""fracvar benchmark: run a workload the way users run fracvar, and measure it.

    python3 perfbench/run.py --workload sweep-mpass-1d --seed 0 --seconds 60 --trace 0

Run from the root of a source tree (the one holding src/fracvar). Each
command of a workload (workloads.py) is one `fracvar` CLI call in a fresh
child process (child.py) on a JSON config generated from --seed. Rounds of
the workload repeat until --seconds is used up (at least MIN_ROUNDS), the
outputs of every command are checked, and the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, medians over rounds:
  wall_s        child start (before `import fracvar`) to the command's return,
                summed over the round's commands
  setup_s       child start to the return of experiments.prepare, summed over
                the round's commands
  solve_s       wall_s - setup_s of the same round
  peak_rss_mb   largest ru_maxrss of the round's children
  success_frac  1 - failed / attempted operations; an operation is a solver
                call (minimize_cone, mountain_pass) or an output check

--trace 1 alternates untraced and traced rounds (at least MIN_TRACED pairs)
and reports the per-layer metrics of the traced ones (tracing.layer_metrics),
with the tracing overhead as traced minus untraced wall time. Count metrics
(calls, iterations, probes) must repeat exactly between the traced rounds
and, at seed 0, match the committed record in perfbench/results; any that do
not are printed on the summary line.

A failed check prints the result with "correct": false and exits 1. A
child that crashes or overruns the time limit exits 3 without a result.
A full record of the run (machine, configs, every sample, every check)
goes to .perfbench-runs/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench-runs"
RESULTS_DIR = Path(__file__).resolve().parent / "results"
MIN_ROUNDS = 3
MIN_TRACED = 2
# every run must end within 180 s; children share what is left of this
TIME_LIMIT_S = 170.0
# one BLAS thread everywhere: on the 2-core machine the benchmark was tuned on,
# a second OpenBLAS thread slowed a 1D sweep on 512 cells (~22 s against
# ~15 s) and made a 2D solve on 64 x 64 cells faster but far less steady from
# run to run (17-23 s against 24-26 s)
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """A child crashed or overran: there is no measurement to report."""


def git_rev(root: Path):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine(blas_threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = None
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "l3_cache": l3.read_text().strip() if l3.is_file() else None,
        "blas": vendor,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(ROOT),
    }


class Runner:
    """Launches the children of one benchmark run and keeps their records."""

    def __init__(self, workload: workloads.Workload, rundir: Path, start: float):
        self.workload = workload
        self.rundir = rundir
        self.start = start
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        for key in BLAS_ENV:
            self.env[key] = str(BLAS_THREADS)
        self.attempted = 0
        self.failures: list[str] = []

    def child(self, cmd: workloads.Command, trace: bool) -> dict:
        self.count += 1
        tag = f"{self.count:03d}-{cmd.name}"
        cfg_path = self.rundir / f"{tag}.config.json"
        cfg_path.write_text(json.dumps(cmd.config, indent=1))
        outdir = self.rundir / tag
        result_path = self.rundir / f"{tag}.result.json"
        left = TIME_LIMIT_S - (time.perf_counter() - self.start)
        if left <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT_S} s used up before {tag}")
        argv = [sys.executable, str(Path(__file__).with_name("child.py")), str(result_path), tag,
                str(int(trace)), "--",
                cmd.command, "--config", str(cfg_path), "--out", str(outdir)]
        try:
            proc = subprocess.run(argv, env=self.env, cwd=self.rundir, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag} overran the {TIME_LIMIT_S} s limit") from None
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchError(f"{tag} crashed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
        res = json.loads(result_path.read_text())
        spans = json.loads(Path(res["spans"]).read_text())
        names = spans["names"]
        prepare = [sp for sp in spans["spans"] if names[sp[2]] == "experiments.prepare"]
        if not prepare:
            raise BenchError(f"{tag} never called experiments.prepare")
        rec = {
            "tag": tag,
            "wall": res["t_end"] - res["t0"],
            "setup": min(sp[4] for sp in prepare) - res["t0"],
            "rss_mb": res["maxrss_kb"] / 1024.0,
            "status": res["status"],
            "checks": self.check(cmd, outdir, res["status"], spans),
        }
        if trace:
            rec["spans"] = {"names": names, "spans": spans["spans"], "attrs": spans["attrs"],
                            "wall": rec["wall"]}
        shutil.rmtree(outdir, ignore_errors=True)
        Path(res["spans"]).unlink()
        return rec

    def check(self, cmd, outdir, status, spans) -> list:
        names = spans["names"]
        results = []
        for sid, _, idx, _, _ in spans["spans"]:
            if names[idx] in ("solvers.minimize_cone", "solvers.mountain_pass"):
                attrs = spans["attrs"][str(sid)]
                results.append((f"{cmd.name}.{names[idx]} ({attrs['classification']}, "
                                f"{attrs['iterations']} iterations)",
                                attrs["classification"] != "failed"))
        try:
            results += cmd.check(outdir, status)
        except (OSError, KeyError, ValueError, TypeError) as err:
            results.append((f"{cmd.name}.outputs_readable ({err!r})", False))
        self.attempted += len(results)
        self.failures += [name for name, ok in results if not ok]
        return results

    def round(self, trace: bool) -> dict:
        recs = [self.child(cmd, trace) for cmd in self.workload.commands]
        return {
            "wall": sum(r["wall"] for r in recs),
            "setup": sum(r["setup"] for r in recs),
            "rss_mb": max(r["rss_mb"] for r in recs),
            "commands": recs,
        }


def repeat(step, deadline: float, at_least: int) -> list:
    """Call step() at least `at_least` times, then until another call is not
    expected to end by the deadline."""
    out, took = [], []
    while True:
        t = time.perf_counter()
        out.append(step())
        took.append(time.perf_counter() - t)
        if len(out) >= at_least and time.perf_counter() + statistics.median(took) > deadline:
            return out


def end_to_end(runner: Runner, deadline: float, record: dict) -> dict:
    rounds = repeat(lambda: runner.round(trace=False), deadline, MIN_ROUNDS)
    record["rounds"] = rounds
    attempted = max(runner.attempted, 1)
    return {
        "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
        "setup_s": (statistics.median(r["setup"] for r in rounds), "s"),
        "solve_s": (statistics.median(r["wall"] - r["setup"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
        "success_frac": ((attempted - len(runner.failures)) / attempted, "ratio"),
    }


COUNT_SUFFIXES = (".calls", ".iterations", ".probes")


def per_layer(runner: Runner, deadline: float, record: dict) -> dict:
    wl = runner.workload
    plain, traced = [], []

    def pair():
        plain.append(runner.round(trace=False))
        rnd = runner.round(trace=True)
        traced.append(tracing.layer_metrics([c["spans"] for c in rnd["commands"]],
                                            wl.dimension, wl.nodes))
        traced[-1]["trace.wall_s"] = rnd["wall"]

    repeat(pair, deadline, MIN_TRACED)
    untraced_wall = statistics.median(r["wall"] for r in plain)
    metrics = {name: statistics.median(r[name] for r in traced) for name in traced[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    record["traced_rounds"] = traced
    record["untraced_walls"] = [r["wall"] for r in plain]
    record["computed"] = tracing.gradient_table(wl.dimension, wl.nodes)
    record["count_repeats"] = count_repeats(traced, reference_counts(wl.name, record["seed"]))
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def reference_counts(workload: str, seed: int):
    """Count metrics of the committed traced record, for seed 0 only."""
    path = RESULTS_DIR / f"{workload}-seed0-trace1.json"
    if seed != 0 or not path.is_file():
        return None
    metrics = json.loads(path.read_text())["result"]["metrics"]
    return {k: m["value"] for k, m in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def count_repeats(traced: list, reference) -> dict:
    """Which count metrics differ between traced rounds, or from the reference."""
    names = sorted(k for k in traced[0] if k.endswith(COUNT_SUFFIXES))
    return {
        "rounds_compared": len(traced),
        "differing": [k for k in names if len({r[k] for r in traced}) > 1],
        "compared_with": None if reference is None else str(RESULTS_DIR.relative_to(ROOT)),
        "differing_from_reference": [] if reference is None else [
            f"{k} {reference.get(k)} -> {traced[0][k]}" for k in names
            if reference.get(k) != traced[0][k]],
    }


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    return {"fracops.table_mb": "MB", "fracops.gb_moved": "GB",
            "fracops.gflop": "GFLOP"}.get(name, "ratio")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    start = time.perf_counter()
    wl = workloads.WORKLOADS[name](seed)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    rundir = RUNS_DIR / tag
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    runner = Runner(wl, rundir, start)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine(BLAS_THREADS),
              "configs": {c.name: c.config for c in wl.commands}}
    measure = per_layer if trace else end_to_end
    metrics = measure(runner, start + seconds, record)
    shutil.rmtree(rundir, ignore_errors=True)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["failures"] = runner.failures
    record["result"] = result
    (RUNS_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return result, record


def summary(name: str, result: dict, record: dict) -> list[str]:
    rounds = len(record.get("rounds") or record["traced_rounds"])
    lines = [f"{name}: {result['attempted']} operations, {result['failed']} failed "
             f"(failed_frac {result['failed'] / max(result['attempted'], 1):.4f}); "
             f"medians over {rounds} {'rounds' if 'rounds' in record else 'traced rounds'}"]
    for key, m in result["metrics"].items():
        lines.append(f"  {key:42s} {m['value']:.6g} {m['unit']}")
    for failure in record["failures"]:
        lines.append(f"  FAILED CHECK {failure}")
    repeats = record.get("count_repeats")
    if repeats:
        lines.append(f"  count metrics compared over {repeats['rounds_compared']} traced rounds"
                     + (f" and with {repeats['compared_with']}" if repeats["compared_with"] else "")
                     + ": " + ("all repeat" if not (repeats["differing"]
                               or repeats["differing_from_reference"]) else "DIFFERENCES"))
        if repeats["differing"]:
            lines.append(f"  counts differing between traced rounds: {', '.join(repeats['differing'])}")
        if repeats["differing_from_reference"]:
            lines.append("  counts differing from the committed record: "
                         + ", ".join(repeats["differing_from_reference"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fracvar" / "cli.py").is_file():
        print(f"perfbench: no fracvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        try:
            result, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 3
        print(json.dumps({"machine": record["machine"]}))
        print("\n".join(summary(name, result, record)))
        print(json.dumps(result))
        code = max(code, 0 if result["correct"] else 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
