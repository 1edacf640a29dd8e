"""Tests of the benchmark's own arithmetic and config generation.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def span(sid, parent, idx, start, end):
    return [sid, parent, idx, start, end]


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([], 0.0, 10.0) == 0.0
    assert tracing.covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    assert tracing.covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert tracing.covered([(1.0, 4.0), (2.0, 3.0)], 0.0, 10.0) == 3.0


def test_self_time_subtracts_direct_children_only():
    spans = [span(0, -1, 0, 0.0, 10.0),
             span(1, 0, 1, 1.0, 4.0),
             span(2, 1, 2, 2.0, 3.0),
             span(3, 0, 1, 5.0, 6.0)]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert sum(selfs.values()) == 10.0


def test_aggregate_counts_reentry_once():
    names = ["outer", "f"]
    spans = [span(0, -1, 0, 0.0, 10.0),
             span(1, 0, 1, 1.0, 5.0),
             span(2, 1, 1, 2.0, 3.0),
             span(3, 0, 1, 6.0, 7.0)]
    agg = tracing.aggregate(spans, names)
    assert agg["f"]["calls"] == 3
    assert agg["f"]["s"] == 5.0
    assert agg["f"]["self_s"] == 5.0
    assert agg["outer"] == {"calls": 1, "s": 10.0, "self_s": 5.0}


def test_inside_follows_the_parent_chain():
    names = ["a", "target", "b"]
    spans = [span(0, -1, 0, 0, 9), span(1, 0, 1, 1, 8), span(2, 1, 2, 2, 7),
             span(3, 2, 0, 3, 4), span(4, 0, 2, 8.5, 9)]
    assert tracing.inside(spans, names, "target") == {2, 3}


def test_tracer_records_nesting_attrs_and_raising_calls():
    ticks = iter(range(100))
    tracer = tracing.Tracer("r1", clock=lambda: float(next(ticks)))

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    leaf_w = tracer.wrap("m.leaf", leaf, on_result=lambda r: {"value": r})

    def outer():
        leaf_w(1)
        with pytest.raises(ValueError):
            leaf_w(-1)
        return "done"

    assert tracer.wrap("m.outer", outer)() == "done"
    names = tracer.names
    rows = [(names[idx], parent, end > start) for _, parent, idx, start, end in tracer.spans]
    assert rows == [("m.outer", -1, True), ("m.leaf", 0, True), ("m.leaf", 0, True)]
    assert tracer.attrs == {1: {"value": 1}}


def test_layer_metrics_from_synthetic_spans():
    names = ["cli.main", "solvers.minimize_cone", "fracops.apply_gradient",
             "energy.energy_gradient", "energy.energy", "experiments.find_nu_threshold"]
    spans = [span(0, -1, 0, 0.0, 10.0),
             span(1, 0, 5, 0.5, 9.0),
             span(2, 1, 1, 1.0, 8.0),
             span(3, 2, 2, 2.0, 3.0),
             span(4, 2, 3, 3.0, 5.0),
             span(5, 4, 2, 3.5, 4.0),
             span(6, 2, 4, 5.0, 6.0),
             span(7, 0, 2, 9.0, 9.5)]
    attrs = {"2": {"classification": "local-min", "iterations": 2, "merit_mode": True}}
    run = {"names": names, "spans": spans, "attrs": attrs, "wall": 12.0}
    m = tracing.layer_metrics([run], dimension=1, nodes=100)
    assert m["fracops.apply_gradient.calls"] == 3
    # under minimize_cone: two forward applies and one transposed apply
    assert m["energy.grad_apps_per_iter"] == 1.5
    assert m["solvers.step_accept_ratio"] == 2.0
    assert m["solvers.merit_mode_frac"] == 1.0
    assert m["experiments.find_nu_threshold.probes"] == 1
    assert m["fracops.table_mb"] == 8 * 100 * 100 / 1e6
    assert m["fracops.gb_moved"] == 4 * 8 * 100 * 100 / 1e9
    assert m["untraced_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["solvers.mountain_pass.s"] == 0.0


def test_repeat_runs_at_least_the_minimum_then_stops_by_the_deadline():
    assert run.repeat(lambda: 1, deadline=0.0, at_least=3) == [1, 1, 1]
    ticks = iter(range(100))
    # steps of 0.2 s before a deadline 0.9 s away: the fifth would end after it
    deadline = run.time.perf_counter() + 0.9
    assert len(run.repeat(lambda: run.time.sleep(0.2) or next(ticks), deadline,
                          at_least=1)) == 4


def test_count_repeats_reports_rounds_and_reference():
    traced = [{"a.calls": 3, "a.s": 1.0, "b.iterations": 7},
              {"a.calls": 3, "a.s": 2.0, "b.iterations": 8}]
    out = run.count_repeats(traced, None)
    assert out["rounds_compared"] == 2
    assert out["differing"] == ["b.iterations"]
    assert out["differing_from_reference"] == []
    out = run.count_repeats(traced[:1], {"a.calls": 4, "b.iterations": 7})
    assert out["differing"] == []
    assert out["differing_from_reference"] == ["a.calls 4 -> 3"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_configs_depend_only_on_the_seed(name):
    make = workloads.WORKLOADS[name]
    for seed in (0, 1, 17):
        a = [c.config for c in make(seed).commands]
        assert a == [c.config for c in make(seed).commands]
    assert ([c.config for c in make(1).commands]
            != [c.config for c in make(2).commands])


def test_seed_zero_is_the_reference():
    sweep, main, control = (c.config for c in workloads.sweep_mpass_1d(0).commands)
    assert sweep["domain"]["bounds"] == [[0.0, 1.0]]
    assert sweep["sweep"]["values"] == [0.05, 400.0]
    assert sweep["reaction"]["params"]["amplitude"] == 1.0
    assert main["sweep"]["values"] == [0.01, 0.0]
    assert main["reaction"]["params"]["kappa"] == 2.0 * workloads.LAMBDA1_1D
    assert control["reaction"]["params"]["kappa"] == 0.5 * workloads.LAMBDA1_1D
    solve = workloads.solve_2d(0).commands[0].config
    assert solve["reaction"]["params"]["nu"] == 50.0 * 2.5 * workloads.LAMBDA1_SOLVE


@pytest.mark.parametrize("seed", range(1, 40))
def test_seeds_keep_the_expected_outcome(seed):
    sweep, main, control = (c.config for c in workloads.sweep_mpass_1d(seed).commands)
    amp = sweep["reaction"]["params"]["amplitude"]
    lo, hi = (v * amp for v in sweep["sweep"]["values"])
    assert lo == pytest.approx(0.05) and hi == pytest.approx(400.0)
    a, b = sweep["domain"]["bounds"][0]
    assert b - a == pytest.approx(1.0) and -0.5 <= a <= 0.5
    assert 0.008 <= main["forcing"]["scale"] <= 0.012
    assert main["sweep"]["values"] == [main["forcing"]["scale"], 0.0]
    assert 0.4 <= control["reaction"]["params"]["kappa"] / workloads.LAMBDA1_1D <= 0.6
    solve = workloads.solve_2d(seed).commands[0].config
    params = solve["reaction"]["params"]
    assert params["nu"] * params["amplitude"] == pytest.approx(50.0 * 2.5 * workloads.LAMBDA1_SOLVE)
    assert all(cfg["threads"] == 1 for cfg in (sweep, main, control, solve))


def test_generated_configs_parse(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from fracvar.cli import parse_config

    for name, make in workloads.WORKLOADS.items():
        for cmd in make(3).commands:
            path = tmp_path / f"{name}-{cmd.name}.json"
            path.write_text(json.dumps(cmd.config))
            parsed = parse_config(path)
            assert parsed["domain"]["nodes"] == cmd.config["domain"]["nodes"]


def test_child_traces_a_small_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": {"bounds": [[0.0, 1.0]], "nodes": [32]},
                               "operator": {"s": 0.5}}))
    result = tmp_path / "result.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(result), "t", "1",
                    "--", "eig", "--config", str(cfg), "--out", str(tmp_path / "out")],
                   env=env, check=True, capture_output=True, timeout=120)
    res = json.loads(result.read_text())
    assert res["status"] == 0 and res["t0"] < res["t_import"] < res["t_end"]
    spans = json.loads(Path(res["spans"]).read_text())
    names = spans["names"]
    by_id = {sp[0]: sp for sp in spans["spans"]}
    roots = sorted(names[sp[2]] for sp in spans["spans"] if sp[1] == -1)
    assert roots == ["child.import", "cli.main"]
    chain = []
    sid = next(sp[0] for sp in spans["spans"] if names[sp[2]] == "spectral.cho_factor")
    while sid != -1:
        chain.append(names[by_id[sid][2]])
        sid = by_id[sid][1]
    assert chain == ["spectral.cho_factor", "spectral.first_eigenpair", "experiments.prepare",
                     "cli.run_command", "cli.main"]
    wall = res["t_end"] - res["t0"]
    accounted = sum(tracing.self_times(spans["spans"]).values())
    assert 0.0 <= wall - accounted < 0.05 * wall
