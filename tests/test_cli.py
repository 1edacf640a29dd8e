import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracvar

from fracvar import (DomainSpec, Field, assemble_gradient, build_grid, cli, experiments,
                     mountain_pass, solvers)
from fracvar.fracops import composition_matrix
from fracvar.cli import (ConfigError, main, parse_config, read_field,
                         regime_config_from, run_command, write_field)


def write_config(path, **overrides):
    cfg = {
        "domain": {"bounds": [[0.0, 1.0]], "nodes": [64]},
        "operator": {"s": 0.5},
        "coefficient": {"family": "power", "params": {"A": 1.0, "B": 2.0, "p": 1.5}},
        "reaction": {"family": "saturating", "params": {"nu": 1.0}},
        "forcing": {"kind": "eigenfunction", "scale": 0.01},
        "solver": {"max_iter": 6000},
        "seed": 0,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "domain": {"bounds": [[0.0, 1.0]], "nodes": [128]},
            "operator": {"s": 0.5},
            "coefficient": {"family": "power", "params": {"A": 1, "B": 2, "p": 1.5}},
            "reaction": {"family": "saturating", "params": {"nu": 1}},
        }))
        cfg = parse_config(path)
        assert cfg["operator"] == {"s": 0.5}
        assert cfg["solver"]["tol_g"] == 1e-6
        assert cfg["forcing"] == {"kind": "zero"}
        assert cfg["seed"] == 0
        assert cfg["sweep"] == {"values": []}

    def test_cells_of_aspect_two_are_accepted(self, tmp_path):
        # 16 x 8 nodes on the unit square: spacings 1/16 and 1/8, the
        # largest aspect parse_config accepts
        domain = {"bounds": [[0.0, 1.0], [0.0, 1.0]], "nodes": [16, 8]}
        cfg = parse_config(write_config(tmp_path / "cfg.json", domain=domain))
        assert cfg["domain"] == domain

    def test_out_of_range_order_names_key(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", operator={"s": 1.5})
        with pytest.raises(ConfigError, match=r"operator\.s"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "domain": {"bounds": [[0.0, 1.0]], "nodes": [64]},
            "operator": {"s": 0.5},
            "reactoin": {"family": "saturating"},
        }))
        with pytest.raises(ConfigError, match="reactoin"):
            parse_config(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "cfg.json",
                            solver={"max_iter": 10, "tol": 1e-3})
        with pytest.raises(ConfigError, match='"tol"'):
            parse_config(path)

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(path)

    def test_unknown_family_rejected(self, tmp_path):
        path = write_config(tmp_path / "cfg.json",
                            reaction={"family": "exotic", "params": {}})
        with pytest.raises(ConfigError, match="reaction.family"):
            parse_config(path)


class TestFieldFormat:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(64,)))
        fld = Field(grid, rng.standard_normal(64))
        path = tmp_path / "u.fvfd"
        write_field(path, fld)
        back = read_field(path, grid)
        assert np.array_equal(back.values, fld.values)

    def test_truncated_file_rejected(self, tmp_path):
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(64,)))
        fld = Field(grid, np.ones(64))
        path = tmp_path / "u.fvfd"
        write_field(path, fld)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ValueError, match="payload"):
            read_field(path, grid)

    def test_bad_magic_rejected(self, tmp_path):
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(64,)))
        path = tmp_path / "u.fvfd"
        path.write_bytes(b"XXXX" + b"\x00" * 100)
        with pytest.raises(ValueError, match="magic"):
            read_field(path, grid)

    def test_dimension_mismatch_rejected(self, tmp_path):
        g1 = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(16,)))
        g2 = build_grid(DomainSpec(bounds=((0.0, 1.0), (0.0, 1.0)), nodes=(4, 4)))
        path = tmp_path / "u.fvfd"
        write_field(path, Field(g1, np.ones(16)))
        with pytest.raises(ValueError, match="dimension"):
            read_field(path, g2)

    @pytest.mark.parametrize("bounds, nodes", [(((-0.3, 0.7),), (97,)),
                                               (((0.1, 1.3), (-0.2, 0.8)), (12, 10))])
    def test_nodal_csv_is_byte_identical_to_a_per_node_writer(self, tmp_path, rng, bounds,
                                                              nodes):
        # the rows come from one column_stack(...).tolist(); the file must be
        # the one a per-node float() writer puts down, so the digest holds
        grid = build_grid(DomainSpec(bounds=bounds, nodes=nodes))
        values = rng.standard_normal(grid.n_nodes) * np.logspace(-300, 300, grid.n_nodes)
        values[:3] = 0.0, -0.0, 1.0
        path = tmp_path / "u.csv"
        cli._write_csv(path, *cli._nodal_csv(Field(grid, values), "u"))
        header = ["x"] if len(nodes) == 1 else ["x", "y"]
        want = "".join([",".join(header + ["u"]) + "\n"] + [
            ",".join(repr(float(c)) for c in (*node, v)) + "\n"
            for node, v in zip(grid.nodes, values)])
        assert path.read_bytes() == want.encode()
        assert cli._sha256(path) == hashlib.sha256(want.encode()).hexdigest()


class TestRunCommand:
    def test_eig_writes_artifacts(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "cfg.json"))
        out = tmp_path / "out"
        status = run_command(cfg, "eig", out_dir=out)
        assert status == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == {"eigenpair.csv", "report.json"}
        report = json.loads((out / "report.json").read_text())
        assert report["lambda1"] > 0

    def test_eigenpair_csv_holds_the_eigenfunction(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "cfg.json"))
        out = tmp_path / "out"
        run_command(cfg, "eig", out_dir=out)
        phi1 = experiments.prepare(regime_config_from(cfg)).eigenpair.function
        text = (out / "eigenpair.csv").read_bytes().decode()
        assert "\r" not in text
        header, *rows = text.splitlines()
        assert header == "x,phi1"
        assert [[float(v) for v in row.split(",")] for row in rows] == [
            [*node, value] for node, value in zip(phi1.grid.nodes.tolist(), phi1.values.tolist())]

    def test_solve_reports_the_same_keys_at_any_length(self, tmp_path):
        # a 5-iteration solve and an 11-iteration one: the energy trace is
        # reported by its first value whatever its length
        runs = []
        for name, overrides in (("short", {}), ("long", {
                "reaction": {"family": "saturating", "params": {"nu": 5.0}},
                "forcing": {"kind": "zero"}})):
            cfg = parse_config(write_config(tmp_path / f"{name}.json", **overrides))
            run_command(cfg, "solve", out_dir=tmp_path / name)
            runs.append(json.loads((tmp_path / name / "report.json").read_text())["run"])
        short, long = runs
        assert short["iterations"] == 5 and long["iterations"] > 8
        assert set(short) == set(long)
        assert set(short["diagnostics"]) == set(long["diagnostics"]) == {
            "counts", "energy_initial"}

    def test_solve_reports_solution(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "cfg.json"))
        out = tmp_path / "out"
        status = run_command(cfg, "solve", out_dir=out)
        assert status == 0
        report = json.loads((out / "report.json").read_text())
        assert report["run"]["classification"] == "local-min"
        grid = build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(64,)))
        fld = read_field(out / "solution.fvfd", grid)
        assert np.min(fld.values) >= 0.0

    def test_sweep_and_threshold(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path / "cfg.json",
            forcing={"kind": "zero"},
            sweep={"values": [0.02, 200.0]},
        ))
        out = tmp_path / "out"
        status = run_command(cfg, "sweep", out_dir=out)
        assert status == 0
        report = json.loads((out / "report.json").read_text())
        assert report["classifications"] == ["trivial", "local-min"]
        assert 0.02 < report["nu_threshold"] < 200.0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + two rows

    def test_sweep_reports_the_linear_prediction(self, tmp_path):
        # nu_linear = gamma(0) lambda_min(C) / amplitude, with gamma(0) = A + B p / 2
        cfg = parse_config(write_config(
            tmp_path / "cfg.json", forcing={"kind": "zero"}, sweep={"values": [0.02, 200.0]},
            reaction={"family": "saturating", "params": {"nu": 1.0, "amplitude": 2.0}}))
        out = tmp_path / "out"
        assert run_command(cfg, "sweep", out_dir=out) == 0
        report = json.loads((out / "report.json").read_text())
        grad = assemble_gradient(build_grid(DomainSpec(bounds=((0.0, 1.0),), nodes=(64,))), 0.5)
        lam = np.linalg.eigvalsh(composition_matrix(grad))[0]
        assert report["lambda_min_composition"] == pytest.approx(lam, rel=1e-9)
        assert report["nu_linear"] == pytest.approx(2.5 * lam / 2.0, rel=1e-9)
        assert report["nu_threshold"] == pytest.approx(report["nu_linear"], rel=5e-3)

    def test_appendix_command(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "cfg.json"))
        out = tmp_path / "out"
        assert run_command(cfg, "appendix", out_dir=out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["final_rel_error"] <= 0.01

    def test_manifest_reproducible(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.json")
        outs = []
        for name in ("out_a", "out_b"):
            cfg = parse_config(cfg_path)
            run_command(cfg, "solve", out_dir=tmp_path / name)
            outs.append(json.loads((tmp_path / name / "manifest.json").read_text()))
        assert outs[0]["files"] == outs[1]["files"]
        assert outs[0]["config"] == outs[1]["config"]

    @pytest.mark.parametrize("nodes", [[64], [8, 8]])
    def test_inventory_digests_are_sha256(self, tmp_path, nodes):
        # the CLI hashes with CPython's built-in SHA-256; hashlib is the oracle
        domain = {"bounds": [[0.0, 1.0]] * len(nodes), "nodes": nodes}
        cfg = parse_config(write_config(tmp_path / "cfg.json", domain=domain,
                                        solver={"tol_g": 1e-4}))
        out = tmp_path / "out"
        assert run_command(cfg, "solve", out_dir=out) == 0
        files = json.loads((out / "manifest.json").read_text())["files"]
        assert set(files) == {"report.json", "solution.csv", "solution.fvfd"}
        for name, digest in files.items():
            assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest(), name

    @pytest.mark.parametrize("command", ["verify", "eig", "solve", "sweep", "mpass", "appendix",
                                         "solve-16x16"])
    def test_manifest_times_prepare_outside_the_inventory(self, tmp_path, command):
        overrides = {
            "sweep": {"forcing": {"kind": "zero"}, "sweep": {"values": [0.02, 200.0]}},
            "mpass": {"reaction": {"family": "cubic_saturating", "params": {"kappa": 4.65}}},
            "solve-16x16": {"domain": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "nodes": [16, 16]},
                            "solver": {"tol_g": 1e-4}},
        }
        cfg_path = write_config(tmp_path / "cfg.json", **overrides.get(command, {}))
        command = command.split("-")[0]
        manifests = []
        for name in ("out_a", "out_b"):
            run_command(parse_config(cfg_path), command, out_dir=tmp_path / name)
            manifests.append(json.loads((tmp_path / name / "manifest.json").read_text()))
        stages = {"sweep": {"sweep_seconds", "threshold_seconds"},
                  "solve": {"minimize_seconds"},
                  "mpass": {"minimize_seconds", "ray_seconds", "mountain_pass_seconds"},
                  }.get(command, set())
        for manifest in manifests:
            timings = manifest["timings"]
            parts = {"assemble_seconds", "eigenpair_seconds"}
            assert set(timings) == {"prepare_seconds", "command_seconds"} | parts | stages
            assert 0.0 <= timings["prepare_seconds"] <= timings["command_seconds"]
            assert 0.0 <= sum(timings[k] for k in parts) <= timings["prepare_seconds"]
            assert 0.0 <= sum(timings[k] for k in stages) <= timings["command_seconds"]
        for name, manifest in zip(("out_a", "out_b"), manifests):
            written = {path.name for path in (tmp_path / name).iterdir()}
            assert set(manifest["files"]) == written - {"manifest.json"}
        assert manifests[0]["files"] == manifests[1]["files"]


class TestMainEntry:
    def test_config_error_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json", operator={"s": 2.0})
        status = main(["eig", "--config", str(path), "--out", str(tmp_path / "o")])
        assert status == 2
        assert "operator.s" in capsys.readouterr().err

    def test_eig_exit_0(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json")
        status = main(["eig", "--config", str(path), "--out", str(tmp_path / "o")])
        assert status == 0
        assert "exit 0" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path):
        status = main(["eig", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o")])
        assert status == 2

    @staticmethod
    def _run_fresh(*commands):
        """Import the CLI in a fresh interpreter and run each argv list
        through main: the exit statuses and the scipy modules loaded."""
        src = str(Path(fracvar.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        code = ("import json, sys\nfrom fracvar.cli import main\n"
                f"status = [main(argv) for argv in {list(commands)!r}]\n"
                "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                "print(json.dumps([status, scipy]))")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_import_loads_no_scipy(self):
        # importing any part of scipy costs ~0.4 s; the CLI starts without
        # it, and only the verify command's quadrature loads it
        assert self._run_fresh() == [[], []]

    def test_dense_preconditioner_commands_run_without_scipy(self, tmp_path):
        solve = write_config(tmp_path / "solve.json")
        sweep = write_config(tmp_path / "sweep.json", forcing={"kind": "zero"},
                             sweep={"values": [0.02, 200.0]})
        status, loaded = self._run_fresh(
            ["solve", "--config", str(solve), "--out", str(tmp_path / "a")],
            ["sweep", "--config", str(sweep), "--out", str(tmp_path / "b")])
        assert status == [0, 0]
        assert loaded == []

    def test_symbol_preconditioner_commands_run_without_scipy(self, tmp_path):
        # above the preconditioner crossover: the symbol solve's DST-I,
        # LOBPCG (eig) and the Newton-CG's CG (mpass, eigenfunction
        # forcing)
        line = write_config(tmp_path / "line.json",
                            domain={"bounds": [[0.0, 1.0]], "nodes": [600]})
        square = write_config(tmp_path / "square.json",
                              domain={"bounds": [[0.0, 1.0], [0.0, 1.0]], "nodes": [24, 24]})
        mpass = write_config(tmp_path / "mpass.json",
                             domain={"bounds": [[0.0, 1.0]], "nodes": [600]},
                             reaction={"family": "cubic_saturating", "params": {"kappa": 4.65}})
        status, loaded = self._run_fresh(
            ["eig", "--config", str(line), "--out", str(tmp_path / "a")],
            ["solve", "--config", str(square), "--out", str(tmp_path / "b")],
            ["mpass", "--config", str(mpass), "--out", str(tmp_path / "c")])
        assert status == [0, 0, 0]
        assert loaded == []


class TestCommandFamilyValidation:
    def test_mpass_rejects_sublinear_family(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "cfg.json"))
        with pytest.raises(ConfigError, match="linear-growth"):
            run_command(cfg, "mpass", out_dir=tmp_path / "out")

    def test_sweep_rejects_linear_family(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path / "cfg.json",
            reaction={"family": "cubic_saturating", "params": {"kappa": 1.0}}))
        with pytest.raises(ConfigError, match="sublinear"):
            run_command(cfg, "sweep", out_dir=tmp_path / "out")

    def test_mpass_happy_path(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path / "cfg.json",
            reaction={"family": "cubic_saturating", "params": {"kappa": 4.65}}))
        out = tmp_path / "out"
        status = run_command(cfg, "mpass", out_dir=out)
        assert status == 0
        report = json.loads((out / "report.json").read_text())
        run = report["runs"][0]
        assert run["mountain_pass"]["classification"] == "mountain-pass"
        assert run["distinct"] is True

    def test_mpass_above_the_crossover_uses_the_symbol_solve(self, tmp_path, monkeypatch):
        # with the preconditioner crossover patched to 0 both solvers
        # precondition by the symbol solve, no dense matrix is kept with the
        # gradient operator, and the mountain pass finds the dense-
        # preconditioned run's critical point
        cfg = parse_config(write_config(
            tmp_path / "cfg.json",
            reaction={"family": "cubic_saturating", "params": {"kappa": 4.65}}))
        grad_ops = []

        def recording(model, *args, **kwargs):
            grad_ops.append(model.grad_op)
            return mountain_pass(model, *args, **kwargs)

        monkeypatch.setattr(experiments, "mountain_pass", recording)
        runs = []
        for limit in (solvers._DENSE_MAX_NODES, 0):
            monkeypatch.setattr(solvers, "_DENSE_MAX_NODES", limit)
            out = tmp_path / f"out_{limit}"
            assert run_command(cfg, "mpass", out_dir=out) == 0
            runs.append(json.loads((out / "report.json").read_text())["runs"][0])
        dense, fft = runs
        assert fft["mountain_pass"]["classification"] == "mountain-pass"
        assert fft["mountain_pass"]["energy"] == pytest.approx(
            dense["mountain_pass"]["energy"], rel=1e-9)
        assert fft["distinct"] is True
        assert set(grad_ops[0]._derived) == {"fft", "preconditioner"}
        assert set(grad_ops[-1]._derived) == {"fft", "symbol", "symbol_scaling"}

    @pytest.mark.parametrize("command,reaction,values", [
        ("sweep", {"family": "saturating", "params": {"nu": 1.0}}, [0.5, -1.0]),
        ("mpass", {"family": "cubic_saturating", "params": {"kappa": 4.65}}, [-0.01]),
    ])
    def test_out_of_range_sweep_values_rejected(self, tmp_path, command, reaction, values):
        cfg = parse_config(write_config(tmp_path / "cfg.json", reaction=reaction,
                                        sweep={"values": values}))
        with pytest.raises(ConfigError, match="sweep.values"):
            run_command(cfg, command, out_dir=tmp_path / "out")

    def test_empty_sweep_exits_2_before_prepare(self, tmp_path, capsys, monkeypatch):
        # nothing to classify: a config error, raised before the assembly
        # and the eigenpair are paid for
        monkeypatch.setattr(experiments, "prepare", lambda *args: pytest.fail("prepared"))
        path = write_config(tmp_path / "cfg.json", forcing={"kind": "zero"},
                            sweep={"values": []})
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "sweep.values" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [[0.01, 0.010000001], [0.02, 0.01, 0.02]])
    def test_mpass_sweep_values_of_one_file_name_exit_2_before_prepare(
            self, tmp_path, capsys, monkeypatch, values):
        # both values write minimizer_0p01.csv (or 0p02): one run's files
        # would stand in for the other's
        monkeypatch.setattr(experiments, "prepare", lambda *args: pytest.fail("prepared"))
        path = write_config(tmp_path / "cfg.json", sweep={"values": values}, reaction={
            "family": "cubic_saturating", "params": {"kappa": 4.65}})
        assert main(["mpass", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "sweep.values" in capsys.readouterr().err

    def test_verify_command(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "cfg.json"))
        out = tmp_path / "out"
        status = run_command(cfg, "verify", out_dir=out)
        assert status == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        lines = (out / "identities.csv").read_text().strip().splitlines()
        assert lines[0] == "check,value,tolerance,passed"
        assert len(lines) > 10

    def test_verify_passes_on_a_coarse_2d_grid(self, tmp_path):
        # the 2D composition bound runs on its own 32 x 32 grid; on the
        # config's 8 x 8 grid it read 0.28 against its 10% tolerance
        path = write_config(tmp_path / "cfg.json",
                            domain={"bounds": [[0.0, 1.0], [0.0, 1.0]], "nodes": [8, 8]})
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_sweep_threads_from_config(self, tmp_path, capsys):
        # sweeps run serially: "threads" accepts only 1
        path = write_config(tmp_path / "cfg.json",
                            forcing={"kind": "zero"},
                            sweep={"values": [0.5, 5.0]}, threads=2)
        status = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        assert status == 2
        assert "threads" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mpass_negative_control_exit_1(self, tmp_path):
        # weak reaction: geometry check fails, no second solution claimed
        cfg = parse_config(write_config(
            tmp_path / "cfg.json",
            reaction={"family": "cubic_saturating", "params": {"kappa": 0.5}}))
        out = tmp_path / "out"
        status = run_command(cfg, "mpass", out_dir=out)
        assert status == 1
        report = json.loads((out / "report.json").read_text())
        assert report["runs"][0]["geometry_ok"] is False


# the seed-0 sweep and mpass configs of the benchmark (perfbench/workloads.py)
# with their solver budget cut, so that solves end failed
SEED0_DOMAIN = {"bounds": [[0.0, 1.0]], "nodes": [384]}
SEED0_SWEEP = {"reaction": {"family": "saturating", "params": {"nu": 1.0, "amplitude": 1.0}},
               "forcing": {"kind": "zero"}, "sweep": {"values": [0.05, 400.0]}}
SEED0_MPASS = {"reaction": {"family": "cubic_saturating",
                            "params": {"kappa": 2.0 * 2.318452568959003}},
               "forcing": {"kind": "eigenfunction", "scale": 0.01},
               "sweep": {"values": [0.01, 0.0]}}


class TestFailedVerdicts:
    def test_sweep_with_a_failed_value_reports_no_threshold(self, tmp_path):
        # at max_iter 4 the nu = 400 solve ends failed: the sweep is no
        # bracket, so no threshold is computed from it and the run exits 1
        cfg = parse_config(write_config(tmp_path / "cfg.json", domain=SEED0_DOMAIN,
                                        solver={"max_iter": 4}, **SEED0_SWEEP))
        out = tmp_path / "out"
        assert run_command(cfg, "sweep", out_dir=out) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["classifications"] == ["trivial", "failed"]
        assert "nu_threshold" not in report and "nu_linear" not in report

    def test_mpass_with_failed_solves_claims_no_distinctness(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "cfg.json", domain=SEED0_DOMAIN,
                                        solver={"max_iter": 1}, **SEED0_MPASS))
        out = tmp_path / "out"
        assert run_command(cfg, "mpass", out_dir=out) == 1
        runs = json.loads((out / "report.json").read_text())["runs"]
        assert [(r["minimizer"]["classification"], r["mountain_pass"]["classification"],
                 r["distinct"]) for r in runs] == [("failed", "failed", None)] * 2

    def test_mpass_with_a_failed_minimizer_exits_1(self, tmp_path, monkeypatch):
        # a failed minimizer alone fails the run, whatever its mountain pass gives
        minimize_cone = experiments.minimize_cone

        def failing(*args):
            rep = minimize_cone(*args)
            rep.classification = "failed"
            return rep

        monkeypatch.setattr(experiments, "minimize_cone", failing)
        cfg = parse_config(write_config(
            tmp_path / "cfg.json",
            reaction={"family": "cubic_saturating", "params": {"kappa": 4.65}}))
        out = tmp_path / "out"
        assert run_command(cfg, "mpass", out_dir=out) == 1
        run = json.loads((out / "report.json").read_text())["runs"][0]
        assert run["mountain_pass"]["classification"] == "mountain-pass"
        assert run["distinct"] is None


def _set(section, key, value):
    """Config edit: put value at section.key (section None: the root)."""
    def edit(cfg, tmp_path):
        (cfg.setdefault(section, {}) if section else cfg)[key] = value
    return edit


def _set_param(section, family, key, value):
    """Config edit: the section's family with one parameter set or removed."""
    def edit(cfg, tmp_path):
        params = {"power": {"A": 1.0, "B": 2.0, "p": 1.5}, "constant": {"c": 1.0},
                  "saturating": {"nu": 1.0}, "cubic_saturating": {"kappa": 1.0}}[family]
        if value is None:
            del params[key]
        else:
            params[key] = value
        cfg[section] = {"family": family, "params": params}
    return edit


def _forcing_file(payload):
    """Config edit: file forcing read from an FVFD file holding payload."""
    def edit(cfg, tmp_path):
        path = tmp_path / "h.fvfd"
        if payload is not None:
            path.write_bytes(payload)
        cfg["forcing"] = {"kind": "file", "path": str(path)}
    return edit


_FVFD_64_HEADER = b"FVFD" + (1).to_bytes(4, "little") + (64).to_bytes(4, "little")


def _mpass_file_forcing(cfg, tmp_path):
    _forcing_file(_FVFD_64_HEADER + np.ones(64).astype("<f8").tobytes())(cfg, tmp_path)
    cfg["reaction"] = {"family": "cubic_saturating", "params": {"kappa": 4.65}}


INVALID_INPUTS = [
    # non-finite and out-of-range values
    ("nan-tol_g", _set("solver", "tol_g", float("nan")), "solver.tol_g"),
    ("nan-nu", _set_param("reaction", "saturating", "nu", float("nan")),
     "reaction.params.nu"),
    ("inf-nu", _set_param("reaction", "saturating", "nu", float("inf")),
     "reaction.params.nu"),
    ("nan-kappa", _set_param("reaction", "cubic_saturating", "kappa", float("nan")),
     "reaction.params.kappa"),
    ("nan-A", _set_param("coefficient", "power", "A", float("nan")),
     "coefficient.params.A"),
    ("inf-B", _set_param("coefficient", "power", "B", float("inf")),
     "coefficient.params.B"),
    ("nan-c", _set_param("coefficient", "constant", "c", float("nan")),
     "coefficient.params.c"),
    ("negative-max_iter", _set("solver", "max_iter", -1), "solver.max_iter"),
    # cells four times as long as they are wide
    ("long-cells", _set(None, "domain", {"bounds": [[0.0, 1.0], [0.0, 0.25]], "nodes": [16, 16]}),
     "domain.nodes"),
    # options the solvers no longer have, and the quadrature settings that
    # are now constants of the scheme (set here to their old defaults)
    ("removed-ball_radius", _set("solver", "ball_radius", 1.0),
     'unknown key "ball_radius" in section "solver"'),
    ("stale-path_points", _set("solver", "path_points", 41),
     'unknown key "path_points" in section "solver"'),
    ("stale-armijo_factor", _set("solver", "armijo_factor", 0.5),
     'unknown key "armijo_factor" in section "solver"'),
    *[(f"removed-{key}", _set("operator", key, value),
       f'unknown key "{key}" in section "operator"')
      for key, value in (("rho0", 0.5), ("rho_tail", None), ("tail_correction", True),
                         ("near_cells", 8), ("n_theta", 2048), ("nyquist_stabilization", 0.12))],
    # wrong types and names
    ("fractional-int", _set("solver", "max_iter", 2.7), "solver.max_iter"),
    ("unknown-param", _set_param("reaction", "saturating", "nuu", 2.0),
     "reaction.params.nuu"),
    ("missing-param", _set_param("coefficient", "power", "B", None),
     "coefficient.params.B"),
    ("negative-nu", _set_param("reaction", "saturating", "nu", -1.0),
     "reaction.params.nu"),
    ("zero-kappa", _set_param("reaction", "cubic_saturating", "kappa", 0.0),
     "reaction.params.kappa"),
    ("string-s", _set("operator", "s", "half"), "operator.s"),
    ("string-sweep", _set("sweep", "values", [0.5, "x"]), "sweep.values"),
    ("string-seed", _set(None, "seed", "abc"), "seed"),
    ("zero-threads", _set(None, "threads", 0), "threads"),
    ("two-threads", _set(None, "threads", 2), "threads"),
    ("unused-forcing-key", _set(None, "forcing", {"kind": "zero", "scale": 1.0}),
     "forcing.scale"),
    # forcing files
    ("missing-forcing-file", _forcing_file(None), "forcing.path"),
    ("bad-forcing-header", _forcing_file(b"FVFD\x01\x00"), "forcing.path"),
    ("nan-forcing-values", _forcing_file(
        _FVFD_64_HEADER + np.full(64, np.nan).astype("<f8").tobytes()), "forcing.path"),
    # a valid forcing file that mpass would not read (its forcing is the
    # sweep value times phi1)
    ("mpass-file-forcing", _mpass_file_forcing, "forcing.kind", "mpass"),
]


@pytest.mark.parametrize("edit,key,command",
                         # the command a case runs follows its key; solve if none
                         [(*case[1:3], case[3] if len(case) > 3 else "solve")
                          for case in INVALID_INPUTS],
                         ids=[case[0] for case in INVALID_INPUTS])
def test_invalid_input_exits_2_naming_key(tmp_path, capsys, edit, key, command):
    cfg = json.loads(write_config(tmp_path / "base.json").read_text())
    edit(cfg, tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    status = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert status == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"forcing": {"kind": "eigenfunction", "scale": 1e300}},
    {"domain": {"bounds": [[0.0, 1e-300]], "nodes": [64]}},
    {"domain": {"bounds": [[0.0, 1e300]], "nodes": [64]}},
], ids=["huge-forcing", "tiny-domain", "huge-domain"])
def test_overflowing_config_exits_2(tmp_path, capsys, overrides):
    # finite, valid numbers whose run leaves floating-point range: the
    # Newton-CG's CG, the eigenpair's factor, the DST-I symbol. The
    # error is one line of stderr: a numpy warning on the way would print
    # two more outside pytest, so none may be issued
    path = write_config(tmp_path / "cfg.json", **overrides)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("fracvar: config error: ") and err.count("\n") == 1
