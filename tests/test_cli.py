import json

import numpy as np
import pytest

from fracvar import DomainSpec, Field, build_grid
from fracvar.cli import (ConfigError, main, parse_config, read_field,
                         run_command, write_field)


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
        assert cfg["operator"]["rho0"] == 0.5
        assert cfg["operator"]["tail_correction"] is True
        assert cfg["solver"]["tol_g"] == 1e-6
        assert cfg["solver"]["path_points"] == 41
        assert cfg["forcing"] == {"kind": "zero"}
        assert cfg["seed"] == 0
        assert cfg["sweep"] == {"values": []}

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

    @pytest.mark.parametrize("command,reaction,values", [
        ("sweep", {"family": "saturating", "params": {"nu": 1.0}}, [0.5, -1.0]),
        ("mpass", {"family": "cubic_saturating", "params": {"kappa": 4.65}}, [-0.01]),
    ])
    def test_out_of_range_sweep_values_rejected(self, tmp_path, command, reaction, values):
        cfg = parse_config(write_config(tmp_path / "cfg.json", reaction=reaction,
                                        sweep={"values": values}))
        with pytest.raises(ConfigError, match="sweep.values"):
            run_command(cfg, command, out_dir=tmp_path / "out")

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

    def test_threads_env_fallback(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path / "cfg.json",
                            forcing={"kind": "zero"},
                            sweep={"values": [0.5, 5.0]})
        monkeypatch.setenv("FRACVAR_THREADS", "2")
        status = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        assert status == 0

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
    ("nan-tol_g", _set("solver", "tol_g", float("nan")), [], {}, "solver.tol_g"),
    ("nan-nu", _set_param("reaction", "saturating", "nu", float("nan")), [], {},
     "reaction.params.nu"),
    ("inf-nu", _set_param("reaction", "saturating", "nu", float("inf")), [], {},
     "reaction.params.nu"),
    ("nan-kappa", _set_param("reaction", "cubic_saturating", "kappa", float("nan")), [], {},
     "reaction.params.kappa"),
    ("nan-A", _set_param("coefficient", "power", "A", float("nan")), [], {},
     "coefficient.params.A"),
    ("inf-B", _set_param("coefficient", "power", "B", float("inf")), [], {},
     "coefficient.params.B"),
    ("nan-c", _set_param("coefficient", "constant", "c", float("nan")), [], {},
     "coefficient.params.c"),
    ("negative-max_iter", _set("solver", "max_iter", -1), [], {}, "solver.max_iter"),
    ("zero-ball_radius", _set("solver", "ball_radius", 0.0), [], {}, "solver.ball_radius"),
    ("negative-ball_radius", _set("solver", "ball_radius", -1.0), [], {}, "solver.ball_radius"),
    ("zero-path_step_cap", _set("solver", "path_step_cap", 0.0), [], {},
     "solver.path_step_cap"),
    # wrong types and names
    ("string-bool", _set("operator", "tail_correction", "false"), [], {},
     "operator.tail_correction"),
    ("fractional-int", _set("operator", "near_cells", 2.7), [], {}, "operator.near_cells"),
    ("unknown-param", _set_param("reaction", "saturating", "nuu", 2.0), [], {},
     "reaction.params.nuu"),
    ("missing-param", _set_param("coefficient", "power", "B", None), [], {},
     "coefficient.params.B"),
    ("negative-nu", _set_param("reaction", "saturating", "nu", -1.0), [], {},
     "reaction.params.nu"),
    ("zero-kappa", _set_param("reaction", "cubic_saturating", "kappa", 0.0), [], {},
     "reaction.params.kappa"),
    ("string-s", _set("operator", "s", "half"), [], {}, "operator.s"),
    ("string-sweep", _set("sweep", "values", [0.5, "x"]), [], {}, "sweep.values"),
    ("string-seed", _set(None, "seed", "abc"), [], {}, "seed"),
    ("unused-forcing-key", _set(None, "forcing", {"kind": "zero", "scale": 1.0}), [], {},
     "forcing.scale"),
    # forcing files
    ("missing-forcing-file", _forcing_file(None), [], {}, "forcing.path"),
    ("bad-forcing-header", _forcing_file(b"FVFD\x01\x00"), [], {}, "forcing.path"),
    ("nan-forcing-values", _forcing_file(
        _FVFD_64_HEADER + np.full(64, np.nan).astype("<f8").tobytes()), [], {}, "forcing.path"),
    # a valid forcing file that mpass would not read (its forcing is the
    # sweep value times phi1)
    ("mpass-file-forcing", _mpass_file_forcing, [], {}, "forcing.kind", "mpass"),
    # thread overrides
    ("zero-threads-flag", lambda cfg, tmp_path: None, ["--threads", "0"], {}, "--threads"),
    ("bad-threads-env", lambda cfg, tmp_path: None, [], {"FRACVAR_THREADS": "abc"},
     "FRACVAR_THREADS"),
]


@pytest.mark.parametrize("edit,argv,env,key,command",
                         # the command a case runs follows its key; solve if none
                         [(*case[1:5], case[5] if len(case) > 5 else "solve")
                          for case in INVALID_INPUTS],
                         ids=[case[0] for case in INVALID_INPUTS])
def test_invalid_input_exits_2_naming_key(tmp_path, capsys, monkeypatch, edit, argv, env, key,
                                          command):
    cfg = json.loads(write_config(tmp_path / "base.json").read_text())
    edit(cfg, tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    status = main([command, "--config", str(path), "--out", str(tmp_path / "o")] + argv)
    assert status == 2
    assert key in capsys.readouterr().err
