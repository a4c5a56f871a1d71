"""Config parsing, the four subcommands, exit codes, and output files."""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparseppc import ConfigError
from sparseppc.cli import load_config, main

ROOT = Path(__file__).resolve().parents[1]

BASE = {
    "plant": {"A": [[0.9, 0.2], [0.0, 0.7]], "B": [0.0, 1.0]},
    "horizon": 4,
    "controllers": [
        {"name": "lasso", "family": "l1l2", "mu": 0.8, "epsilon": 2.0},
        {"name": "greedy", "family": "l0", "beta": 0.5},
        {"name": "ridge", "family": "ridge", "r": 0.3},
        {"name": "plain", "family": "ls"},
    ],
    "run": {"runs": 3, "T": 8, "seed": 1},
}


def src_env():
    """Environment for a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def variant(**changes):
    cfg = json.loads(json.dumps(BASE))
    cfg.update(changes)
    return cfg


class TestLoadConfig:
    def test_parses_base(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE))
        assert cfg.horizon == 4
        assert cfg.plant.n == 2
        np.testing.assert_array_equal(cfg.Q, np.eye(2))  # default weight
        assert cfg.channel_gap == 1
        assert (cfg.runs, cfg.T, cfg.seed, cfg.threads) == (3, 8, 1, 1)
        assert [c["name"] for c in cfg.controllers] == [
            "lasso", "greedy", "ridge", "plain"]

    def test_r_is_converted_to_epsilon(self, tmp_path):
        cfg = variant(controllers=[
            {"name": "a", "family": "l1l2", "mu": 2.0, "r": 0.5}])
        loaded = load_config(write_config(tmp_path, cfg))
        # epsilon = mu^2 N / (4 r) = 4 * 4 / 2 = 8
        assert loaded.controllers[0]["epsilon"] == pytest.approx(8.0)

    def test_per_controller_q(self, tmp_path):
        cfg = variant(controllers=[
            {"name": "a", "family": "ls", "Q": [[2.0, 0.0], [0.0, 3.0]]}])
        loaded = load_config(write_config(tmp_path, cfg))
        np.testing.assert_array_equal(loaded.controllers[0]["Q"],
                                      [[2.0, 0.0], [0.0, 3.0]])

    @pytest.mark.parametrize("mutate", [
        lambda c: c.pop("plant"),
        lambda c: c.pop("controllers"),
        lambda c: c.update(extra=1),
        lambda c: c.update(horizon=0),
        lambda c: c.update(horizon=True),
        lambda c: c.update(Q=[[1.0]]),
        lambda c: c["plant"].pop("B"),
        lambda c: c.update(controllers=[]),
        lambda c: c["controllers"].append(
            {"name": "lasso", "family": "ls"}),
        lambda c: c["controllers"].append(
            {"name": "a,b", "family": "ls"}),
        lambda c: c["controllers"].append(
            {"name": "x", "family": "sparsest"}),
        lambda c: c["controllers"].append(
            {"name": "x", "family": "l1l2", "mu": 1.0}),
        lambda c: c["controllers"].append(
            {"name": "x", "family": "l1l2", "mu": 1.0, "epsilon": 1.0,
             "r": 1.0}),
        lambda c: c["controllers"].append(
            {"name": "x", "family": "l1l2", "mu": -1.0, "epsilon": 1.0}),
        lambda c: c["controllers"].append(
            {"name": "x", "family": "l0", "beta": 1.0}),
        lambda c: c["controllers"].append(
            {"name": "x", "family": "ridge"}),
        lambda c: c["controllers"].append(
            {"name": "x", "family": "ls", "mu": 1.0}),
        lambda c: c.update(channel={"model": "gilbert_elliott"}),
        lambda c: c.update(channel={"receptions_between_bursts": 0}),
        lambda c: c.update(run={"runs": 0}),
        lambda c: c.update(run={"seed": -1}),
        lambda c: c.update(run={"budget": 5}),
    ])
    def test_rejects_malformed(self, tmp_path, mutate):
        cfg = variant()
        mutate(cfg)
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, cfg))

    def test_rejects_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")


class TestExitCodes:
    def test_config_error_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"horizon": 3})
        assert main(["design", "--config", str(path)]) == 2
        assert "missing required key" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["design", "--config", str(tmp_path / "no.json")]) == 2

    def test_unreachable_plant_exits_3(self, tmp_path):
        # The plant parses fine; unreachability only surfaces once the design
        # step needs the Riccati solution, so this is a design failure.
        cfg = variant(plant={"A": [[1.0, 0.0], [0.0, 1.0]], "B": [1.0, 0.0]})
        path = write_config(tmp_path, cfg)
        assert main(["design", "--config", str(path),
                     "--out", str(tmp_path)]) == 3


class TestDesignCommand:
    def test_scalar_deadbeat_report(self, tmp_path, capsys):
        cfg = {
            "plant": {"A": [[2.0]], "B": [1.0]},
            "horizon": 2,
            "controllers": [{"name": "plain", "family": "ls"}],
        }
        path = write_config(tmp_path, cfg)
        assert main(["design", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "design_report.json").read_text())
        assert len(report) == 1
        entry = report[0]
        assert entry["name"] == "plain"
        assert entry["r"] == 0.0
        np.testing.assert_allclose(entry["P"], [[1.0]], atol=1e-10)
        np.testing.assert_allclose(entry["K"], [[-2.0]], atol=1e-10)
        assert entry["residuals"]["dare_fixed_point"] <= 1e-10
        assert "designed plain (ls)" in capsys.readouterr().out

    def test_full_report_fields(self, tmp_path):
        path = write_config(tmp_path, variant())
        assert main(["design", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        report = {e["name"]: e for e in json.loads(
            (tmp_path / "design_report.json").read_text())}
        assert {"mu", "epsilon", "a1", "a2", "rho", "R"} <= set(report["lasso"])
        assert {"beta", "c1", "rho", "c", "Eps", "W", "Wstar"} <= set(
            report["greedy"])
        assert report["greedy"]["residuals"]["loewner_margin"] > 0.0
        assert not report["greedy"]["W_overridden"]
        assert 0.0 < report["lasso"]["rho"] < 1.0


class TestSimulateCommand:
    def test_trace_shapes_and_nan_handling(self, tmp_path):
        path = write_config(tmp_path, variant())
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "simulate.json").read_text())
        assert payload["T"] == 8
        assert payload["dropped"][0] is False
        assert len(payload["dropped"]) == 8
        for name in ("lasso", "greedy", "ridge", "plain"):
            ctrl = payload["controllers"][name]
            assert len(ctrl["states"]) == 9
            assert len(ctrl["inputs"]) == 8
            assert len(ctrl["norms"]) == 9
            # dropped steps carry no sparsity sample; JSON uses null
            spars = ctrl["sparsity"]
            for flag, val in zip(payload["dropped"], spars):
                assert (val is None) == bool(flag)

    def test_seed_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, variant())
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "a"),
              "--seed", "7"])
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "b"),
              "--seed", "7"])
        main(["simulate", "--config", str(path), "--out", str(tmp_path / "c"),
              "--seed", "8"])
        a = (tmp_path / "a" / "simulate.json").read_text()
        b = (tmp_path / "b" / "simulate.json").read_text()
        c = (tmp_path / "c" / "simulate.json").read_text()
        assert a == b
        assert a != c


class TestMonteCarloCommand:
    def test_csv_schema(self, tmp_path):
        path = write_config(tmp_path, variant())
        assert main(["montecarlo", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        norm_lines = (tmp_path / "avg_norm.csv").read_text().splitlines()
        assert norm_lines[0] == "k,lasso,greedy,ridge,plain"
        assert len(norm_lines) == 9  # header + T rows
        for i, line in enumerate(norm_lines[1:]):
            cells = line.split(",")
            assert cells[0] == str(i)
            for cell in cells[1:]:
                float(cell)  # parses
        spars_lines = (tmp_path / "avg_sparsity.csv").read_text().splitlines()
        assert spars_lines[0] == norm_lines[0]
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["command"] == "montecarlo"
        assert meta["runs"] == 3 and meta["T"] == 8 and meta["seed"] == 1
        assert meta["controllers"] == ["lasso", "greedy", "ridge", "plain"]
        assert set(meta["versions"]) == {"sparseppc", "numpy", "scipy"}

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, variant())
        for sub in ("x", "y"):
            assert main(["montecarlo", "--config", str(path),
                         "--out", str(tmp_path / sub), "--seed", "11",
                         "--runs", "2"]) == 0
        for fname in ("avg_norm.csv", "avg_sparsity.csv"):
            a = (tmp_path / "x" / fname).read_bytes()
            b = (tmp_path / "y" / fname).read_bytes()
            assert a == b

    def test_runs_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, variant())
        assert main(["montecarlo", "--config", str(path),
                     "--out", str(tmp_path), "--runs", "1"]) == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["runs"] == 1

    def test_threads_do_not_change_bytes(self, tmp_path):
        path = write_config(tmp_path, variant())
        main(["montecarlo", "--config", str(path), "--out",
              str(tmp_path / "serial")])
        main(["montecarlo", "--config", str(path), "--out",
              str(tmp_path / "pool"), "--threads", "4"])
        assert ((tmp_path / "serial" / "avg_norm.csv").read_bytes()
                == (tmp_path / "pool" / "avg_norm.csv").read_bytes())


class TestAuditCommand:
    def test_healthy_designs_pass(self, tmp_path):
        path = write_config(tmp_path, variant())
        assert main(["audit", "--config", str(path), "--out", str(tmp_path),
                     "--runs", "5"]) == 0
        payload = json.loads((tmp_path / "audit.json").read_text())
        assert payload["failures_total"] == 0
        by_name = {e["name"]: e for e in payload["controllers"]}
        assert {i["name"] for i in by_name["lasso"]["inequalities"]} == {
            "value_sandwich", "contraction"}
        assert {i["name"] for i in by_name["greedy"]["inequalities"]} == {
            "residual_bound", "contraction"}
        assert by_name["plain"]["inequalities"] == []  # nothing to audit
        for entry in by_name["lasso"]["inequalities"]:
            assert entry["failures"] == 0
            assert entry["worst_slack"] >= 0.0

    def test_zero_draws_short_circuits(self, tmp_path):
        path = write_config(tmp_path, variant())
        assert main(["audit", "--config", str(path), "--out", str(tmp_path),
                     "--runs", "0"]) == 0
        payload = json.loads((tmp_path / "audit.json").read_text())
        assert payload["failures_total"] == 0
        assert all(e["inequalities"] == [] for e in payload["controllers"])

    def test_corrupted_weight_fails_with_exit_4(self, tmp_path, capsys):
        # An override far below the least-squares weight cannot be met.
        cfg = variant(controllers=[
            {"name": "bad", "family": "l0", "beta": 0.5,
             "W": [[1e-6, 0.0], [0.0, 1e-6]]}])
        path = write_config(tmp_path, cfg)
        assert main(["audit", "--config", str(path), "--out", str(tmp_path),
                     "--runs", "4"]) == 4
        payload = json.loads((tmp_path / "audit.json").read_text())
        assert payload["failures_total"] > 0
        entry = payload["controllers"][0]["inequalities"][0]
        assert entry["failures"] > 0
        assert entry["errors"]  # carries the solver's explanation
        assert "FAILURES" in capsys.readouterr().out


def test_console_script_is_installed(tmp_path):
    # Checks this checkout's own declaration rather than whatever
    # ``sparseppc`` happens to be on PATH: the entry point named in
    # pyproject.toml is run in a fresh interpreter the way the generated
    # wrapper runs it, so the exit code must come back through sys.exit.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    target = scripts.get("sparseppc")
    assert target == "sparseppc.cli:entry"
    module, attr = target.split(":")
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.exit({attr}())")
    commands = [([sys.executable, "-c", wrapper], src_env())]
    installed = shutil.which("sparseppc")
    if installed is not None:
        commands.append(([installed], None))

    cfg = {
        "plant": {"A": [[2.0]], "B": [1.0]},
        "horizon": 2,
        "controllers": [{"name": "plain", "family": "ls"}],
    }
    path = write_config(tmp_path, cfg)
    for i, (cmd, cmd_env) in enumerate(commands):
        out = tmp_path / f"out{i}"
        proc = subprocess.run(cmd + ["design", "--config", str(path),
                                     "--out", str(out)],
                              capture_output=True, text=True, env=cmd_env)
        assert proc.returncode == 0, (cmd, proc.stderr)
        assert (out / "design_report.json").exists(), cmd
        proc = subprocess.run(cmd + ["design", "--config",
                                     str(tmp_path / "missing.json")],
                              capture_output=True, text=True, env=cmd_env)
        assert proc.returncode == 2, (cmd, proc.stderr)


def run_module(*args):
    return subprocess.run([sys.executable, "-m", "sparseppc.cli", *args],
                          capture_output=True, text=True, env=src_env())


def test_module_runs_as_script(tmp_path):
    path = write_config(tmp_path, {
        "plant": {"A": [[2.0]], "B": [1.0]},
        "horizon": 2,
        "controllers": [{"name": "plain", "family": "ls"}],
    })
    proc = run_module("design", "--config", str(path), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "design_report.json").exists()
    proc = run_module("design", "--config", str(tmp_path / "missing.json"))
    assert proc.returncode == 2, proc.stderr


@pytest.mark.parametrize("command, flag, value", [
    ("audit", "--runs", "-3"),
    ("montecarlo", "--runs", "0"),
    ("montecarlo", "--threads", "0"),
    ("montecarlo", "--seed", "-1"),
    ("simulate", "--seed", "-1"),
    ("audit", "--seed", "-1"),
])
def test_bad_override_is_a_config_error(tmp_path, command, flag, value):
    # Command-line overrides go through the same minima as the config keys
    # they replace, so a bad one exits 2 before any work, without a traceback.
    path = write_config(tmp_path, variant())
    out = tmp_path / "out"
    proc = run_module(command, "--config", str(path), "--out", str(out),
                      flag, value)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert flag in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
