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

from sparseppc import (ConfigError, LassoLaw, OmpLaw, PacketLaw,
                       ParameterError, PlantModel, SolverError, design_l1l2,
                       fixed_point_residual)
from sparseppc import cli, netsim, plant, riccati, solvers
from sparseppc.cli import build_controller, load_config, main
from sparseppc.design import WSTAR_IDENTITY_RTOL
from sparseppc.netsim import _generator

from conftest import random_reachable_plant

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


def read_csv(path):
    """A result CSV as its header line and its numbers."""
    with open(path) as fh:
        return fh.readline(), np.loadtxt(fh, delimiter=",")


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def variant(**changes):
    cfg = json.loads(json.dumps(BASE))
    cfg.update(changes)
    return cfg


def corrupt_omp_weight(monkeypatch):
    """Make every OMP law use ``W = 1e-6 I``, far below ``W*``.

    A config override that small is refused when the controller is built,
    so the corruption goes into the law, where no check follows; OMP then
    finds its constraint infeasible at every state.
    """
    build = OmpLaw.__init__

    def corrupted(self, hm, W):
        build(self, hm, 1e-6 * np.eye(len(W)))

    monkeypatch.setattr(OmpLaw, "__init__", corrupted)


class TestLoadConfig:
    def test_parses_base(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE))
        assert cfg.horizon == 4
        assert cfg.plant.n == 2
        np.testing.assert_array_equal(cfg.Q, np.eye(2))  # default weight
        assert cfg.channel_gap == 1
        assert (cfg.runs, cfg.T, cfg.seed) == (3, 8, 1)
        assert [c["name"] for c in cfg.controllers] == [
            "lasso", "greedy", "ridge", "plain"]

    def test_r_is_converted_to_epsilon(self, tmp_path):
        cfg = variant(controllers=[
            {"name": "a", "family": "l1l2", "mu": 2.0, "r": 0.5}])
        loaded = load_config(write_config(tmp_path, cfg))
        design = build_controller(loaded, loaded.controllers[0]).design
        # epsilon = mu^2 N / (4 r) = 4 * 4 / 2 = 8
        assert design.epsilon == pytest.approx(8.0)

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
        lambda c: c.update(run={"threads": 2}),
        # A weight misplaced inside the plant is refused, not ignored.
        lambda c: c["plant"].update(Q=[[1.0, 0.0], [0.0, 1.0]]),
        lambda c: c.update(plant=[[0.9, 0.2], [0.0, 0.7]]),
        lambda c: c.update(channel=["bounded_uniform"]),
        lambda c: c.update(run=[3, 8, 1]),
        lambda c: c["controllers"].append(["x", "ls"]),
        lambda c: c["controllers"].append({"name": "x", "family": ["ls"]}),
    ])
    def test_rejects_malformed(self, tmp_path, mutate):
        cfg = variant()
        mutate(cfg)
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, cfg))

    def test_threads_is_accepted_only_as_one(self, tmp_path):
        # Configs written for the removed thread pool still load when they
        # ask for the serial loop it fell back to.
        cfg = variant(run={"runs": 3, "T": 8, "seed": 1, "threads": 1})
        assert load_config(write_config(tmp_path, cfg)).runs == 3
        cfg["run"]["threads"] = 2
        with pytest.raises(ConfigError, match="thread pool was removed"):
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

    def test_every_design_error_names_its_controller(self, tmp_path,
                                                     capsys):
        # LS's cheap-control Riccati solve stalls on this ill-conditioned
        # draw; the error says which of the two controllers failed.
        plant = random_reachable_plant(np.random.default_rng(2435), 6,
                                       rho=1.44)
        cfg = variant(plant={"A": plant.A.tolist(),
                             "B": plant.B[:, 0].tolist()},
                      controllers=[{"name": "LS", "family": "ls"},
                                   {"name": "ridge", "family": "ridge",
                                    "r": 10}])
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["design", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("design error: LS: Newton's method"), err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unreachable_plant_exits_3(self, tmp_path):
        # The plant parses fine; unreachability only surfaces once the design
        # step needs the Riccati solution, so this is a design failure.
        cfg = variant(plant={"A": [[1.0, 0.0], [0.0, 1.0]], "B": [1.0, 0.0]})
        path = write_config(tmp_path, cfg)
        assert main(["design", "--config", str(path),
                     "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("command",
                             ["design", "simulate", "montecarlo", "audit"])
    def test_a_plant_whose_powers_overflow_exits_3(self, tmp_path, capfd,
                                                   command):
        # A^1 B overflows.  The SVD of the reachability test used to fail
        # with a LinAlgError after numpy's overflow warnings and a LAPACK
        # message on the C-level stderr, which capfd also reads.
        cfg = json.loads((ROOT / "configs" / "benchmark.json").read_text())
        cfg["plant"]["A"][0][0] = 1e308
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 3
        err = capfd.readouterr().err
        assert err == ("design error: L1L2(i): plant (A, B) overflows: "
                       "A^1 B is not finite\n"), err
        assert not out.exists()

    def test_an_unreachable_plant_names_its_ratio_and_exits_3(self, tmp_path,
                                                              capfd):
        cfg = json.loads((ROOT / "configs" / "benchmark.json").read_text())
        cfg["plant"]["A"][0][0] = 1000
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["design", "--config", str(path), "--out", str(out)]) == 3
        err = capfd.readouterr().err
        assert err == ("design error: L1L2(i): plant (A, B) is not reachable: "
                       "the controllability matrix's singular-value ratio "
                       "5.603e-11 is not above REACHABILITY_RTOL = 1e-10\n"), err
        assert not out.exists()

    @pytest.mark.parametrize("where, value, message", [
        (("controllers", 3, "r"), 1e155,
         "RIDGE: Riccati map step 420 left the float range (defect inf, "
         "||P||_F 1.095e+154)"),
        (("plant", "B", 3), 1e155,
         "L1L2(i): Riccati map step 1 left the float range (defect nan, "
         "||P||_F 2.000e+00)"),
    ], ids=["ridge-r", "B"])
    def test_a_riccati_iterate_past_the_float_range_exits_3(
            self, tmp_path, capfd, where, value, message):
        # The map once ran on with numpy's overflow warnings and their
        # source lines on stderr; with B[3] = 1e155 it ran all its steps on
        # NaN before refusing.
        cfg = json.loads((ROOT / "configs" / "benchmark.json").read_text())
        set_at(cfg, where, value)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["design", "--config", str(path), "--out", str(out)]) == 3
        err = capfd.readouterr().err
        assert err == f"design error: {message}\n", err
        assert not out.exists()

    @pytest.mark.parametrize("where, value, commands, message", [
        (("run", "runs"), 10 ** 30, ("montecarlo", "audit"), "run.runs"),
        (("run", "T"), 10 ** 30, ("simulate", "montecarlo"), "run.T"),
        (("horizon",), 5000, ("design", "simulate", "montecarlo"),
         "horizon: the (N n) x (N n) stage-weight block would take "
         "3.200e+09 bytes"),
    ], ids=["runs", "T", "horizon"])
    def test_a_study_too_large_for_memory_exits_2(self, tmp_path, capfd,
                                                  where, value, commands,
                                                  message):
        # Each of these sizes numpy refuses outright, so an allocation that
        # slipped past the budget would raise at once, not page.
        cfg = json.loads((ROOT / "configs" / "benchmark.json").read_text())
        set_at(cfg, where, value)
        path = write_config(tmp_path, cfg)
        for command in commands:
            out = tmp_path / command
            assert main([command, "--config", str(path),
                         "--out", str(out)]) == 2
            err = capfd.readouterr().err
            assert err.startswith("config error: ") and message in err, err
            assert f"above the budget of {cli.MEMORY_BUDGET} bytes" in err
            assert err.count("\n") == 1, err
            assert not out.exists()

    def test_a_runs_override_too_large_for_memory_names_the_flag(
            self, tmp_path, capfd):
        out = tmp_path / "out"
        assert main(["montecarlo", "--config",
                     str(ROOT / "configs" / "benchmark.json"),
                     "--runs", str(10 ** 30), "--out", str(out)]) == 2
        err = capfd.readouterr().err
        assert err == ("config error: --runs and run.T: the (runs x 5, T + 1) "
                       "rollout arrays of a call group would take 4.040e+33 "
                       f"bytes, above the budget of {cli.MEMORY_BUDGET} "
                       "bytes\n"), err
        assert not out.exists()

    def test_a_horizon_of_1000_is_within_budget_and_exits_3(self, tmp_path,
                                                            capfd):
        cfg = json.loads((ROOT / "configs" / "benchmark.json").read_text())
        cfg["horizon"] = 1000
        cfg["controllers"] = cfg["controllers"][-1:]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["design", "--config", str(path), "--out", str(out)]) == 3
        err = capfd.readouterr().err
        assert err.startswith("design error: LS: G'G is numerically "
                              "singular"), err
        assert not out.exists()

    @pytest.mark.parametrize("override", ["tiny", "wstar"])
    @pytest.mark.parametrize("command",
                             ["design", "simulate", "montecarlo", "audit"])
    def test_non_dominating_w_override_exits_3(self, tmp_path, capsys,
                                               command, override):
        # An l0 weight override must strictly dominate W*; it is checked
        # when the controller is built, before any output.  W* itself fails
        # because the dominance is not strict.
        cfg = variant(controllers=[{"name": "bad", "family": "l0",
                                    "beta": 0.5}])
        if override == "tiny":
            W = [[1e-6, 0.0], [0.0, 1e-6]]
        else:
            loaded = load_config(write_config(tmp_path, cfg))
            W = build_controller(loaded, loaded.controllers[0]).design.Wstar
            W = W.tolist()
        cfg["controllers"][0]["W"] = W
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("design error: bad: W does not strictly dominate")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("controllers[2].W", "nan"),
        ("controllers[2].W", "inf"),
        ("Q", "nan"),
        ("controllers[0].mu", "inf"),
        ("controllers[0].r", "inf"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, key, value):
        # Python's json reads NaN and Infinity; each must stop at the config
        # check, not in the design (a LinAlgError, a silent pass, or exit 3
        # after overflow warnings).
        cfg = json.loads((ROOT / "configs" / "benchmark.json").read_text())
        bad = float(value)
        if key == "Q":
            cfg["Q"] = np.eye(4).tolist()
            cfg["Q"][1][2] = bad
        elif key.endswith(".W"):
            W = np.eye(4).tolist()
            W[0][3] = bad
            cfg["controllers"][2]["W"] = W
        else:
            cfg["controllers"][0][key.rsplit(".", 1)[1]] = bad
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "sparseppc.cli", "design", "--config",
             str(path), "--out", str(out)],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 2
        assert proc.stderr == f"config error: {key} must be finite\n"
        assert not out.exists()


def benchmark_variant():
    """``configs/benchmark.json`` with every number key present: an
    ``epsilon``-form ``l1l2`` entry, a global ``Q`` and an ``l0`` ``W``."""
    cfg = json.loads((ROOT / "configs" / "benchmark.json").read_text())
    cfg["controllers"][1] = {"name": "L1L2(ii)", "family": "l1l2",
                             "mu": 3.3, "epsilon": 2.0}
    cfg["Q"] = np.eye(4).tolist()
    cfg["controllers"][2]["W"] = np.eye(4).tolist()
    cfg["run"] = {"runs": 5, "T": 10, "seed": 0}
    return cfg


# Each config number: where it sits (a matrix key names one of its
# entries), and whether it must have a sign.
NUMBER_KEYS = {
    "plant.A": (("plant", "A", 0, 1), False),
    "plant.B": (("plant", "B", 2), False),
    "Q": (("Q", 1, 2), False),
    "horizon": (("horizon",), True),
    "controllers[0].mu": (("controllers", 0, "mu"), True),
    "controllers[1].epsilon": (("controllers", 1, "epsilon"), True),
    "controllers[0].r": (("controllers", 0, "r"), True),
    "controllers[3].r": (("controllers", 3, "r"), True),
    "controllers[2].beta": (("controllers", 2, "beta"), True),
    "controllers[2].W": (("controllers", 2, "W", 0, 3), False),
    "channel.receptions_between_bursts":
        (("channel", "receptions_between_bursts"), True),
    "run.runs": (("run", "runs"), True),
    "run.T": (("run", "T"), True),
    "run.seed": (("run", "seed"), True),
}
BAD_NUMBERS = {
    "true": True,
    "string": "1",
    "null": None,
    "400-digit": 10 ** 400,
    "nan": float("nan"),
    "infinity": float("inf"),
    "negative": -1,
}


def set_at(cfg, where, value):
    node = cfg
    for step in where[:-1]:
        node = node[step]
    node[where[-1]] = value


def assert_config_error(tmp_path, capsys, cfg, command="montecarlo"):
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    # An exception escaping main would be a traceback from the command.
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:"), err
    assert "Traceback" not in err
    assert not out.exists()
    return err


@pytest.mark.parametrize("key, kind", [
    (key, kind) for key, (_, signed) in NUMBER_KEYS.items()
    for kind in BAD_NUMBERS if signed or kind != "negative"])
def test_bad_config_number_exits_2(tmp_path, capsys, key, kind):
    # Every config number goes through the library's number, integer or
    # matrix check; whatever it refuses is a config error naming the key.
    cfg = benchmark_variant()
    set_at(cfg, NUMBER_KEYS[key][0], BAD_NUMBERS[kind])
    err = assert_config_error(tmp_path, capsys, cfg)
    assert err.startswith(f"config error: {key} "), err


@pytest.mark.parametrize("change", [
    # mu ** 2 overflowed: epsilon = mu^2 N / (4 r) is past the float range.
    lambda c: c["controllers"][0].update(mu=1e308),
    # An r-form entry with a horizon past the float range.
    lambda c: c.update(horizon=10 ** 400),
    lambda c: c["plant"]["A"][0].__setitem__(1, True),
    lambda c: c["run"].update(threads=1.0),
], ids=["mu-squared", "horizon", "true-in-row", "threads-float"])
def test_out_of_range_number_exits_2(tmp_path, capsys, change):
    cfg = benchmark_variant()
    change(cfg)
    assert_config_error(tmp_path, capsys, cfg, command="design")


def test_derived_epsilon_must_be_positive(tmp_path, capsys):
    # mu^2 underflows, so an r-form entry's epsilon = mu^2 N / (4 r) is 0.
    cfg = benchmark_variant()
    cfg["controllers"][0].update(mu=1e-200, r=1)
    err = assert_config_error(tmp_path, capsys, cfg)
    assert err.startswith("config error: controllers[0].epsilon = "
                          "mu^2 N / (4 r) must be positive"), err


def only_l1l2(**weights):
    """``configs/benchmark.json`` with one ``l1l2`` controller, ``X``."""
    cfg = json.loads((ROOT / "configs" / "benchmark.json").read_text())
    cfg["controllers"] = [{"name": "X", "family": "l1l2", **weights}]
    return cfg


@pytest.mark.parametrize("mu, epsilon, message", [
    (3.3, 1e-308, "must be finite"), (1e-200, 1.0, "must be positive"),
], ids=["r-overflows", "r-underflows"])
def test_derived_r_out_of_range_exits_2(tmp_path, capsys, mu, epsilon,
                                        message):
    # An epsilon-form entry's r = mu^2 N / (4 epsilon) past the float range
    # exited 3 naming "r", a key the entry does not have; one that
    # underflowed to 0 was designed at r = 0.
    cfg = only_l1l2(mu=mu, epsilon=epsilon)
    err = assert_config_error(tmp_path, capsys, cfg, command="design")
    assert err.startswith("config error: controllers[0].r = mu^2 N / "
                          f"(4 epsilon) {message}"), err
    assert err.count("\n") == 1, err


# One l1l2 weight, given in either form with mu = 3.3 at N = 10, and
# whether the design takes it.
L1L2_WEIGHTS = {"in-range": (2.0, True), "derived-overflows": (1e-308, False),
                "derived-underflows": (1e308, False), "zero": (0.0, False),
                "negative": (-1.0, False)}


@pytest.mark.parametrize("value, taken", L1L2_WEIGHTS.values(),
                         ids=L1L2_WEIGHTS)
@pytest.mark.parametrize("form", ["epsilon", "r"])
def test_config_and_library_refuse_the_same_l1l2_weights(tmp_path, capsys,
                                                         form, value, taken):
    # The config exits 2 exactly when design_l1l2 raises, naming the same
    # weight under the entry's name.
    cfg = only_l1l2(mu=3.3, **{form: value})
    out = tmp_path / "out"
    code = main(["design", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out)])
    err = capsys.readouterr().err
    plant = PlantModel(**cfg["plant"])
    if taken:
        design_l1l2(plant, np.eye(4), 3.3, cfg["horizon"], **{form: value})
        assert code == 0, err
        return
    with pytest.raises(ParameterError) as exc:
        design_l1l2(plant, np.eye(4), 3.3, cfg["horizon"], **{form: value})
    assert code == 2
    assert err == f"config error: controllers[0].{exc.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, Q, message", [
    ("Q", np.triu(np.ones((4, 4))), "must be symmetric"),
    ("controllers[3].Q", np.zeros((4, 4)), "is not positive definite"),
], ids=["asymmetric", "zero"])
def test_q_that_is_not_spd_exits_2(tmp_path, capsys, key, Q, message):
    # The library's SPD check, run under the key's name when the config
    # loads rather than as a design error naming no key.
    cfg = json.loads((ROOT / "configs" / "benchmark.json").read_text())
    if key == "Q":
        cfg["Q"] = Q.tolist()
    else:
        cfg["controllers"][3]["Q"] = Q.tolist()
    err = assert_config_error(tmp_path, capsys, cfg)
    assert err.startswith(f"config error: {key} {message}"), err


@pytest.mark.parametrize("content", [
    json.dumps(variant()).replace('"T": 8', '"T": 1' + "0" * 5000).encode(),
    b"\xff\xfe{}",
], ids=["5000-digit", "not-utf-8"])
def test_unreadable_config_text_exits_2(tmp_path, capsys, content):
    # Python's json refuses an integer of more than 4300 digits, and
    # read_text a file that is not UTF-8, with a plain ValueError rather
    # than a JSONDecodeError.
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert main(["design", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, out, made_dir", [
    ("design", "notes.txt", None),                  # an existing file
    ("montecarlo", "notes.txt/out", None),          # a path under a file
    ("simulate", "out", "out/simulate.json"),       # an output name taken
    ("montecarlo", "out", "out/avg_sparsity.csv"),  # its second name taken
], ids=["existing-file", "under-a-file", "output-is-a-directory",
        "second-output-is-a-directory"])
def test_bad_out_exits_2(tmp_path, capsys, command, out, made_dir):
    # A path the output cannot be written to is a bad flag: one line that
    # names it, no traceback, and nothing written, created or reported, not
    # even the outputs whose own names are free.
    path = write_config(tmp_path, variant())
    (tmp_path / "notes.txt").write_text("kept\n")
    if made_dir:
        (tmp_path / made_dir).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / out
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err.startswith(f"config error: --out {out}: "), err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "notes.txt").read_text() == "kept\n"


@pytest.mark.parametrize("command", ["simulate", "montecarlo"])
def test_horizon_one_is_a_config_error_for_dropout_traces(tmp_path, capsys,
                                                          command):
    # A bounded-uniform trace needs N >= 2; design and audit take N = 1.
    cfg = variant(horizon=1)
    err = assert_config_error(tmp_path, capsys, cfg, command=command)
    assert err == "config error: horizon must be an integer >= 2, got 1\n"
    path = write_config(tmp_path, cfg)
    for other in ("design", "audit"):
        assert main([other, "--config", str(path), "--out",
                     str(tmp_path / other)]) == 0


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

    @pytest.mark.parametrize("family", ["l1l2", "l0", "ridge", "ls"])
    def test_every_family_reports_its_own_design(self, family):
        # One design per controller: the law comes from it, and the report's
        # Riccati residual is the solve's own, not a second evaluation.
        cfg = load_config(ROOT / "configs" / "benchmark.json")
        for spec in cfg.controllers:
            if spec["family"] != family:
                continue
            built = build_controller(cfg, spec)
            design = built.design
            assert design is not None
            assert built.designer is design.law
            assert built.designer.family == family
            assert built.report["residuals"]["dare_fixed_point"] == (
                fixed_point_residual(cfg.plant, design.Q, design.r, design.P))

    def test_cond_g_is_reported_for_every_controller(self, tmp_path):
        # cond(G) = s[0] / s[-1] from the horizon matrices' one SVD.
        path = ROOT / "configs" / "benchmark.json"
        assert main(["design", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "design_report.json").read_text())
        cfg = load_config(path)
        assert len(report) == len(cfg.controllers)
        for entry, spec in zip(report, cfg.controllers):
            hm = build_controller(cfg, spec).design.hm
            assert entry["cond_G"] == pytest.approx(np.linalg.cond(hm.G),
                                                    rel=1e-10)

    def test_dominating_w_override_is_used(self, tmp_path):
        cfg = variant(controllers=[{"name": "greedy", "family": "l0",
                                    "beta": 0.5}])
        loaded = load_config(write_config(tmp_path, cfg))
        wstar = build_controller(loaded, loaded.controllers[0]).design.Wstar
        cfg["controllers"][0]["W"] = (wstar + 0.1 * np.eye(2)).tolist()
        path = write_config(tmp_path, cfg)
        assert main(["design", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        entry = json.loads((tmp_path / "design_report.json").read_text())[0]
        assert entry["W_overridden"]
        assert entry["residuals"]["loewner_margin"] == pytest.approx(0.1)


def count_calls(monkeypatch, module, name):
    """Record each call of ``module.name`` in the returned list, wherever a
    ``sparseppc`` module binds that function."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for key, bound in list(sys.modules.items()):
        if ((key == "sparseppc" or key.startswith("sparseppc."))
                and getattr(bound, name, None) is original):
            monkeypatch.setattr(bound, name, counted)
    return calls


class TestOneSolvePerRegulator:
    # A plant object keeps the regulators designed on it, so a config's
    # controllers share each distinct (Q, N, r); a fresh load_config builds
    # a fresh plant and solves again.
    BENCH = ROOT / "configs" / "benchmark.json"

    def build(self, cfg=None):
        cfg = cfg or load_config(self.BENCH)
        return {spec["name"]: build_controller(cfg, spec)
                for spec in cfg.controllers}

    def test_each_input_is_checked_once(self, monkeypatch):
        # Q, the Riccati P and reachability once per distinct regulator; the
        # five controllers made 20 SPD checks and 10 reachability tests when
        # each design re-checked them in every step.
        spd = count_calls(monkeypatch, plant, "require_spd")
        reachability = count_calls(monkeypatch, plant, "_reachability")
        self.build()
        assert (len(spd), len(reachability)) == (4, 2)

    def test_each_load_config_solves_each_regulator_once(self, monkeypatch):
        solves = count_calls(monkeypatch, riccati, "solve_dare")
        built = self.build()
        assert len(solves) == 2                  # r = 4.1042 and r = 0
        assert built["RIDGE"].design.hm is built["L1L2(i)"].design.hm
        assert built["LS"].design.hm is built["OMP"].design.hm
        assert built["LS"].design.hm is not built["RIDGE"].design.hm
        again = self.build()
        assert len(solves) == 4
        assert again["RIDGE"].design.hm is not built["RIDGE"].design.hm

    def test_l1l2_controllers_share_the_regulator_not_the_law(self):
        built = self.build()
        first, second = built["L1L2(i)"], built["L1L2(ii)"]
        assert first.design.hm is second.design.hm
        assert first.design.P is second.design.P
        assert first.designer is not second.designer
        assert (first.designer.mu, second.designer.mu) == (10.7167, 3.3)
        assert first.report["R"] != second.report["R"]

    def test_an_r_form_l1l2_is_designed_at_its_own_r(self, tmp_path,
                                                     monkeypatch):
        # r -> epsilon = mu^2 N / (4 r) -> r is inexact for these numbers
        # (3.9252999999999996), which cost the ridge a second solve.
        payload = json.loads(self.BENCH.read_text())
        payload["controllers"] = [
            {"name": "lasso", "family": "l1l2", "mu": 14.7283, "r": 3.9253},
            {"name": "ridge", "family": "ridge", "r": 3.9253}]
        cfg = load_config(write_config(tmp_path, payload))
        solves = count_calls(monkeypatch, riccati, "solve_dare")
        built = self.build(cfg)
        assert len(solves) == 1
        assert [c.report["r"] for c in built.values()] == [3.9253, 3.9253]
        assert built["lasso"].report["epsilon"] == (
            14.7283 * 14.7283 * 10 / (4.0 * 3.9253))

    def test_own_q_gets_its_own_solve(self, tmp_path, monkeypatch):
        payload = json.loads(self.BENCH.read_text())
        payload["controllers"][3]["Q"] = (2.0 * np.eye(4)).tolist()
        cfg = load_config(write_config(tmp_path, payload))
        solves = count_calls(monkeypatch, riccati, "solve_dare")
        built = self.build(cfg)
        assert len(solves) == 3
        ridge, lasso = built["RIDGE"].design, built["L1L2(i)"].design
        assert ridge.r == lasso.r and ridge.hm is not lasso.hm
        np.testing.assert_array_equal(ridge.Q, 2.0 * np.eye(4))
        assert not np.allclose(ridge.P, lasso.P)


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
        assert set(meta["versions"]) == {"sparseppc", "numpy"}

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

    def test_benchmark_study_keeps_its_sparsity(self, tmp_path):
        # The full 500-run study's avg_sparsity.csv (seed 0) is pinned byte
        # for byte: a solver or design change may move avg_norm in its last
        # digits, but not one packet's support.
        assert main(["montecarlo", "--config",
                     str(ROOT / "configs" / "benchmark.json"),
                     "--out", str(tmp_path)]) == 0
        expected = ROOT / "tests" / "fixtures" / "benchmark_avg_sparsity.csv"
        assert ((tmp_path / "avg_sparsity.csv").read_bytes()
                == expected.read_bytes())

    def test_long_horizon_study_keeps_its_sparsity(self, tmp_path):
        # The same pin at N = 30.  Its avg_norm is not pinned tightly: up to
        # 29 open-loop steps on a plant of spectral radius 1.53 amplify a
        # rounding-level change to a region's map into percent-level norms.
        assert main(["montecarlo", "--config",
                     str(ROOT / "configs" / "long_horizon.json"),
                     "--out", str(tmp_path)]) == 0
        expected = (ROOT / "tests" / "fixtures"
                    / "long_horizon_avg_sparsity.csv")
        assert ((tmp_path / "avg_sparsity.csv").read_bytes()
                == expected.read_bytes())

    def test_benchmark_study_keeps_its_norms_within_tolerance(self, tmp_path):
        # The full 500-run study's avg_norm.csv (seed 0) is pinned to 1e-6
        # relative per finite entry, with the same NaN pattern.
        assert main(["montecarlo", "--config",
                     str(ROOT / "configs" / "benchmark.json"),
                     "--out", str(tmp_path)]) == 0
        got = read_csv(tmp_path / "avg_norm.csv")
        expected = read_csv(ROOT / "tests" / "fixtures" / "benchmark_avg_norm.csv")
        assert got[0] == expected[0]
        np.testing.assert_array_equal(np.isnan(got[1]), np.isnan(expected[1]))
        np.testing.assert_allclose(got[1], expected[1], rtol=1e-6, atol=0)

    def test_runs_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, variant())
        assert main(["montecarlo", "--config", str(path),
                     "--out", str(tmp_path), "--runs", "1"]) == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["runs"] == 1

    def test_flags_do_not_leak_into_the_next_call(self, tmp_path):
        # The parser is built once per process; a flag given to one call
        # must not become the next call's default.
        path = write_config(tmp_path, variant())
        for argv in (["--seed", "5", "--runs", "1"], []):
            assert main(["montecarlo", "--config", str(path),
                         "--out", str(tmp_path)] + argv) == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["seed"] == 1 and meta["runs"] == 3
        assert cli._parser() is cli._parser()


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

    def test_corrupted_weight_fails_with_exit_4(self, tmp_path, capsys,
                                                monkeypatch):
        # A weight far below the least-squares weight cannot be met.
        corrupt_omp_weight(monkeypatch)
        cfg = variant(controllers=[{"name": "bad", "family": "l0",
                                    "beta": 0.5}])
        path = write_config(tmp_path, cfg)
        assert main(["audit", "--config", str(path), "--out", str(tmp_path),
                     "--runs", "4"]) == 4
        payload = json.loads((tmp_path / "audit.json").read_text())
        assert payload["failures_total"] > 0
        entry = payload["controllers"][0]["inequalities"][0]
        assert entry["failures"] > 0
        assert entry["errors"]  # carries the solver's explanation
        assert "FAILURES" in capsys.readouterr().out
        # The batch fails as a whole; every draw is still counted once, and
        # the messages are capped.  No draw leaves a slack, so the worst is
        # null.
        for entry in payload["controllers"][0]["inequalities"]:
            assert entry["failures"] == entry["draws"] == 4
            assert 1 <= len(entry["errors"]) <= 3
            assert entry["worst_slack"] is None

    def test_an_inexact_l1l2_packet_fails_its_own_draw(self, tmp_path,
                                                      monkeypatch):
        # Label the packets of states with a positive first coordinate
        # inexact: the batch raises, and each such draw, and only it, fails
        # with the value function's message.
        solve = LassoLaw._solve

        def inexact(self, X):
            U, steps, certificate = solve(self, X)
            certificate["converged"] = certificate["converged"] & (X[:, 0] <= 0)
            return U, steps, certificate

        monkeypatch.setattr(LassoLaw, "_solve", inexact)
        path = write_config(tmp_path, variant(controllers=BASE["controllers"][:1]))
        assert main(["audit", "--config", str(path), "--out", str(tmp_path),
                     "--runs", "6"]) == 4
        rng = _generator(BASE["run"]["seed"])
        first = [(rng.standard_normal(2), rng.integers(1, 5))[0]
                 for _ in range(6)]
        expected = sum(x[0] > 0 for x in first)
        assert 0 < expected < 6
        entry = json.loads((tmp_path / "audit.json").read_text())[
            "controllers"][0]["inequalities"][0]
        assert entry["name"] == "value_sandwich"
        assert entry["failures"] == expected
        assert len(entry["errors"]) == min(expected, 3)
        assert all(e.startswith("the l1l2 packet is not exact at the "
                                "value-function state (kkt residual ")
                   for e in entry["errors"])
        assert entry["worst_slack"] >= 0.0

    def test_a_failure_of_the_batch_alone_counts_on_draw_0(self, tmp_path,
                                                           monkeypatch):
        # The residual audit refuses every batch of more than one draw and
        # passes each draw alone.  Such a failure must not pass silently: it
        # counts once, on draw 0.
        audit = cli.audit_residual_l0

        def batch_shy(design, X):
            if len(X) > 1:
                raise SolverError("refused as a batch")
            return audit(design, X)

        monkeypatch.setattr(cli, "audit_residual_l0", batch_shy)
        path = ROOT / "configs" / "benchmark.json"
        assert main(["audit", "--config", str(path), "--out", str(tmp_path),
                     "--runs", "5"]) == 4
        payload = json.loads((tmp_path / "audit.json").read_text())
        assert payload["failures_total"] == 1
        checks = {(c["name"], i["name"]): i for c in payload["controllers"]
                  for i in c["inequalities"]}
        assert checks["OMP", "residual_bound"]["failures"] == 1
        assert checks["OMP", "residual_bound"]["errors"] == [
            "refused as a batch"]
        assert checks["OMP", "residual_bound"]["worst_slack"] >= 0.0

    def test_each_check_solves_its_draws_in_one_batch(self, tmp_path,
                                                      monkeypatch):
        # Guard against per-draw solving: each check makes one law solve
        # over all of its draws, and the l1l2 contraction and the residual
        # bound one more (the end states; the least-squares packets).
        solves = []
        solve = PacketLaw.solve

        def counted(self, X):
            solves.append(len(X))
            return solve(self, X)

        monkeypatch.setattr(PacketLaw, "solve", counted)
        per_check = {}
        for name in ("audit_value_sandwich", "audit_contraction_l1l2",
                     "audit_residual_l0", "audit_contraction_l0"):
            def counting(*args, _audit=getattr(cli, name), _name=name):
                before = len(solves)
                try:
                    return _audit(*args)
                finally:
                    per_check.setdefault(_name, []).append(len(solves) - before)

            monkeypatch.setattr(cli, name, counting)
        path = write_config(tmp_path, variant())
        assert main(["audit", "--config", str(path), "--out", str(tmp_path),
                     "--runs", "7"]) == 0
        assert sorted(per_check) == ["audit_contraction_l0",
                                     "audit_contraction_l1l2",
                                     "audit_residual_l0",
                                     "audit_value_sandwich"]
        for name, calls in per_check.items():
            assert len(calls) == 1 and 1 <= calls[0] <= 2, (name, calls)
        assert solves and all(rows == 7 for rows in solves)


@pytest.mark.parametrize("horizon", [21, 30])
def test_long_horizon_passes_every_command(tmp_path, capsys, horizon):
    # The benchmark plant at a long horizon, where cond(G) reaches 4e5: W*
    # formed through G'G lost the digits of its P - Q identity from N = 21
    # on, and the l0 design refused itself.
    cfg = json.loads((ROOT / "configs" / "benchmark.json").read_text())
    cfg["horizon"] = horizon
    path = write_config(tmp_path, cfg)
    for command in (["design"], ["audit", "--runs", "200"], ["simulate"],
                    ["montecarlo", "--runs", "100"]):
        out = tmp_path / command[0]
        code = main([*command, "--config", str(path), "--out", str(out)])
        assert code == 0, (command, capsys.readouterr())
    report = json.loads(
        (tmp_path / "design" / "design_report.json").read_text())
    assert [e["name"] for e in report] == [
        c["name"] for c in cfg["controllers"]]
    (l0,) = [e for e in report if e["family"] == "l0"]
    limit = WSTAR_IDENTITY_RTOL * (1.0 + np.linalg.norm(l0["P"]))
    assert l0["residuals"]["wstar_identity"] <= limit


def test_long_horizon_config_is_the_benchmark_at_n_30():
    bench = json.loads((ROOT / "configs" / "benchmark.json").read_text())
    long = json.loads((ROOT / "configs" / "long_horizon.json").read_text())
    assert long == {**bench, "horizon": 30}


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
    ("montecarlo", "--seed", "-1"),
    ("simulate", "--seed", "-1"),
    ("simulate", "--run-index", "-1"),
    ("simulate", "--run-index", str(2 ** 64)),
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


@pytest.mark.parametrize("command, flag, value", [
    ("design", "--runs", "5"),
    ("design", "--seed", "1"),
    ("simulate", "--runs", "7"),
    ("montecarlo", "--threads", "2"),
    ("montecarlo", "--threads", "0"),
    ("montecarlo", "--run-index", "1"),
    ("audit", "--run-index", "1"),
])
def test_unused_flag_is_a_usage_error(tmp_path, command, flag, value):
    # Each command registers only the overrides it uses, so a flag it would
    # ignore is rejected by the argument parser before any work.
    path = write_config(tmp_path, variant())
    out = tmp_path / "out"
    proc = run_module(command, "--config", str(path), "--out", str(out),
                      flag, value)
    assert proc.returncode == 2, proc.stderr
    assert flag in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "montecarlo"])
def test_failed_run_exits_as_its_cause(tmp_path, capsys, monkeypatch,
                                       command):
    # A weight far below the least-squares weight makes OMP infeasible:
    # a design error in a single simulation and in a Monte Carlo run alike.
    # The outputs are written only once a command has finished, so the
    # failed one does not even make --out.
    corrupt_omp_weight(monkeypatch)
    cfg = variant(controllers=[{"name": "bad", "family": "l0", "beta": 0.5}])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 3
    assert not out.exists()
    stderr = capsys.readouterr().err
    assert stderr.startswith("design error:")
    assert "Traceback" not in stderr
    if command == "montecarlo":
        assert "run 0 failed" in stderr
        assert "spawn key (0,)" in stderr


@pytest.mark.parametrize("command", ["simulate", "montecarlo"])
def test_a_burst_gap_of_t_or_more_runs_as_t(tmp_path, command):
    # Every gap of at least T draws one burst per run and loses no step
    # before T.  A gap of 2**63 used to raise OverflowError in the flags.
    outputs = {}
    runs = ["--runs", "5"] if command == "montecarlo" else []
    for gap in (8, 2 ** 63):
        cfg = variant(channel={"model": "bounded_uniform",
                               "receptions_between_bursts": gap})
        assert cfg["run"]["T"] == 8
        path = write_config(tmp_path, cfg, f"gap-{gap}.json")
        out = tmp_path / f"out-{gap}"
        assert main([command, "--config", str(path), "--out", str(out),
                     *runs]) == 0
        files = {f.name: f.read_text() for f in out.iterdir()}
        if command == "montecarlo":
            meta = json.loads(files.pop("meta.json"))
            assert meta["runs"] == 5
            del meta["wall_time_s"]
            files["meta.json"] = meta
        outputs[gap] = files
    assert outputs[8] == outputs[2 ** 63]


def study_runs(path, runs, run_index):
    """``(name, states, dropout flags)`` of run ``run_index`` of the
    config's study of ``runs`` runs, rolled out in one batch as
    ``monte_carlo`` rolls them out."""
    cfg = load_config(path)
    X0, D = netsim._conditions(cfg.plant, cfg.horizon, cfg.T, cfg.seed,
                               np.arange(runs), cfg.channel_gap)
    laws = [build_controller(cfg, spec).designer for spec in cfg.controllers]
    for group in solvers.call_groups(laws):
        states = netsim._rollout(cfg.plant, [laws[i] for i in group], X0,
                                 D)[0]
        for k, i in enumerate(group):
            yield (cfg.controllers[i]["name"], states[k * runs + run_index],
                   D[run_index])


def test_simulate_replays_monte_carlo_run_zero(tmp_path):
    path = write_config(tmp_path, variant())
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "simulate.json").read_text())

    for name, states, dropped in study_runs(path, runs=1, run_index=0):
        assert payload["dropped"] == dropped.tolist()
        np.testing.assert_array_equal(
            np.array(payload["controllers"][name]["states"]), states)


@pytest.mark.parametrize("run_index", [0, 3])
def test_simulate_replays_any_monte_carlo_run(tmp_path, run_index):
    path = write_config(tmp_path, variant())
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path),
                 "--run-index", str(run_index)]) == 0
    payload = json.loads((tmp_path / "simulate.json").read_text())
    assert payload["run_index"] == run_index

    for name, states, dropped in study_runs(path, run_index + 1, run_index):
        assert payload["dropped"] == dropped.tolist()
        np.testing.assert_array_equal(
            np.array(payload["controllers"][name]["states"]), states)
