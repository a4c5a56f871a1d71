"""Command-line front end: design, simulate, montecarlo, and audit.

A single JSON config describes the plant, the horizon, the controller list,
the dropout channel, and the run parameters; see the README for the schema.
Exit codes: 0 success, 2 config error, 3 design failure, 4 audit failure,
5 simulation protocol error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .design import (LinearDesign, audit_contraction_l0,
                     audit_contraction_l1l2, audit_residual_l0,
                     audit_value_sandwich, design_l0, design_l1l2,
                     design_linear)
from .errors import (ConfigError, DesignError, ParameterError, ProtocolError,
                     SimulationRunError, SolverError, SparsePpcError, each_row)
from .netsim import _generator, monte_carlo, run_closed_loop, run_conditions
from .plant import PlantModel, _finite, _integer, _positive, _square

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DESIGN = 3
EXIT_AUDIT = 4
EXIT_PROTOCOL = 5

FAMILIES = ("l1l2", "l0", "ridge", "ls")


# ---------------------------------------------------------------------------
# Config parsing


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


@contextmanager
def _config_checks(section: str = ""):
    """Raise the ParameterError of a library check as a ConfigError; a
    ``section`` such as ``"plant."`` prefixes the argument it names."""
    try:
        yield
    except ParameterError as exc:
        raise ConfigError(section + str(exc)) from exc


def _no_bools(value, name: str):
    # JSON true and false would reach the numpy checks as 1 and 0.
    _require(not isinstance(value, bool),
             f"{name} entries must be numbers, got {value!r}")
    for entry in value if isinstance(value, list) else ():
        _no_bools(entry, name)
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    plant: PlantModel
    horizon: int
    Q: np.ndarray
    controllers: tuple
    channel_gap: int
    runs: int
    T: int
    seed: int


@_config_checks()
def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.  Raises ConfigError."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        # Bad JSON, a file that is not UTF-8, or an integer past Python's
        # digit limit for int-to-string conversion.
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "top level of the config must be an object")

    unknown = set(raw) - {"plant", "horizon", "Q", "controllers", "channel", "run"}
    _require(not unknown, f"unknown top-level config keys: {sorted(unknown)}")
    for key in ("plant", "horizon", "controllers"):
        _require(key in raw, f"config is missing required key '{key}'")

    plant_raw = raw["plant"]
    _require(isinstance(plant_raw, dict) and {"A", "B"} <= set(plant_raw),
             "plant must be an object with keys 'A' and 'B'")
    A, B = (_no_bools(plant_raw[key], f"plant.{key}") for key in "AB")
    with _config_checks("plant."):
        plant = PlantModel(A=A, B=B)
    n = plant.n

    horizon = _integer(raw["horizon"], "horizon", 1)

    def weight(value, name):
        return _square(_no_bools(value, name), n, name)

    Q = weight(raw["Q"], "Q") if "Q" in raw else np.eye(n)

    ctrl_raw = raw["controllers"]
    _require(isinstance(ctrl_raw, list) and ctrl_raw,
             "controllers must be a non-empty list")
    names = set()
    controllers = []
    for idx, item in enumerate(ctrl_raw):
        where = f"controllers[{idx}]"
        _require(isinstance(item, dict), f"{where} must be an object")
        _require("name" in item and "family" in item,
                 f"{where} needs 'name' and 'family'")
        name = item["name"]
        _require(isinstance(name, str) and name and "," not in name
                 and "\n" not in name,
                 f"{where}.name must be a non-empty string without commas")
        _require(name not in names, f"duplicate controller name {name!r}")
        names.add(name)
        family = item["family"]
        _require(family in FAMILIES,
                 f"{where}.family must be one of {FAMILIES}, got {family!r}")

        allowed = {"name", "family", "Q"}
        spec: dict = {"name": name, "family": family}
        if "Q" in item:
            spec["Q"] = weight(item["Q"], f"{where}.Q")
        if family == "l1l2":
            allowed |= {"mu", "epsilon", "r"}
            _require("mu" in item, f"{where} (l1l2) needs 'mu'")
            mu = spec["mu"] = _positive(item["mu"], f"{where}.mu")
            has_eps, has_r = "epsilon" in item, "r" in item
            _require(has_eps != has_r,
                     f"{where} (l1l2) needs exactly one of 'epsilon' or 'r'")
            if has_eps:
                spec["epsilon"] = _positive(item["epsilon"], f"{where}.epsilon")
            else:
                r = _positive(item["r"], f"{where}.r")
                spec["epsilon"] = _finite(mu * mu * horizon / (4.0 * r),
                                          f"{where}.epsilon = mu^2 N / (4 r)")
        elif family == "l0":
            allowed |= {"beta", "W"}
            _require("beta" in item, f"{where} (l0) needs 'beta'")
            spec["beta"] = _finite(item["beta"], f"{where}.beta")
            _require(0.0 < spec["beta"] < 1.0,
                     f"{where}.beta must lie strictly in (0, 1)")
            if "W" in item:
                spec["W"] = weight(item["W"], f"{where}.W")
        elif family == "ridge":
            allowed |= {"r"}
            _require("r" in item, f"{where} (ridge) needs 'r'")
            spec["r"] = _positive(item["r"], f"{where}.r")
        extra = set(item) - allowed
        _require(not extra, f"{where} has unknown keys {sorted(extra)}")
        controllers.append(spec)

    channel_gap = 1
    if "channel" in raw:
        chan = raw["channel"]
        _require(isinstance(chan, dict), "channel must be an object")
        _require(set(chan) <= {"model", "receptions_between_bursts"},
                 "channel accepts only 'model' and 'receptions_between_bursts'")
        model = chan.get("model", "bounded_uniform")
        _require(model == "bounded_uniform",
                 f"unknown channel model {model!r}; only 'bounded_uniform' is supported")
        if "receptions_between_bursts" in chan:
            channel_gap = _integer(chan["receptions_between_bursts"],
                                   "channel.receptions_between_bursts", 1)

    runs, T, seed = 500, 100, 0
    if "run" in raw:
        run = raw["run"]
        _require(isinstance(run, dict), "run must be an object")
        _require(set(run) <= {"runs", "T", "seed", "threads"},
                 "run accepts only 'runs', 'T', 'seed', 'threads'")
        if "runs" in run:
            runs = _integer(run["runs"], "run.runs", 1)
        if "T" in run:
            T = _integer(run["T"], "run.T", 1)
        if "seed" in run:
            seed = _integer(run["seed"], "run.seed", 0)
        # Older configs may still carry the removed thread-pool size.
        threads = run.get("threads", 1)
        _require(type(threads) is int and threads == 1,
                 "run.threads must be 1: the Monte Carlo thread pool was "
                 f"removed, got {threads!r}")

    return ExperimentConfig(plant=plant, horizon=horizon, Q=Q,
                            controllers=tuple(controllers),
                            channel_gap=channel_gap, runs=runs, T=T, seed=seed)


# ---------------------------------------------------------------------------
# Controller construction


@dataclass
class BuiltController:
    name: str
    designer: object             # design.law, which names its family
    report: dict
    design: LinearDesign         # an L1L2Design or L0Design for those families


def _listify(M) -> list | float:
    return np.asarray(M, dtype=float).tolist()


# The design fields each family reports after its regulator and residuals.
REPORTED = {"l1l2": ("mu", "epsilon", "a1", "a2", "rho", "R", "Wstar"),
            "l0": ("beta", "c1", "rho", "c", "Eps", "W", "Wstar"),
            "ridge": ("Wstar",), "ls": ("Wstar",)}


def build_controller(cfg: ExperimentConfig, spec: dict) -> BuiltController:
    """Design one controller from its validated config entry and report it."""
    plant, N = cfg.plant, cfg.horizon
    Q = spec.get("Q", cfg.Q)
    name, family = spec["name"], spec["family"]

    if family == "l1l2":
        design = design_l1l2(plant, Q, spec["mu"], N, spec["epsilon"])
    elif family == "l0":
        try:
            design = design_l0(plant, Q, N, spec["beta"], W=spec.get("W"))
        except DesignError as exc:
            raise DesignError(f"{name}: {exc}") from exc
    else:
        # The quadratic baselines use the regulator at their own input
        # weight (zero for plain least squares).
        design = design_linear(plant, Q, N, spec.get("r", 0.0))

    P, K, r = design.P, design.K, design.r
    closed = plant.A + plant.B @ K
    report = {"r": r, "P": _listify(P), "K": _listify(K), "residuals": {
        "dare_fixed_point": design.residual,
        "closed_loop_identity": float(np.linalg.norm(
            closed.T @ P @ closed - P + design.Q + r * (K.T @ K), "fro"))}}
    report.update((key, _listify(getattr(design, key)))
                  for key in REPORTED[family])
    if family == "l0":
        report["W_overridden"] = "W" in spec
        report["residuals"].update(wstar_identity=design.wstar_defect,
                                   loewner_margin=design.loewner_margin)
    return BuiltController(name, design.law, report, design)


def _build_all(cfg: ExperimentConfig) -> list:
    return [build_controller(cfg, spec) for spec in cfg.controllers]


# ---------------------------------------------------------------------------
# Output helpers


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, steps: np.ndarray, series: dict):
    names = list(series)
    lines = ["k," + ",".join(names)]
    for i, k in enumerate(steps):
        lines.append(str(int(k)) + "," +
                     ",".join(f"{series[name][i]:.17g}" for name in names))
    path.write_text("\n".join(lines) + "\n")


def _sanitize(obj):
    """Replace NaN/inf with None so the JSON stays strictly valid."""
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _write_json(path: Path, payload):
    path.write_text(json.dumps(_sanitize(payload), indent=2, allow_nan=False)
                    + "\n")


def _meta(command: str, cfg: ExperimentConfig, wall_time: float) -> dict:
    return {
        "command": command,
        "seed": cfg.seed,
        "runs": cfg.runs,
        "T": cfg.T,
        "horizon": cfg.horizon,
        "controllers": [spec["name"] for spec in cfg.controllers],
        "versions": {"sparseppc": __version__, "numpy": np.__version__},
        "wall_time_s": wall_time,
    }


# ---------------------------------------------------------------------------
# Commands


def cmd_design(cfg: ExperimentConfig, args) -> int:
    built = _build_all(cfg)
    out = _out_dir(args)
    reports = []
    for ctrl in built:
        entry = {"name": ctrl.name, "family": ctrl.designer.family,
                 "horizon": cfg.horizon}
        entry.update(ctrl.report)
        reports.append(entry)
        extras = [f"{key}={ctrl.report[key]:.6g}"
                  for key in ("rho", "R", "c1", "c") if key in ctrl.report]
        print(f"designed {ctrl.name} ({ctrl.designer.family})"
              + (": " + ", ".join(extras) if extras else ""))
    _write_json(out / "design_report.json", reports)
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    built = _build_all(cfg)
    out = _out_dir(args)

    # A replay of one Monte Carlo run of a study with the same seed.
    x0, trace = run_conditions(cfg.plant, cfg.horizon, cfg.T, cfg.seed,
                               args.run_index, cfg.channel_gap)
    payload = {"seed": cfg.seed, "run_index": args.run_index, "T": cfg.T,
               "dropped": [bool(v) for v in trace.d], "controllers": {}}
    for ctrl in built:
        sim = run_closed_loop(cfg.plant, ctrl.designer, trace, x0, cfg.T)
        payload["controllers"][ctrl.name] = {
            key: _listify(getattr(sim, key))
            for key in ("states", "inputs", "norms", "sparsity")}
    _write_json(out / "simulate.json", payload)
    print(f"simulated {cfg.T} steps for {len(built)} controller(s) "
          f"(seed {cfg.seed}, run {args.run_index})")
    return EXIT_OK


def cmd_montecarlo(cfg: ExperimentConfig, args) -> int:
    built = _build_all(cfg)
    designers = {ctrl.name: ctrl.designer for ctrl in built}
    out = _out_dir(args)

    start = time.perf_counter()
    result = monte_carlo(cfg.plant, designers, cfg.horizon, cfg.runs,
                         T=cfg.T, seed=cfg.seed,
                         receptions_between_bursts=cfg.channel_gap)
    wall = time.perf_counter() - start

    _write_csv(out / "avg_norm.csv", result.steps, result.avg_norm)
    _write_csv(out / "avg_sparsity.csv", result.steps, result.avg_sparsity)
    _write_json(out / "meta.json", _meta("montecarlo", cfg, wall))
    for name in designers:
        print(f"{name}: avg ||x(T-1)|| = {result.avg_norm[name][-1]:.6g}")
    return EXIT_OK


AUDITED = ("l1l2", "l0")


def _checks(family: str) -> tuple:
    """The checks of an audited family, in the order they draw their states:
    ``(name, batched audit, whether it takes the dropout counts)``.

    The table is built on each call, so an audit function wrapped by name
    in this module (as ``perfbench``'s tracer does) is the one that runs.
    """
    if family == "l1l2":
        return (("value_sandwich", audit_value_sandwich, False),
                ("contraction", audit_contraction_l1l2, True))
    return (("residual_bound", audit_residual_l0, False),
            ("contraction", audit_contraction_l0, True))


def _audit_check(audit, design, *draws: np.ndarray) -> tuple:
    """``(failures, worst slack, up to 3 error messages)`` of one check.

    ``draws`` are the audit's per-draw arguments after the design, the
    states and, for a contraction, the dropout counts.  All draws go
    through one batched call; when a solver check fails in it, each draw is
    audited alone, so every failing draw counts once.
    """
    def call(rows):
        return audit(design, *(arg[rows] for arg in draws))

    caught = (DesignError, SolverError)
    try:
        records, errors = [call(slice(None))], []
    except caught:
        records, errors = [], []
        for _, record, exc in each_row(call, len(draws[0]), caught):
            if exc is None:
                records.append(record)
            else:
                errors.append(str(exc))
    failures = len(errors) + sum(int((~r.passed).sum()) for r in records)
    worst = min((float(r.slack.min()) for r in records), default=np.inf)
    return failures, worst, errors[:3]


def cmd_audit(cfg: ExperimentConfig, args) -> int:
    draws = cfg.runs
    designs = {spec["name"]: build_controller(cfg, spec).design
               for spec in cfg.controllers if spec["family"] in AUDITED}
    out = _out_dir(args)

    summary = {"seed": cfg.seed, "draws": draws, "controllers": []}
    failures_total = 0
    rng = _generator(cfg.seed)
    X = np.empty((draws, cfg.plant.n))
    dropouts = np.empty(draws, dtype=int)
    for spec in cfg.controllers:
        name, family = spec["name"], spec["family"]
        entry = {"name": name, "family": family, "inequalities": []}
        summary["controllers"].append(entry)
        if family not in AUDITED or draws == 0:
            continue
        for check_name, audit, uses_dropouts in _checks(family):
            # Each draw takes its state and then its dropout count.
            for k in range(draws):
                X[k] = rng.standard_normal(cfg.plant.n)
                dropouts[k] = rng.integers(1, cfg.horizon + 1)
            n_fail, worst, errors = _audit_check(
                audit, designs[name], *((X, dropouts) if uses_dropouts else (X,)))
            failures_total += n_fail
            # An infinite worst slack (no record) is written as null.
            entry["inequalities"].append({
                "name": check_name, "draws": draws, "failures": n_fail,
                "worst_slack": worst, "errors": errors})
            status = "ok" if n_fail == 0 else f"{n_fail} FAILURES"
            print(f"audit {name}/{check_name}: {status} over {draws} draws")

    summary["failures_total"] = failures_total
    _write_json(out / "audit.json", summary)
    return EXIT_OK if failures_total == 0 else EXIT_AUDIT


# ---------------------------------------------------------------------------
# Entry point


@cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process; each parse starts from a fresh namespace.
    parser = argparse.ArgumentParser(
        prog="sparseppc",
        description="Sparse packetized predictive control toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    overrides = {
        "--seed": "master seed (overrides the config)",
        "--runs": "Monte Carlo run count; for audit, the number of draws",
        "--run-index": "the Monte Carlo run to replay (default 0)",
    }
    # Each command takes only the flags it uses.
    for command, handler, flags in (
            ("design", cmd_design, ()),
            ("simulate", cmd_simulate, ("--seed", "--run-index")),
            ("montecarlo", cmd_montecarlo, ("--seed", "--runs")),
            ("audit", cmd_audit, ("--seed", "--runs"))):
        p = sub.add_parser(command)
        p.add_argument("--config", required=True, help="path to the JSON config")
        for flag in flags:
            p.add_argument(flag, type=int, help=overrides[flag],
                           default=0 if flag == "--run-index" else None)
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(handler=handler)
    return parser


@_config_checks()
def _with_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """Apply ``--seed``/``--runs``, held to the config's minima, and check
    ``--run-index`` and the horizon where the command uses them.

    ``audit --runs 0`` is allowed and audits nothing.  The dropout traces
    of ``simulate`` and ``montecarlo`` need ``horizon >= 2``.
    """
    changes = {}
    for key, minimum in (("seed", 0),
                         ("runs", 0 if args.command == "audit" else 1)):
        value = getattr(args, key, None)
        if value is not None:
            changes[key] = _integer(value, f"--{key}", minimum)
    if args.command in ("simulate", "montecarlo"):
        _integer(cfg.horizon, "horizon", 2)
    if args.command == "simulate":
        _require(_integer(args.run_index, "--run-index", 0) >> 64 == 0,
                 f"--run-index must be below 2**64, got {args.run_index}")
    return dataclasses.replace(cfg, **changes)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _with_overrides(load_config(args.config), args)
        return args.handler(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SparsePpcError as exc:
        # A failed Monte Carlo run exits as its cause would, with the run's
        # replay details kept in the message.
        cause = exc.cause if isinstance(exc, SimulationRunError) else exc
        if isinstance(cause, ProtocolError):
            print(f"simulation error: {exc}", file=sys.stderr)
            return EXIT_PROTOCOL
        print(f"design error: {exc}", file=sys.stderr)
        return EXIT_DESIGN


def entry():  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":
    entry()
