"""Command-line front end: design, simulate, montecarlo, and audit.

A single JSON config describes the plant, the horizon, the controller list,
the dropout channel, and the run parameters; see the README for the schema.
Exit codes: 0 success, 2 config error (a bad config, flag or ``--out``),
3 design failure, 4 audit failure, 5 simulation protocol error.
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
from .design import (LinearDesign, _fraction, _l1l2_weights,
                     audit_contraction_l0, audit_contraction_l1l2,
                     audit_residual_l0, audit_value_sandwich, design_l0,
                     design_l1l2, design_linear)
from .errors import (ConfigError, DesignError, ParameterError, ProtocolError,
                     SimulationRunError, SolverError, SparsePpcError, each_row)
from .netsim import _generator, monte_carlo, run_closed_loop, run_conditions
from .plant import PlantModel, _integer, _positive, _square, require_spd

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DESIGN = 3
EXIT_AUDIT = 4
EXIT_PROTOCOL = 5

# The largest array one command may allocate, in bytes.  A config whose
# command needs more is a config error before anything is allocated.
MEMORY_BUDGET = 1 << 30

# Each controller family's own config keys with the check on each value, the
# keys it requires, and the design fields it reports after its regulator and
# residuals; every controller also takes "name", "family" and a "Q" weight.
# The table is plain data: ``_family`` looks up the design and audit
# functions when they are called, so one rebound by name in this module runs.
FAMILIES = {
    "l1l2": ({"mu": "positive", "epsilon": "positive", "r": "positive"},
             ("mu",), ("mu", "epsilon", "a1", "a2", "rho", "R", "Wstar")),
    "l0": ({"beta": "fraction", "W": "matrix"},
           ("beta",), ("beta", "c1", "rho", "c", "Eps", "W", "Wstar")),
    "ridge": ({"r": "positive"}, ("r",), ("Wstar",)),
    "ls": ({}, (), ("Wstar",)),
}


# ---------------------------------------------------------------------------
# Config parsing


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _object(value, name: str, keys, required=()) -> dict:
    """``value`` if it is a JSON object whose keys are all in ``keys`` and
    include every key in ``required``; ConfigError otherwise."""
    _require(isinstance(value, dict), f"{name} must be an object")
    unknown = value.keys() - keys
    _require(not unknown, f"{name} has unknown keys {sorted(unknown)}")
    for key in required:
        _require(key in value, f"{name} is missing required key '{key}'")
    return value


@contextmanager
def _config_checks(section: str = ""):
    """Raise the ParameterError of a library check as a ConfigError; a
    ``section`` such as ``"plant."`` prefixes the argument it names."""
    try:
        yield
    except ParameterError as exc:
        raise ConfigError(section + str(exc)) from exc


def _no_bools(value, name: str):
    # JSON true and false would reach the numpy checks as 1 and 0.  One
    # pass over the entries as numpy nests them; a bool hidden in a ragged
    # row is refused by the matrix check that follows.
    bools = [e for e in np.asarray(value, dtype=object).ravel()
             if e is True or e is False]
    if bools:
        raise ConfigError(f"{name} entries must be numbers, got {bools[0]!r}")
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
    _object(raw, "config", ("plant", "horizon", "Q", "controllers", "channel",
                            "run"), ("plant", "horizon", "controllers"))

    plant_raw = _object(raw["plant"], "plant", "AB", "AB")
    A, B = (_no_bools(plant_raw[key], f"plant.{key}") for key in "AB")
    with _config_checks("plant."):
        plant = PlantModel(A=A, B=B)
    n = plant.n

    horizon = _integer(raw["horizon"], "horizon", 1)

    def weight(value, name):
        return _square(_no_bools(value, name), n, name)

    def spd(value, name):
        return require_spd(_no_bools(value, name), n, name)

    check = {"positive": _positive, "fraction": _fraction, "matrix": weight,
             "spd": spd}
    Q = spd(raw["Q"], "Q") if "Q" in raw else np.eye(n)

    ctrl_raw = raw["controllers"]
    _require(isinstance(ctrl_raw, list) and ctrl_raw,
             "controllers must be a non-empty list")
    names = set()
    controllers = []
    for idx, item in enumerate(ctrl_raw):
        where = f"controllers[{idx}]"
        _require(isinstance(item, dict), f"{where} must be an object")
        family = item.get("family")
        # A tuple, not the dict: a list read from JSON is not hashable.
        _require(family in tuple(FAMILIES), f"{where}.family must be one of "
                 f"{tuple(FAMILIES)}, got {family!r}")
        checks, required, _ = FAMILIES[family]
        checks = {"Q": "spd", **checks}
        _object(item, where, ("name", "family", *checks), ("name", *required))
        name = item["name"]
        _require(isinstance(name, str) and name and "," not in name
                 and "\n" not in name,
                 f"{where}.name must be a non-empty string without commas")
        _require(name not in names, f"duplicate controller name {name!r}")
        names.add(name)

        spec: dict = {"name": name, "family": family}
        spec.update((key, check[kind](item[key], f"{where}.{key}"))
                    for key, kind in checks.items() if key in item)
        # An l1l2 entry gives one weight; the design's check of the weight
        # it derives from it runs here under the entry's name.
        if family == "l1l2":
            _require(("epsilon" in spec) != ("r" in spec),
                     f"{where} (l1l2) needs exactly one of 'epsilon' or 'r'")
            with _config_checks(f"{where}."):
                _l1l2_weights(spec["mu"], horizon, spec.get("epsilon"),
                              spec.get("r"))
        controllers.append(spec)

    chan = _object(raw.get("channel", {}), "channel",
                   ("model", "receptions_between_bursts"))
    model = chan.get("model", "bounded_uniform")
    _require(model == "bounded_uniform",
             f"unknown channel model {model!r}; only 'bounded_uniform' is supported")
    channel_gap = _integer(chan.get("receptions_between_bursts", 1),
                           "channel.receptions_between_bursts", 1)

    run = _object(raw.get("run", {}), "run", ("runs", "T", "seed", "threads"))
    # Older configs may still carry the removed thread-pool size.
    threads = run.get("threads", 1)
    _require(type(threads) is int and threads == 1,
             "run.threads must be 1: the Monte Carlo thread pool was "
             f"removed, got {threads!r}")

    return ExperimentConfig(plant=plant, horizon=horizon, Q=Q,
                            controllers=tuple(controllers),
                            channel_gap=channel_gap,
                            runs=_integer(run.get("runs", 500), "run.runs", 1),
                            T=_integer(run.get("T", 100), "run.T", 1),
                            seed=_integer(run.get("seed", 0), "run.seed", 0))


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


def _family(family: str) -> tuple:
    """``(design function, audits)`` of a controller family, built on each
    call so that a function rebound by name in this module (as
    ``perfbench``'s tracer does) is the one that runs.  An audit is ``(name,
    batched audit, whether it takes the dropout counts)``, in draw order.
    """
    return {"l1l2": (design_l1l2, (
                ("value_sandwich", audit_value_sandwich, False),
                ("contraction", audit_contraction_l1l2, True))),
            "l0": (design_l0, (
                ("residual_bound", audit_residual_l0, False),
                ("contraction", audit_contraction_l0, True))),
            "ridge": (design_linear, ()),
            "ls": (design_linear, ())}[family]


def build_controller(cfg: ExperimentConfig, spec: dict) -> BuiltController:
    """Design one controller from its validated config entry and report it."""
    plant, N = cfg.plant, cfg.horizon
    Q = spec.get("Q", cfg.Q)
    name, family = spec["name"], spec["family"]

    # Each family's config keys are its design function's keywords; an
    # ls entry passes none, so its regulator is at r = 0.
    keys = {key: spec[key] for key in FAMILIES[family][0] if key in spec}
    try:
        design = _family(family)[0](plant, Q, N=N, **keys)
    except SparsePpcError as exc:
        raise type(exc)(f"{name}: {exc}") from exc     # keeps its exit code

    P, K, r, s = design.P, design.K, design.r, design.hm.svd[1]
    closed = plant.A + plant.B @ K
    report = {"r": r, "P": _listify(P), "K": _listify(K),
              "cond_G": float(s[0] / s[-1]), "residuals": {
        "dare_fixed_point": design.residual,
        "closed_loop_identity": float(np.linalg.norm(
            closed.T @ P @ closed - P + design.Q + r * (K.T @ K), "fro"))}}
    report.update((key, _listify(getattr(design, key)))
                  for key in FAMILIES[family][2])
    if family == "l0":
        report["W_overridden"] = "W" in spec
        report["residuals"].update(wstar_identity=design.wstar_defect,
                                   loewner_margin=design.loewner_margin)
    return BuiltController(name, design.law, report, design)


def _build_all(cfg: ExperimentConfig) -> list:
    return [build_controller(cfg, spec) for spec in cfg.controllers]


# ---------------------------------------------------------------------------
# Output helpers


def _write(out: Path, files: dict):
    # A finished command's {file name: text} into ``out``, all or nothing:
    # a name taken by a directory is refused first, and an ``out`` that is
    # a file or lies under one is refused by mkdir before it makes anything.
    for name in files:
        if (out / name).is_dir():
            raise OSError(f"{out / name} is a directory")
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)


def _csv(steps: np.ndarray, series: dict) -> str:
    names = list(series)
    lines = ["k," + ",".join(names)]
    for i, k in enumerate(steps):
        lines.append(str(int(k)) + "," +
                     ",".join(f"{series[name][i]:.17g}" for name in names))
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    # NaN and the infinities become null, so the JSON stays strictly valid.
    plain = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(plain, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Commands
#
# Each returns its exit code, its files as {file name: text} and its summary
# lines, which ``main`` writes and prints only once the command has finished.


def cmd_design(cfg: ExperimentConfig, args) -> tuple:
    reports, lines = [], []
    for ctrl in _build_all(cfg):
        reports.append({"name": ctrl.name, "family": ctrl.designer.family,
                        "horizon": cfg.horizon, **ctrl.report})
        extras = [f"{key}={ctrl.report[key]:.6g}"
                  for key in ("rho", "R", "c1", "c") if key in ctrl.report]
        lines.append(f"designed {ctrl.name} ({ctrl.designer.family})"
                     + (": " + ", ".join(extras) if extras else ""))
    return EXIT_OK, {"design_report.json": _json(reports)}, lines


def cmd_simulate(cfg: ExperimentConfig, args) -> tuple:
    built = _build_all(cfg)

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
    return EXIT_OK, {"simulate.json": _json(payload)}, [
        f"simulated {cfg.T} steps for {len(built)} controller(s) "
        f"(seed {cfg.seed}, run {args.run_index})"]


def cmd_montecarlo(cfg: ExperimentConfig, args) -> tuple:
    designers = {ctrl.name: ctrl.designer for ctrl in _build_all(cfg)}
    start = time.perf_counter()
    result = monte_carlo(cfg.plant, designers, cfg.horizon, cfg.runs,
                         T=cfg.T, seed=cfg.seed,
                         receptions_between_bursts=cfg.channel_gap)
    wall = time.perf_counter() - start

    meta = {"command": "montecarlo", "seed": cfg.seed, "runs": cfg.runs,
            "T": cfg.T, "horizon": cfg.horizon,
            "controllers": [spec["name"] for spec in cfg.controllers],
            "versions": {"sparseppc": __version__, "numpy": np.__version__},
            "wall_time_s": wall}
    lines = [f"{name}: avg ||x(T-1)|| = {result.avg_norm[name][-1]:.6g}"
             for name in designers]
    return EXIT_OK, {"avg_norm.csv": _csv(result.steps, result.avg_norm),
                     "avg_sparsity.csv": _csv(result.steps,
                                              result.avg_sparsity),
                     "meta.json": _json(meta)}, lines


def _audit_check(audit, design, *draws: np.ndarray) -> tuple:
    """``(failures, worst slack, up to 3 error messages)`` of one check.

    ``draws`` are the audit's per-draw arguments after the design, the
    states and, for a contraction, the dropout counts.  All draws go
    through one batched call; when a solver check fails in it, each draw is
    audited alone, so every failing draw counts once, and a failure that no
    draw reproduces alone counts on draw 0.
    """
    records, failed = each_row(
        lambda rows: audit(design, *(arg[rows] for arg in draws)),
        len(draws[0]), (DesignError, SolverError))
    failures = len(failed) + sum(int((~r.passed).sum()) for r in records)
    worst = min((float(r.slack.min()) for r in records), default=np.inf)
    return failures, worst, [str(exc) for exc in failed.values()][:3]


def cmd_audit(cfg: ExperimentConfig, args) -> tuple:
    draws = cfg.runs
    designs = {spec["name"]: build_controller(cfg, spec).design
               for spec in cfg.controllers if _family(spec["family"])[1]}

    summary = {"seed": cfg.seed, "draws": draws, "controllers": []}
    failures_total, lines = 0, []
    rng = _generator(cfg.seed)
    X = np.empty((draws, cfg.plant.n))
    dropouts = np.empty(draws, dtype=int)
    for spec in cfg.controllers:
        name, family = spec["name"], spec["family"]
        entry = {"name": name, "family": family, "inequalities": []}
        summary["controllers"].append(entry)
        if draws == 0:
            continue
        for check_name, audit, uses_dropouts in _family(family)[1]:
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
            lines.append(f"audit {name}/{check_name}: {status} over "
                         f"{draws} draws")

    summary["failures_total"] = failures_total
    code = EXIT_OK if failures_total == 0 else EXIT_AUDIT
    return code, {"audit.json": _json(summary)}, lines


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
    cfg = dataclasses.replace(cfg, **changes)
    _require_budget(cfg, args.command,
                    "--runs" if "runs" in changes else "run.runs")
    return cfg


def _require_budget(cfg: ExperimentConfig, command: str, runs_key: str):
    """ConfigError naming the keys and the bytes of the command's largest
    array if it exceeds ``MEMORY_BUDGET``.

    Every command builds the ``(N n) x (N n)`` stage-weight block of its
    horizon matrices.  ``simulate`` holds one run's ``(T + 1, n)`` states,
    ``montecarlo`` a call group's ``(runs x group size, T + 1)`` rollout
    arrays (larger than its ``(runs, T)`` dropout conditions), the group
    size bounded by the number of controllers, and ``audit`` about
    ``horizon^2`` numbers per draw for its region maps and path systems.
    """
    n, N, runs, T = cfg.plant.n, cfg.horizon, cfg.runs, cfg.T
    arrays = [("horizon", "the (N n) x (N n) stage-weight block",
               8 * (N * n) ** 2)]
    if command == "simulate":
        arrays.append(("run.T", "the (T + 1, n) states of the run",
                       8 * (T + 1) * n))
    elif command == "montecarlo":
        group = len(cfg.controllers)
        arrays.append((f"{runs_key} and run.T",
                       f"the (runs x {group}, T + 1) rollout arrays of a "
                       "call group", 8 * runs * group * (T + 1)))
    elif command == "audit":
        arrays.append((runs_key, "the (draws, horizon, horizon) region maps",
                       8 * runs * max(N * N, n)))
    key, what, size = max(arrays, key=lambda a: a[2])
    _require(size <= MEMORY_BUDGET,
             f"{key}: {what} would take {size:.3e} bytes, above the budget "
             f"of {MEMORY_BUDGET} bytes")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _with_overrides(load_config(args.config), args)
        code, files, lines = args.handler(cfg, args)
        _write(Path(args.out), files)
        for line in lines:
            print(line)
        return code
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
    except OSError as exc:
        # The config is read by now: an output path under --out is refused
        # (a file where the directory goes, or a directory where a file
        # does), and nothing was written.
        print(f"config error: --out {args.out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":
    entry()
