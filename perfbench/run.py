"""Benchmark for sparseppc: Monte Carlo and audit throughput, set-up time, memory.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mc-l1l2 --seed 1 --seconds 30 --trace 0

Each workload is one CLI command driven in-process through ``cli.main`` on a
config derived from ``perfbench/configs/<workload>.json``.  Repetition ``i``
of a run gets its own config whose ``run.seed`` is drawn from ``(--seed, i)``,
so one run averages over many Monte Carlo runs or audit draws.  Repetitions
start until ``--seconds`` have passed; sub-seed 0 is then repeated and its
output bytes must match.  Every repetition's outputs are checked against the
paper's guarantees.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
sub-seed untraced and then with per-layer spans (see ``tracing.py``), and
probes packet latency on fixed, seeded states.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Workload -> CLI subcommand.  Why each exists is recorded in BENCHMARK.json.
WORKLOADS = {"mc-l1l2": "montecarlo", "mc-greedy": "montecarlo",
             "audit": "audit"}

SETUPS_PER_REP = 3
# avg ||x(T-1)|| / avg ||x(0)|| must fall below this for the asymptotically
# stable l0 loop; measured values are around 1e-10.
L0_DECAY_RATIO = 1e-3
# Trailing steps whose average norm must stay inside the l1l2 design ball R.
L1L2_TAIL_STEPS = 10
PROBE_STATES = 100
PROBE_CONFIG = "audit"          # the config that holds every solver family
FAMILY_SOLVER = {"l1l2": "fista_l1l2", "l0": "omp_l0", "ridge": "ridge_packet",
                 "ls": "least_squares_packet"}
AUDITED_FAMILIES = ("l1l2", "l0")
AUDIT_CHECKS_PER_CONTROLLER = 2


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def _import_package():
    if not (SRC / "sparseppc" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'sparseppc'}; run from "
                         "the root of a sparseppc checkout")
    sys.path.insert(0, str(SRC))
    import sparseppc
    from sparseppc import cli

    if Path(sparseppc.__file__).resolve().parent != (SRC / "sparseppc").resolve():
        raise BenchError(f"imported sparseppc from {sparseppc.__file__}, not "
                         f"from {SRC}")
    return cli


def _git(*args) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy as np
    import scipy

    sha = dirty = None
    if (ROOT / ".git").exists():
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    nproc = os.cpu_count()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
        "note": (f"timings come from a {nproc}-core host whose other load is "
                 "not controlled; compare runs from one host only"),
    }


def sub_seed(seed: int, rep: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


class Workload:
    """One workload's configs, command, and output checks."""

    def __init__(self, cli, name: str, seed: int, workdir: Path):
        self.cli = cli
        self.command = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.base = json.loads((BENCH / "configs" / f"{name}.json").read_text())
        self.controllers = self.base["controllers"]
        self.horizon = self.base["horizon"]
        self.runs = self.base["run"]["runs"]
        self.T = self.base["run"]["T"]
        audited = sum(c["family"] in AUDITED_FAMILIES for c in self.controllers)
        if self.command == "montecarlo":
            # Monte Carlo runs attempted; throughput counts controller-steps.
            self.ops = self.runs
            self.work = self.runs * self.T * len(self.controllers)
        else:
            # Inequality checks evaluated, attempted and counted alike.
            self.ops = self.work = self.runs * audited * AUDIT_CHECKS_PER_CONTROLLER
        self.radius: dict = {}

    def config(self, rep: int) -> Path:
        path = self.workdir / f"config-{rep}.json"
        if not path.exists():
            cfg = json.loads(json.dumps(self.base))
            cfg["run"]["seed"] = sub_seed(self.seed, rep)
            path.write_text(json.dumps(cfg))
        return path

    def setup_once(self) -> float:
        """``load_config`` plus ``build_controller`` for every controller."""
        cli = self.cli
        start = time.perf_counter()
        cfg = cli.load_config(self.config(0))
        built = [cli.build_controller(cfg, spec) for spec in cfg.controllers]
        elapsed = time.perf_counter() - start
        self.radius = {b.name: b.report["R"] for b in built if "R" in b.report}
        return elapsed

    def run(self, rep: int, tag: str) -> dict:
        """Run the command once on sub-seed ``rep`` and check its outputs."""
        out = self.workdir / f"out-{rep}-{tag}"
        argv = [self.command, "--config", str(self.config(rep)), "--out", str(out)]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(argv)
        except Exception as exc:  # a crash is a measured failure, not a bench bug
            rc, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        wall = time.perf_counter() - start
        result = {"rep": rep, "wall": wall, "rc": rc, "ops": self.ops,
                  "work": self.work,
                  "failed_ops": 0, "checks": 0, "failed_checks": 0,
                  "digest": None, "notes": []}
        if error is not None:
            result["notes"].append(error)
        check = (self._check_montecarlo if self.command == "montecarlo"
                 else self._check_audit)
        try:
            check(out, result)
        except (KeyError, IndexError, ValueError) as exc:
            result["failed_ops"] = result["ops"]
            result["notes"].append(f"unreadable output: {type(exc).__name__}: {exc}")
        shutil.rmtree(out, ignore_errors=True)
        return result

    def _check(self, result: dict, ok: bool, note: str):
        result["checks"] += 1
        if not ok:
            result["failed_checks"] += 1
            result["notes"].append(note)

    def _check_montecarlo(self, out: Path, result: dict):
        paths = [out / "avg_norm.csv", out / "avg_sparsity.csv"]
        if result["rc"] != 0 or not all(p.exists() for p in paths):
            result["failed_ops"] = result["ops"]
            result["notes"].append(f"montecarlo exited {result['rc']}")
            return
        blobs = [p.read_bytes() for p in paths]
        result["digest"] = hashlib.sha256(b"\0".join(blobs)).hexdigest()
        norm, sparsity = (_read_csv(b) for b in blobs)
        for ctrl in self.controllers:
            name, family = ctrl["name"], ctrl["family"]
            series = norm[name]
            if family == "l0":
                ratio = series[-1] / series[0]
                self._check(result, ratio <= L0_DECAY_RATIO,
                            f"{name}: avg norm decayed only to {ratio:.3g} of x(0)")
            if family == "l1l2":
                tail = statistics.fmean(series[-L1L2_TAIL_STEPS:])
                R = self.radius[name]
                self._check(result, tail <= R,
                            f"{name}: tail avg norm {tail:.6g} exceeds R = {R:.6g}")
            values = [v for v in sparsity[name] if not math.isnan(v)]
            self._check(result, all(0.0 <= v <= self.horizon for v in values),
                        f"{name}: avg sparsity outside [0, {self.horizon}]")

    def _check_audit(self, out: Path, result: dict):
        path = out / "audit.json"
        if result["rc"] not in (0, 4) or not path.exists():
            result["failed_ops"] = result["ops"]
            result["notes"].append(f"audit exited {result['rc']}")
            return
        blob = path.read_bytes()
        result["digest"] = hashlib.sha256(blob).hexdigest()
        failures = json.loads(blob)["failures_total"]
        # Each violated or erroring inequality evaluation is a failed op.
        result["failed_ops"] = failures
        self._check(result, failures == 0 and result["rc"] == 0,
                    f"audit reported failures_total = {failures}")


def _read_csv(blob: bytes) -> dict:
    lines = blob.decode().splitlines()
    names = lines[0].split(",")[1:]
    rows = [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
    return {name: [row[j] for row in rows] for j, name in enumerate(names)}


def timed_reps(workload: Workload, seconds: float, tag: str,
               before=lambda: None) -> list:
    """Repetitions on sub-seeds 0, 1, ... until ``seconds`` have passed.

    ``before`` runs ahead of each repetition, outside its timing.
    """
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        before()
        results.append(workload.run(len(results), tag))
    return results


def tally(results: list, extra_checks: int = 0, extra_failed: int = 0) -> tuple:
    attempted = sum(r["ops"] + r["checks"] for r in results) + extra_checks
    failed = sum(r["failed_ops"] + r["failed_checks"] for r in results) + extra_failed
    return attempted, failed


def repeat_check(first: dict, again: dict) -> tuple:
    """Same sub-seed twice: the output bytes must match."""
    same = first["digest"] is not None and first["digest"] == again["digest"]
    return 1, 0 if same else 1


def probe_designers(cli) -> tuple:
    """The first controller of each family in the full config."""
    cfg = cli.load_config(BENCH / "configs" / f"{PROBE_CONFIG}.json")
    designers = {}
    for spec in cfg.controllers:
        family = FAMILY_SOLVER[spec["family"]]
        if family not in designers:
            designers[family] = cli.build_controller(cfg, spec).designer
    return designers, cfg.plant.n


def declared_metrics(key: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[key]]


def measure(cli, args, workdir: Path) -> tuple:
    """Run one workload; returns (attempted, failed, metrics, detail)."""
    workload = Workload(cli, args.workload, args.seed, workdir)
    workload.setup_once()                 # warm-up: lazy imports, caches
    detail = {"workload": args.workload, "seed": args.seed,
              "work_per_command": workload.work}

    if not args.trace:
        setups = []

        def before():
            # Set-up samples are spread over the window, like the repetitions.
            setups.extend(workload.setup_once() for _ in range(SETUPS_PER_REP))

        results = timed_reps(workload, args.seconds, "timed", before)
        again = workload.run(0, "repeat")
        attempted, failed = tally(results + [again], *repeat_check(results[0], again))
        rates = [r["work"] / r["wall"] for r in results if r["digest"] is not None]
        values = {
            "ops_per_s": statistics.median(rates) if rates else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail.update(reps=len(results), rep_walls_s=[r["wall"] for r in results],
                      setup_samples=len(setups))
        key = "end_to_end"
    else:
        import tracing

        tracer = tracing.Tracer()
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        # Each sub-seed runs untraced and then traced, so drift in host speed
        # largely cancels out of the overhead ratio.
        while not traced or time.perf_counter() < deadline:
            rep = len(traced)
            untraced.append(workload.run(rep, "untraced"))
            with tracer:
                tracer.new_command()
                traced.append(workload.run(rep, "traced"))
        attempted, failed = tally(untraced + traced,
                                  *repeat_check(untraced[0], traced[0]))
        values = tracing.layer_metrics(
            tracer.commands,
            untraced_s=sum(r["wall"] for r in untraced),
            traced_s=sum(r["wall"] for r in traced))
        designers, n = probe_designers(cli)
        values.update(tracing.probe_packets(designers, n, PROBE_STATES, args.seed))
        results = untraced + traced
        detail.update(reps=len(traced))
        key = "per_layer"

    detail["digest_sub_seed_0"] = results[0]["digest"]
    detail["failure_notes"] = [n for r in results for n in r["notes"]][:10]
    detail["failed_frac"] = failed / attempted
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in declared_metrics(key)}
    return attempted, failed, metrics, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = _import_package()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment()))
    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                    dir=BENCH / "_work"))
    try:
        attempted, failed, metrics, detail = measure(cli, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("detail " + json.dumps(detail))
    print(f"failed_frac {detail['failed_frac']:.6g} (failed {failed} of {attempted} ops)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
