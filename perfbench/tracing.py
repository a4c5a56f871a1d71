"""Per-layer tracing for the benchmark, recorded from outside the package.

Spans are recorded around the module-level functions of each sparseppc
module by rebinding the name in every sparseppc module that imported it, so
calls made between modules (``cli -> design -> solvers``) are seen as well.
Only aggregates are kept: per span name the call count, inclusive time and
self time (inclusive time minus the time of the spans it caused), plus the
inclusive time of each (parent, child) pair and a few solver certificates.

``MOVES`` names, for each per-layer metric a traced run reports, the
end-to-end metric and the workload it is expected to move.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, function) pairs to wrap.  A span is named "<module>.<function>";
# the command entry point is renamed after the subcommand it runs.
TRACED = (
    ("cli", "main"),
    ("cli", "load_config"),
    ("cli", "build_controller"),
    ("riccati", "solve_dare"),
    ("plant", "build_horizon_matrices"),
    ("plant", "propagate"),
    ("design", "design_l1l2"),
    ("design", "design_l0"),
    ("design", "compute_wstar"),
    ("design", "audit_value_sandwich"),
    ("design", "audit_contraction_l1l2"),
    ("design", "audit_contraction_l0"),
    ("design", "audit_residual_l0"),
    ("netsim", "monte_carlo"),
    ("netsim", "run_closed_loop"),
    ("netsim", "gen_bounded_uniform_trace"),
    ("solvers", "fista_l1l2"),
    ("solvers", "omp_l0"),
    ("solvers", "ridge_packet"),
    ("solvers", "least_squares_packet"),
)

SOLVERS = ("fista_l1l2", "omp_l0", "ridge_packet", "least_squares_packet")

# Relative KKT tolerance at which FISTA stops on its own KKT test; a packet
# flagged converged above it stopped on objective stagnation instead.
KKT_EXACT_RTOL = 1e-6

_MC, _GREEDY, _AUDIT = "mc-l1l2", "mc-greedy", "audit"
_FISTA = f"ops_per_s on {_MC} and {_AUDIT}"
_CERT = "certificate count; moves no time"

# The end-to-end metric and workload each per-layer metric of BENCHMARK.json
# should move (that file holds the units).  Counts and certificates come from
# the traced repetition of sub-seed 0, so they repeat exactly for a given
# --seed; times are per-command means over every traced repetition.  Layers a
# workload never calls read 0 there.
MOVES = {
    "solvers.fista_l1l2.calls": f"{_FISTA}; 0 on {_GREEDY}",
    "solvers.fista_l1l2.self_s": f"{_FISTA}; 0 on {_GREEDY}",
    "solvers.fista_l1l2.iterations_mean": _FISTA,
    "solvers.fista_l1l2.kkt_over_mu_max": _CERT,
    "solvers.fista_l1l2.inexact_converged": _CERT,
    "solvers.omp_l0.calls": f"ops_per_s on {_GREEDY}",
    "solvers.omp_l0.self_s": f"ops_per_s on {_GREEDY}",
    "solvers.omp_l0.atoms_mean": f"ops_per_s on {_GREEDY}",
    "solvers.omp_l0.slack_min": _CERT,
    "solvers.ridge_packet.calls": f"ops_per_s on {_GREEDY}",
    "solvers.ridge_packet.self_s": f"ops_per_s on {_GREEDY}",
    "solvers.least_squares_packet.calls": f"ops_per_s on {_GREEDY} and {_AUDIT}",
    "solvers.least_squares_packet.self_s": f"ops_per_s on {_GREEDY} and {_AUDIT}",
    "netsim.run_closed_loop.self_s": f"ops_per_s on {_GREEDY}; under 1% of {_MC}",
    "netsim.overhead_us_per_step": f"ops_per_s on {_GREEDY}; under 1% of {_MC}",
    "netsim.gen_bounded_uniform_trace.self_s": f"ops_per_s on {_GREEDY}",
    "netsim.monte_carlo.self_s": f"ops_per_s on {_GREEDY}",
    "plant.propagate.calls": f"ops_per_s on {_GREEDY}",
    "plant.propagate.self_s": f"ops_per_s on {_GREEDY}; under 1% of {_MC}",
    "design.audit_value_sandwich.ms": f"ops_per_s on {_AUDIT}",
    "design.audit_contraction_l1l2.ms": f"ops_per_s on {_AUDIT}",
    "design.audit_contraction_l0.us": f"ops_per_s on {_AUDIT}",
    "design.audit_residual_l0.us": f"ops_per_s on {_AUDIT}",
    "design.compute_wstar.calls": f"ops_per_s on {_AUDIT}",
    "design.compute_wstar.us": f"ops_per_s on {_AUDIT}",
    "riccati.solve_dare.us": "setup_s on every workload",
    "riccati.solve_dare.iterations": "setup_s on every workload",
    "plant.build_horizon_matrices.us": "setup_s on every workload",
    "design.design_l1l2.us": f"setup_s on {_MC} and {_AUDIT}",
    "design.design_l0.us": f"setup_s on {_GREEDY} and {_AUDIT}",
    "cli.load_config.ms": "setup_s on every workload",
    "cli.build_controller.ms": "setup_s on every workload",
    "cli.montecarlo.self_ms": f"ops_per_s on {_GREEDY}; 0 on {_AUDIT}",
    "cli.audit.self_ms": f"ops_per_s on {_AUDIT}; 0 on mc-*",
    "bench.traced_command_s": "none: mean traced command wall, the base for self_s shares",
    "bench.trace_overhead": "none: traced wall / untraced wall on the same sub-seeds",
}
for _family in SOLVERS:
    for _q in ("p50", "p90", "p99"):
        MOVES[f"solvers.{_family}.{_q}_us"] = (
            "packet latency on the probe states; ops_per_s on the workloads "
            "that call this solver")
MOVES["solvers.probe.states"] = "none: samples behind each probe percentile"


@dataclass
class SpanStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0


@dataclass
class TraceStats:
    """Aggregates of one traced command."""

    spans: dict = field(default_factory=dict)
    pair_incl_s: dict = field(default_factory=dict)   # (parent, child) -> s
    fista_iterations: list = field(default_factory=list)
    fista_kkt_over_mu: list = field(default_factory=list)
    fista_inexact_converged: int = 0
    omp_atoms: list = field(default_factory=list)
    omp_slack: list = field(default_factory=list)
    dare_iterations: list = field(default_factory=list)
    closed_loop_steps: int = 0

    def span(self, name: str) -> SpanStats:
        return self.spans.setdefault(name, SpanStats())


def _record_result(stats: TraceStats, fn: str, args, kwargs, result):
    if fn == "fista_l1l2":
        mu = float(kwargs["mu"] if "mu" in kwargs else args[1])
        cert = result.certificate
        ratio = cert["kkt_residual"] / mu
        stats.fista_iterations.append(result.iterations)
        stats.fista_kkt_over_mu.append(ratio)
        if cert["converged"] and ratio > KKT_EXACT_RTOL:
            stats.fista_inexact_converged += 1
    elif fn == "omp_l0":
        stats.omp_atoms.append(result.iterations)
        stats.omp_slack.append(result.certificate["constraint_slack"])
    elif fn == "solve_dare":
        stats.dare_iterations.append(result.iterations)
    elif fn == "run_closed_loop":
        stats.closed_loop_steps += int(result.inputs.shape[0])


class Tracer:
    """Wraps the functions in ``TRACED`` while installed.

    Use as a context manager; ``new_command()`` starts a fresh
    :class:`TraceStats` that later spans are added to.
    """

    def __init__(self):
        self.commands: list[TraceStats] = []
        self._stack: list = []          # [span name, child time] per open span
        self._saved: list = []          # (module, attribute, original)

    def new_command(self):
        self.commands.append(TraceStats())

    def _wrap(self, span_name: str, fn: str, orig):
        stack = self._stack

        def traced(*args, **kwargs):
            if span_name == "cli.main":
                name = f"cli.{(args[0] if args else kwargs['argv'])[0]}"
            else:
                name = span_name
            stack.append([name, 0.0])
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                _, child = stack.pop()
                stats = self.commands[-1]
                span = stats.span(name)
                span.calls += 1
                span.incl_s += elapsed
                span.self_s += elapsed - child
                if stack:
                    stack[-1][1] += elapsed
                    key = (stack[-1][0], name)
                    stats.pair_incl_s[key] = stats.pair_incl_s.get(key, 0.0) + elapsed
            _record_result(self.commands[-1], fn, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "sparseppc" or n.startswith("sparseppc.")]
        for mod_name, fn in TRACED:
            orig = getattr(sys.modules[f"sparseppc.{mod_name}"], fn)
            wrapper = self._wrap(f"{mod_name}.{fn}", fn, orig)
            for mod in modules:
                if getattr(mod, fn, None) is orig:
                    self._saved.append((mod, fn, orig))
                    setattr(mod, fn, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, fn, orig in reversed(self._saved):
            setattr(mod, fn, orig)
        self._saved.clear()
        return False


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(commands: list, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metric values from the traced commands.

    Counts and certificates come from ``commands[0]``; times are means per
    command over all of them.  ``untraced_s``/``traced_s`` are the walls of
    the same repetitions run without and with tracing.
    """
    first = commands[0]
    reps = len(commands)

    def total(name, attr):
        return sum(getattr(c.spans[name], attr) for c in commands if name in c.spans)

    def first_calls(name):
        return first.spans[name].calls if name in first.spans else 0

    def per_call(name, scale):
        n = total(name, "calls")
        return scale * total(name, "incl_s") / n if n else 0.0

    out = {}
    for fn in SOLVERS:
        name = f"solvers.{fn}"
        out[f"{name}.self_s"] = total(name, "self_s") / reps
        out[f"{name}.calls"] = first_calls(name)
    out["solvers.fista_l1l2.iterations_mean"] = _mean(first.fista_iterations)
    out["solvers.fista_l1l2.kkt_over_mu_max"] = max(first.fista_kkt_over_mu, default=0.0)
    out["solvers.fista_l1l2.inexact_converged"] = first.fista_inexact_converged
    out["solvers.omp_l0.atoms_mean"] = _mean(first.omp_atoms)
    out["solvers.omp_l0.slack_min"] = min(first.omp_slack, default=0.0)

    designer_s = sum(t for c in commands for (parent, child), t in c.pair_incl_s.items()
                     if parent == "netsim.run_closed_loop" and child.startswith("solvers."))
    steps = sum(c.closed_loop_steps for c in commands)
    loop_s = total("netsim.run_closed_loop", "incl_s")
    out["netsim.overhead_us_per_step"] = 1e6 * (loop_s - designer_s) / steps if steps else 0.0
    for name in ("netsim.run_closed_loop", "netsim.gen_bounded_uniform_trace",
                 "netsim.monte_carlo", "plant.propagate"):
        out[f"{name}.self_s"] = total(name, "self_s") / reps
    out["plant.propagate.calls"] = first_calls("plant.propagate")

    out["design.audit_value_sandwich.ms"] = per_call("design.audit_value_sandwich", 1e3)
    out["design.audit_contraction_l1l2.ms"] = per_call("design.audit_contraction_l1l2", 1e3)
    out["design.audit_contraction_l0.us"] = per_call("design.audit_contraction_l0", 1e6)
    out["design.audit_residual_l0.us"] = per_call("design.audit_residual_l0", 1e6)
    out["design.compute_wstar.calls"] = first_calls("design.compute_wstar")
    out["design.compute_wstar.us"] = per_call("design.compute_wstar", 1e6)

    out["riccati.solve_dare.us"] = per_call("riccati.solve_dare", 1e6)
    out["riccati.solve_dare.iterations"] = _mean(first.dare_iterations)
    out["plant.build_horizon_matrices.us"] = per_call("plant.build_horizon_matrices", 1e6)
    out["design.design_l1l2.us"] = per_call("design.design_l1l2", 1e6)
    out["design.design_l0.us"] = per_call("design.design_l0", 1e6)
    out["cli.load_config.ms"] = per_call("cli.load_config", 1e3)
    out["cli.build_controller.ms"] = per_call("cli.build_controller", 1e3)
    for command in ("montecarlo", "audit"):
        name = f"cli.{command}"
        out[f"{name}.self_ms"] = 1e3 * total(name, "self_s") / reps

    out["bench.traced_command_s"] = traced_s / reps
    out["bench.trace_overhead"] = traced_s / untraced_s
    return out


def probe_packets(designers: dict, n: int, states: int, seed: int) -> dict:
    """Per-family packet latency on a fixed, seeded set of states.

    ``designers`` maps a solver family name to one packet designer.  Half of
    the states have transient scale (``||x||`` uniform in [1, 6]) and half
    are near the origin (``||x||`` log-uniform in [1e-8, 1e-1]), where the
    iterative and greedy solvers cost far less.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9B0BE]))
    xs = rng.standard_normal((states, n))
    half = states // 2
    norms = np.concatenate([rng.uniform(1.0, 6.0, half),
                            10.0 ** rng.uniform(-8.0, -1.0, states - half)])
    xs *= (norms / np.linalg.norm(xs, axis=1))[:, None]
    out = {"solvers.probe.states": states}
    for family, designer in designers.items():
        times = []
        for x in xs:
            start = time.perf_counter()
            designer(x)
            times.append(time.perf_counter() - start)
        p50, p90, p99 = np.percentile(np.asarray(times) * 1e6, [50, 90, 99])
        out.update({f"solvers.{family}.p50_us": float(p50),
                    f"solvers.{family}.p90_us": float(p90),
                    f"solvers.{family}.p99_us": float(p99)})
    return out
