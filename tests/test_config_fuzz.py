"""Every command on a mutated benchmark config ends in a documented exit code.

Each example deletes one or two leaves or sections of
``configs/benchmark.json``, or replaces them from a fixed pool of bad
values, and runs all four commands in process.  A bad input must end in
exit 2, 3 or 5 with one stderr line and nothing under ``--out``, never in an
exception (every warning is one under this suite's ``filterwarnings``).
Mid-size integers are left out of the pool: ``horizon = 1000`` takes
seconds to refuse.
"""
from __future__ import annotations

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sparseppc.cli import main

BENCH = json.loads((Path(__file__).resolve().parents[1] / "configs"
                    / "benchmark.json").read_text())

DELETE = "<delete>"
POOL = [None, True, False, 0, 1, -1, 2, 0.5, 1e155, 1e308, 5e-324,
        10 ** 30, "x", [], {}, [[1.0]]]

COMMANDS = (["design"], ["simulate"], ["montecarlo", "--runs", "3"],
            ["audit", "--runs", "3"])


def paths(node, prefix=()):
    """The path of every leaf and section under ``node``, outermost first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


PATHS = list(paths(BENCH))


def mutated(mutations) -> dict:
    """The benchmark config with each ``(path, value)`` applied in order; a
    path that an earlier mutation removed or replaced is skipped."""
    cfg = copy.deepcopy(BENCH)
    for path, value in mutations:
        node = cfg
        try:
            for key in path[:-1]:
                node = node[key]
            node[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue
        if value == DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(value)
    return cfg


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(PATHS),
                          st.sampled_from([DELETE] + POOL)),
                min_size=1, max_size=2))
# An input weight or a plant entry at which the Riccati map leaves the
# float range once ended in numpy warnings.
@example([(("controllers", 3, "r"), 1e155)])
@example([(("plant", "B", 3), 1e155)])
def test_every_command_ends_in_a_documented_exit_code(capfd, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(mutated(mutations)))
        for command in COMMANDS:
            out = Path(tmp) / command[0]
            capfd.readouterr()
            code = main(command + ["--config", str(config), "--out", str(out)])
            err = capfd.readouterr().err
            assert code in (0, 2, 3, 4, 5), (command, code, err)
            if code in (2, 3, 5):
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].strip(), (command, err)
                assert err.endswith("\n"), (command, err)
                assert not out.exists(), command
            else:
                assert out.is_dir(), command
