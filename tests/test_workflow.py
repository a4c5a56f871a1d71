"""The CI workflow file: no key given twice, and each step does one thing.

YAML keeps the last of two equal keys in a mapping, so a step with two
``run:`` keys silently loses the first command.  These tests load the
workflow with a loader that refuses such a mapping.
"""
from __future__ import annotations

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = (Path(__file__).resolve().parents[1] / ".github" / "workflows"
            / "tests.yml")


class UniqueKeyLoader(yaml.SafeLoader):
    """A safe loader that refuses a mapping holding one key twice."""

    def construct_mapping(self, node, deep=False):
        keys = [self.construct_object(key, deep=deep) for key, _ in node.value]
        twice = {key for key in keys if keys.count(key) > 1}
        if twice:
            raise yaml.constructor.ConstructorError(
                None, None, f"duplicate keys {twice} at line "
                f"{node.start_mark.line + 1}", node.start_mark)
        return super().construct_mapping(node, deep)


def steps(text: str, jobs=None) -> list:
    """Every step of the named jobs of a workflow (all by default), in file
    order."""
    workflow = yaml.load(text, Loader=UniqueKeyLoader)
    return [step for name, job in workflow["jobs"].items()
            if jobs is None or name in jobs for step in job["steps"]]


def test_a_duplicate_key_is_refused():
    text = ("jobs:\n  a:\n    steps:\n"
            "      - name: x\n        run: one\n        run: two\n")
    with pytest.raises(yaml.constructor.ConstructorError,
                       match=r"duplicate keys \{'run'\} at line 4"):
        steps(text)


def test_every_step_is_named_and_runs_or_uses_one_thing():
    found = steps(WORKFLOW.read_text())
    assert found
    for step in found:
        assert step.get("name"), step
        assert ("run" in step) != ("uses" in step), step["name"]


def test_the_numpy_only_job_runs_the_cli_with_warnings_as_errors():
    # A numpy RuntimeWarning on the way to a result or an exit code fails
    # the step.  pip's own warnings must not, so the install step runs
    # without the setting.
    found = steps(WORKFLOW.read_text(), jobs=("numpy-only",))
    cli = [step for step in found
           if re.search(r"^\s*sparseppc\s", step.get("run", ""), re.M)]
    assert len(cli) == 8
    for step in cli:
        env = step.get("env", {})
        assert env.get("PYTHONWARNINGS") == "error", step["name"]
    install = [step for step in found if "pip install" in step.get("run", "")]
    assert len(install) == 1 and "env" not in install[0]
