"""The CI workflow file: no key given twice, and each step does one thing.

YAML keeps the last of two equal keys in a mapping, so a step with two
``run:`` keys silently loses the first command.  These tests load the
workflow with a loader that refuses such a mapping.
"""
from __future__ import annotations

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


def steps(text: str) -> list:
    """Every step of every job of a workflow, in file order."""
    workflow = yaml.load(text, Loader=UniqueKeyLoader)
    return [step for job in workflow["jobs"].values() for step in job["steps"]]


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
