"""The bytecode counter in ``tests/count_bytecodes.py`` is deterministic."""

import gc
import os
import sys

import pytest

from count_bytecodes import count_certified_decide, count_opcodes


def test_two_counts_of_one_call_agree():
    first = count_certified_decide(6, (2, 3) * 3, 2)
    second = count_certified_decide(6, (2, 3) * 3, 2)
    assert first == second
    assert first[0] == "Block" and first[1] > 0


def test_counter_restores_the_trace_function_and_the_collector():
    before = sys.gettrace()
    count, out = count_opcodes(sorted, [3, 1, 2])
    assert out == [1, 2, 3]
    assert sys.gettrace() is before
    assert gc.isenabled()


def test_workflow_logs_the_counts():
    yaml = pytest.importorskip("yaml")
    path = os.path.join(os.path.dirname(__file__), "..", ".github", "workflows", "tests.yml")
    with open(path, encoding="utf-8") as fh:
        steps = yaml.safe_load(fh)["jobs"]["tier1"]["steps"]
    runs = [step.get("run", "") for step in steps]
    assert any("python tests/count_bytecodes.py" in run for run in runs)
