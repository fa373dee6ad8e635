"""The bytecode counter in ``tests/count_bytecodes.py`` is deterministic."""

import gc
import os
import sys

import pytest

from count_bytecodes import (
    CALLS,
    CLI_CHAIN,
    GROWTH_BOUND,
    LADDER,
    count_cli_chain,
    count_decide,
    count_opcodes,
    growth_within_bound,
)
from fqsurf.tessellation import face_count


def test_two_counts_of_one_call_agree():
    first = count_decide(6, (2, 3) * 3, 2, True)
    second = count_decide(6, (2, 3) * 3, 2, True)
    assert first == second
    assert first[0] == "Block" and first[1] > 0


@pytest.mark.parametrize("call", CALLS[:3], ids=["Block", "Subdiv2", "Subdiv4"])
def test_two_counts_of_one_uncertified_call_agree(call):
    first = count_decide(*call, False)
    assert count_decide(*call, False) == first
    assert first[1] > 0
    # the decision procedure alone costs less than the certified call
    assert first[1] < count_decide(*call, True)[1]


def test_two_counts_of_the_cli_chain_agree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    first = count_cli_chain()
    assert count_cli_chain() == first > 0
    assert [argv[0] for argv in CLI_CHAIN] == [
        "tessellate", "validate", "loops", "color", "certify", "export"]
    # the chain ran in a directory of its own, which is gone
    assert list(tmp_path.iterdir()) == [] and os.getcwd() == str(tmp_path)


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
    assert any("python tests/count_bytecodes.py --ladder" in run for run in runs)
    assert any("python tests/count_bytecodes.py --cli" in run for run in runs)


def test_growth_bound_is_relative_to_the_face_count():
    assert GROWTH_BOUND == 1.15
    assert growth_within_bound(16, 100, 1024, 6400)
    assert growth_within_bound(16, 100, 1024, 7350)
    assert not growth_within_bound(16, 100, 1024, 7370)
    # a quadratic pass fails at once
    assert not growth_within_bound(16, 100, 1024, 100 * 64 * 64)


def test_ladder_rungs_span_the_face_counts():
    for method, p, _q, genera in LADDER:
        faces = [face_count(p, g) for g in genera]
        assert faces == sorted(faces) and len(faces) == 4
        if method == "Subdiv4":
            assert faces == [9, 25, 65, 1025]
        else:
            assert 14 <= faces[0] <= 16 and 1022 <= faces[-1] <= 1024
