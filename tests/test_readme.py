"""Every python code block in README.md runs as written, and so does every
shell block made only of ``fqsurf`` commands.

A shell block runs in a fresh directory, one command after another, through
``python -m fqsurf.cli``; each must exit 0, and a ``# -> text`` line pins the
standard output of the command before it.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)
SH_BLOCKS = [
    block
    for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)
    if all(line.startswith(("#", "fqsurf ")) for line in block.splitlines() if line.strip())
]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_readme_has_fqsurf_shell_blocks():
    assert len(SH_BLOCKS) >= 2


@pytest.mark.parametrize("block", SH_BLOCKS, ids=[f"sh-{i}" for i in range(len(SH_BLOCKS))])
def test_readme_shell_block_runs(block, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    stdout = None
    for line in block.splitlines():
        if line.startswith("# -> "):
            assert stdout == line[len("# -> "):] + "\n", line
        elif line.startswith("fqsurf "):
            run = subprocess.run(
                [sys.executable, "-m", "fqsurf.cli", *shlex.split(line)[1:]],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )
            assert run.returncode == 0, (line, run.stderr)
            stdout = run.stdout
