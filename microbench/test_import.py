"""Micro-benchmark of the package import, in a fresh interpreter per round.

Every ``screenfit`` command and every benchmark worker starts with
``import screenfit, screenfit.cli``, so a heavy import shows up here as
its own cost, apart from the set-up time of an end-to-end run.  Each
round starts one subprocess; ``test_interpreter_start`` times an empty
interpreter the same way, so the difference is the import.  Run with

    PYTHONPATH=src python -m pytest microbench/test_import.py --benchmark-only
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ROUNDS = 15


def _python(code: str) -> None:
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize(
    "code",
    [
        pytest.param("pass", id="interpreter_start"),
        pytest.param("import screenfit, screenfit.cli", id="import_screenfit"),
    ],
)
def test_import(benchmark, code):
    benchmark.pedantic(_python, args=(code,), rounds=ROUNDS, iterations=1, warmup_rounds=1)
