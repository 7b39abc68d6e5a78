"""The two ways a test runs the CLI: a fresh interpreter, or ``main`` in this one.

A fresh interpreter imports the package from this checkout's ``src`` (put
first on ``PYTHONPATH``) and writes no bytecode (``PYTHONDONTWRITEBYTECODE``),
so the children of a test run leave no ``__pycache__`` of their own behind.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from ellbundle._budget import BUDGET
from ellbundle.cli import main

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
# The one line on stderr of a query refused for its work.
BUDGET_REFUSAL = rf"error: query too large for its work budget \(\d+ units asked, \d+ of {BUDGET} left\)\n"


def child_env() -> dict:
    """The environment of a fresh interpreter on the source tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_child(*args: str, timeout: float = 20, **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter, with text stdout and stderr
    captured unless ``kwargs`` sends them elsewhere."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=child_env(), text=True, timeout=timeout, **kwargs)


def run_caught(argv) -> tuple:
    """(exit code, stdout, stderr) of main, with argparse's SystemExit caught."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()
