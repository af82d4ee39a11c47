"""The README's library quick start runs in a fresh interpreter and
gives the values that its comments state."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXACT = "exact_lambda(g, params)"
BOUND = "lambda_bound(build_sir_system(g, params))"


def quick_start() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_and_gives_its_stated_values():
    code = quick_start()
    for expr, stated in ((EXACT, "0.9074..."), (BOUND, "3.5")):
        assert re.search(rf"^{re.escape(expr)} +#.* {re.escape(stated)}",
                         code, re.M), f"README no longer states {expr}"
    probe = f"print(repr({EXACT}))\nprint(repr({BOUND}))\n"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code + probe], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    exact, bound = map(float, done.stdout.split())
    assert 0.9074 <= exact < 0.9075
    assert bound == pytest.approx(3.5, rel=1e-9)
