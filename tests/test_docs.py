"""The README quick start and every demo script run; the README names only code that exists."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert block is not None, "README has no python block"
    result = run_python(["-c", block.group(1)])
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    result = run_python([str(demo)])
    assert result.returncode == 0, result.stderr


def test_library_layout_names_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(photonmux\.\w+)` +\|(.*)\|$", section, flags=re.MULTILINE)
    assert rows, "no module rows in the Library layout table"
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`(\w+)`", contents):
            assert hasattr(module, name), f"README lists {module_name}.{name}, which does not exist"
