"""The README quick start and every demo script run, and its configuration example parses;
the README names only code that exists,
and every exported name is documented, demonstrated or an exception class.

The package imports no third-party module but numpy, as ``pyproject.toml`` declares,
the Monte-Carlo sampler takes nothing from the engine or the heralding layer but types,
every module-level private name is used somewhere in the package,
and every attribute the benchmark's traced mode rebinds exists and is called through.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted((ROOT / "src" / "photonmux").glob("*.py"))


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


def test_readme_configuration_parses(tmp_path):
    # The documented example must meet the rules that parse_config applies.
    from photonmux.config import parse_config

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert block is not None, "README has no JSON configuration block"
    path = tmp_path / "config.json"
    path.write_text(block.group(1), encoding="utf-8")
    config = parse_config(path)
    assert config.validation_points and config.sweeps


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


def test_public_names_are_documented_or_exercised():
    # A name earns its place in photonmux.__all__ by appearing in the README,
    # a demo or the acceptance suite; exception classes are exported so that
    # callers can catch them.
    import photonmux

    texts = [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py", *DEMOS]
    used = set().union(*(re.findall(r"\w+", path.read_text(encoding="utf-8")) for path in texts))
    for name in photonmux.__all__:
        value = getattr(photonmux, name)
        is_exception = isinstance(value, type) and issubclass(value, Exception)
        assert name in used or is_exception, f"photonmux.{name} is exported but used nowhere"


def import_nodes(path: Path) -> list[ast.Import | ast.ImportFrom]:
    """Every import statement of a file, including those inside functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def imported_top_level_modules(path: Path) -> set[str]:
    """Top-level names of every absolute import in a file."""
    names = set()
    for node in import_nodes(path):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}
    third_party = set().union(*map(imported_top_level_modules, SOURCES))
    third_party -= set(sys.stdlib_module_names) | {"photonmux"}
    assert third_party == {"numpy"}
    assert declared == third_party


def test_sampler_takes_only_types_from_engine_and_statistics():
    # The sampler is an independent check of the engine only while it
    # computes nothing with the engine's or the heralding layer's code.
    path = ROOT / "src" / "photonmux" / "montecarlo.py"
    assert "photonmux" not in imported_top_level_modules(path)
    imports = {
        (node.module, alias.name)
        for node in import_nodes(path)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    assert {pair for pair in imports if pair[0] != "transmission"} == {
        ("engine", "PhotonNumberDistribution"),
        ("statistics", "PairSourceModel"),
        ("statistics", "SourceKind"),
    }


def module_private_names(path: Path) -> set[str]:
    """Names with one leading underscore that a module defines at its top level."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if re.fullmatch(r"_[^_]\w*", name)}


def used_names(path: Path) -> set[str]:
    """Every name a module reads or looks up as an attribute; importing a name is not a use."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_module_private_names_are_used():
    # A private helper that nothing in the package calls any more is dead
    # code; tests alone do not keep it alive, and neither does an import.
    defined = set().union(*map(module_private_names, SOURCES))
    used = set().union(*map(used_names, SOURCES))
    assert defined
    assert sorted(defined - used) == []


def test_import_and_heralding_load_no_scipy():
    code = (
        "import sys, photonmux\n"
        "model = photonmux.PairSourceModel(photonmux.SourceKind.POISSONIAN, 3.0, 64)\n"
        "photonmux.herald_convolve(model, 0.9)\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def bench_module(name: str):
    """A module of ``bench/``, loaded from its file without editing anything there."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_rebinding_targets_exist():
    # The benchmark's traced mode (bench/run.py --trace 1) swaps each target
    # for a traced wrapper through a bare getattr, so a missing one breaks it.
    targets = bench_module("workloads").rebinding_targets()
    assert targets
    for module, attribute, *_ in targets:
        assert hasattr(module, attribute), f"{module.__name__}.{attribute} does not exist"


def test_bench_traces_the_optimizer_seams():
    # Rebinding swaps module globals, so a sweep that stopped calling
    # optimize_lambda through its module global would silently trace nothing.
    from photonmux.tables import TABLE1_ROWS, reproduce_table1_row

    spans, workloads = bench_module("spans"), bench_module("workloads")
    tracer = spans.Tracer()
    with spans.Rebinding(tracer, workloads.rebinding_targets()):
        reproduce_table1_row(TABLE1_ROWS[0])
    calls = {name: agg["calls"] for name, agg in tracer.summary().items()}
    assert calls.get("optimize.sweep") == 2
    assert calls.get("optimize.optimize_lambda") == 20


def test_bench_traces_a_tables_run(tmp_path):
    # A tables run solves all its sweeps as one but still calls sweep once
    # per sweep and optimize_lambda once per grid point through the rebound
    # names: one table-1 row (2 sweeps, 20 points) and one table-2 row (3
    # sweeps, 92 points), as the bench's tables workload runs them.
    from photonmux import cli
    from photonmux.tables import TABLE1_ROWS, TABLE2_ROWS

    spans, workloads = bench_module("spans"), bench_module("workloads")
    tracer = spans.Tracer()
    targets = workloads.rebinding_targets()
    with spans.Rebinding(tracer, targets):
        for module, attribute, *_ in targets:
            assert hasattr(getattr(module, attribute), "__wrapped__"), f"{module.__name__}.{attribute}"
        assert cli.run_tables(tmp_path, rows1=TABLE1_ROWS[:1], rows2=TABLE2_ROWS[:1]) == 0
    calls = {name: agg["calls"] for name, agg in tracer.summary().items()}
    assert calls.get("optimize.sweep") == 5
    assert calls.get("optimize.optimize_lambda") == 112
