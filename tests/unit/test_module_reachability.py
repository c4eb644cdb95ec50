"""Every module under ``src/repro`` must be reached from an entry point.

A module stays in the library only if one of these reaches it through
``import`` statements: the CLI (``repro.cli``), the serve front door
(``repro.serve``), the paper figures (``repro.evaluation.experiments``),
the registered benchmark workloads (``perfbench/workloads.py``) or a
``benchmarks/*.py`` script that CI runs.  Anything else is deleted, or it
sits in :data:`ALLOWED_UNREACHED` with the reason it stays (README's
"Module scope" gives the same reasons).

The walk is static.  It follows every ``import`` in a reached file,
function-local ones included.  Importing ``a.b.c`` reaches the packages
``a`` and ``a.b`` too, but a package's ``__init__`` re-exports are not
followed: ``from repro.core import IncrementalEvaluator`` reaches
``repro.core.incremental``, the module the name is re-exported from, and
not the rest of ``repro.core``.  Otherwise every module any package
re-exports would count as reached.
"""

from __future__ import annotations

import ast
import re
import shutil
from fnmatch import fnmatch
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
CI_WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"

ENTRY_MODULES = ("repro.cli", "repro.serve", "repro.evaluation.experiments")
ENTRY_SCRIPTS = ("perfbench/workloads.py",)

ALLOWED_UNREACHED = {
    "repro.baselines.gold_standard": (
        "the gold-answer comparator that examples/dataset_benchmarks.py "
        "checks the agreement-only intervals against"
    ),
    "repro.stats.intervals": (
        "the Wald and Wilson intervals behind "
        "repro.baselines.gold_standard"
    ),
}


def _module_file(name: str, search: list[Path]) -> Path | None:
    parts = name.split(".")
    for root in search:
        base = root.joinpath(*parts)
        for candidate in (base.with_suffix(".py"), base / "__init__.py"):
            if candidate.is_file():
                return candidate
    return None


def _search_path(path: Path) -> list[Path]:
    # A script also imports its own directory's files (``from conftest
    # import emit``); library modules import absolutely.
    if path.is_relative_to(SRC):
        return [SRC]
    return [SRC, REPO, path.parent]


def _with_packages(name: str, search: list[Path]) -> list[Path]:
    parts = name.split(".")
    found = []
    for depth in range(1, len(parts) + 1):
        target = _module_file(".".join(parts[:depth]), search)
        if target is not None:
            found.append(target)
    return found


def _reexport_source(package: Path, attribute: str) -> str | None:
    """The module a package's ``__init__`` imports ``attribute`` from."""
    for node in ast.parse(package.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                if (alias.asname or alias.name) == attribute:
                    return f"{node.module}.{alias.name}"
    return None


def _resolve_from(module: str, attribute: str, search: list[Path]) -> list[Path]:
    """Files reached by ``from module import attribute``."""
    submodule = f"{module}.{attribute}"
    if _module_file(submodule, search) is not None:
        return _with_packages(submodule, search)
    target = _module_file(module, search)
    if target is not None and target.name == "__init__.py":
        source = _reexport_source(target, attribute)
        if source is not None:
            source_module, _, source_name = source.rpartition(".")
            return _resolve_from(source_module, source_name, search)
    return _with_packages(module, search)


def _imports(path: Path) -> list[Path]:
    search = _search_path(path)
    reached: list[Path] = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                reached += _with_packages(alias.name, search)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import not walked"
            for alias in node.names:
                reached += _resolve_from(node.module, alias.name, search)
    return reached


def ci_benchmark_scripts() -> list[Path]:
    """``benchmarks/*.py`` files that a CI step names or collects."""
    workflow = CI_WORKFLOW.read_text()
    named = set(re.findall(r"benchmarks/(\w+\.py)", workflow))
    patterns = [
        pattern
        for group in re.findall(r'python_files="([^"]+)"', workflow)
        for pattern in group.split()
    ]
    return sorted(
        path
        for path in (REPO / "benchmarks").glob("*.py")
        if path.name in named or any(fnmatch(path.name, p) for p in patterns)
    )


def reached_modules() -> set[str]:
    roots = [_module_file(name, [SRC]) for name in ENTRY_MODULES]
    roots += [REPO / script for script in ENTRY_SCRIPTS]
    roots += ci_benchmark_scripts()
    reached: set[Path] = set()
    pending = list(roots)
    while pending:
        path = pending.pop()
        if path in reached:
            continue
        reached.add(path)
        # Entry points are walked even when they are packages; any other
        # package __init__ only re-exports, so its imports are not edges.
        if path.name != "__init__.py" or path in roots:
            pending += _imports(path)
    return {_dotted(path) for path in reached if path.is_relative_to(SRC)}


def _dotted(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def all_modules() -> set[str]:
    return {_dotted(path) for path in (SRC / "repro").rglob("*.py")}


def test_every_module_is_reached_or_allowed():
    unreached = all_modules() - reached_modules() - set(ALLOWED_UNREACHED)
    assert not unreached, (
        f"no entry point imports {sorted(unreached)}: delete them, or add "
        "each to ALLOWED_UNREACHED with the reason it stays"
    )


def test_allow_list_names_only_unreached_modules():
    stale = set(ALLOWED_UNREACHED) & reached_modules()
    missing = set(ALLOWED_UNREACHED) - all_modules()
    assert not stale, f"reached now, drop from ALLOWED_UNREACHED: {sorted(stale)}"
    assert not missing, f"no such module: {sorted(missing)}"
    assert all(reason.strip() for reason in ALLOWED_UNREACHED.values())


def test_ci_runs_every_figure_check():
    checks = sorted((REPO / "benchmarks").glob("bench_fig*.py"))
    checks += sorted((REPO / "benchmarks").glob("bench_ablation_*.py"))
    assert checks
    assert set(checks) <= set(ci_benchmark_scripts())


# The walker itself, on small trees laid out like this repository.


def _tree(tmp_path, monkeypatch, files, workflow=""):
    """Write ``files`` under ``tmp_path`` and point the walker at it."""
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    ci = tmp_path / ".github" / "workflows" / "ci.yml"
    ci.parent.mkdir(parents=True, exist_ok=True)
    ci.write_text(workflow)
    (tmp_path / "benchmarks").mkdir(exist_ok=True)
    monkeypatch.setitem(globals(), "REPO", tmp_path)
    monkeypatch.setitem(globals(), "SRC", tmp_path / "src")
    monkeypatch.setitem(globals(), "CI_WORKFLOW", ci)
    monkeypatch.setitem(globals(), "ENTRY_MODULES", ("repro.cli",))
    monkeypatch.setitem(globals(), "ENTRY_SCRIPTS", ())


def test_new_unimported_module_fails_the_rule(tmp_path, monkeypatch):
    # The real entry points and scripts, over a copy of the library that
    # gains one module nothing imports.
    shutil.copytree(SRC, tmp_path / "src")
    (tmp_path / "src" / "repro" / "orphan.py").write_text("import numpy\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path / "src")

    with pytest.raises(AssertionError, match="repro.orphan"):
        test_every_module_is_reached_or_allowed()


def test_function_local_import_is_an_edge(tmp_path, monkeypatch):
    _tree(tmp_path, monkeypatch, {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": "def main():\n    import repro.lazy\n",
        "src/repro/lazy.py": "",
    })
    assert reached_modules() == {"repro", "repro.cli", "repro.lazy"}


def test_dotted_import_reaches_every_enclosing_package(tmp_path, monkeypatch):
    _tree(tmp_path, monkeypatch, {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": "import repro.stats.normal\n",
        "src/repro/stats/__init__.py": "",
        "src/repro/stats/normal.py": "",
    })
    assert reached_modules() == {
        "repro", "repro.cli", "repro.stats", "repro.stats.normal",
    }


def test_package_reexports_are_not_followed(tmp_path, monkeypatch):
    _tree(tmp_path, monkeypatch, {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": "from repro.core import Used\n",
        "src/repro/core/__init__.py": (
            "from repro.core.used import Used\n"
            "from repro.core.unused import Unused\n"
        ),
        "src/repro/core/used.py": "class Used: ...\n",
        "src/repro/core/unused.py": "class Unused: ...\n",
    })
    reached = reached_modules()
    assert "repro.core.used" in reached
    assert "repro.core.unused" not in reached
    assert all_modules() - reached == {"repro.core.unused"}


def test_relative_imports_are_refused(tmp_path, monkeypatch):
    _tree(tmp_path, monkeypatch, {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": "from . import other\n",
        "src/repro/other.py": "",
    })
    with pytest.raises(AssertionError, match="relative import"):
        reached_modules()


def test_ci_scripts_are_named_or_collected(tmp_path, monkeypatch):
    workflow = (
        "run: python benchmarks/named.py\n"
        'run: pytest benchmarks -o python_files="bench_fig*.py bench_x_*.py"\n'
    )
    _tree(tmp_path, monkeypatch, {
        "benchmarks/named.py": "",
        "benchmarks/bench_fig9.py": "",
        "benchmarks/bench_x_one.py": "",
        "benchmarks/bench_other.py": "",
    }, workflow=workflow)
    assert [path.name for path in ci_benchmark_scripts()] == [
        "bench_fig9.py", "bench_x_one.py", "named.py",
    ]


def test_benchmark_script_reaches_its_sibling_helpers(tmp_path, monkeypatch):
    _tree(tmp_path, monkeypatch, {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": "",
        "src/repro/shelf.py": "",
        "benchmarks/helpers.py": "import repro.shelf\n",
        "benchmarks/bench_fig1.py": "from helpers import emit\n",
    }, workflow='python_files="bench_fig*.py"\n')
    assert "repro.shelf" in reached_modules()
