"""The package's import graph: layers without a cycle.

`blas` is a leaf, `cache` knows only files (the key comes from `model`,
which owns both contracts it covers), and no module imports one that
imports it back, at module level or inside a function.  The names that
perfbench's tracer patches stay where it looks for them.  Every file is
written by one function, `cache.write_whole`.  One BLAS library serves
the process, and only `blas` knows it: no module imports `scipy.linalg`,
no other module imports `ctypes`, every LAPACK routine that the solve
calls is in numpy's bundled OpenBLAS, and without that library the
package refuses to run.  A universe is built from its config alone: no
function takes a config beside a basis or an rng.  Every public
function, class, method and property, and every config field, is read
somewhere in the package.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quniverse"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _imports(path: Path) -> set[str]:
    """The quniverse modules that the module at `path` imports anywhere in its body.

    A name imported from the package itself that is not a module (such
    as `__version__`) comes from `__init__`, which imports nothing.
    """
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 1 or base.split(".")[0] == "quniverse":
                base = base.removeprefix("quniverse").lstrip(".")
                if base:
                    found.add(base.split(".")[0])
                else:  # from . import a, b
                    found.update(alias.name if alias.name in MODULES else "__init__"
                                 for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("quniverse."))
    return found - {"__init__"}


@pytest.fixture(scope="module")
def graph():
    return {name: _imports(PACKAGE / f"{name}.py") for name in sorted(MODULES)}


def test_graph_is_read(graph):
    # the walk sees what the package is known to import
    assert {"blas", "cache", "config", "rng"} <= graph["model"]
    assert {"blas", "dynamics", "model"} <= graph["cli"]
    assert set().union(*graph.values()) <= MODULES


def test_no_module_imports_one_that_imports_it_back(graph):
    def reaches(start, target, seen=()):
        return any(m == target or (m not in seen and reaches(m, target, (*seen, m)))
                   for m in graph[start])

    cycles = sorted(name for name in graph if reaches(name, name))
    assert cycles == [], f"modules on an import cycle: {cycles}"


def test_cache_knows_only_files(graph):
    assert graph["cache"] & {"model", "config", "rng"} == set()


def test_blas_is_a_leaf(graph):
    assert graph["blas"] == set()


# Targets of perfbench/spans.py that the package has not had for several
# versions; the harness reports them as absent.  No other may go missing.
STALE_TARGETS = {"cache.solve_with_cache", "dynamics.propagate_to_times",
                 "observables.observable_record", "analysis.shell_decompose",
                 "analysis.stick_diagram"}


def test_every_traced_name_resolves_but_the_known_stale_ones():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PACKAGE.parent.parent / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = set()
    for name, module, path in spans.TARGETS:
        owner = importlib.import_module(module)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            unresolved.add(name)
    assert unresolved <= STALE_TARGETS, sorted(unresolved - STALE_TARGETS)


def test_one_whole_file_writer():
    """No module renames a file into place or makes a tmp file but `cache.write_whole`."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        if path.stem == "cache":
            writer = next(node for node in ast.parse("\n".join(lines)).body
                          if getattr(node, "name", None) == "write_whole")
            first = min(node.lineno for node in (writer, *writer.decorator_list)) - 1
            lines[first:writer.end_lineno] = []
        found += [f"{path.name}: {line.strip()}" for line in lines
                  if re.search(r"\bos\.replace\b|\btempfile\b", line)]
    assert found == []


# Clocks that measure durations; `time.time_ns` stamps an entry's access time.
CLOCKS = {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns", "process_time"}


def test_only_stage_reads_the_clock():
    """Every duration the package measures is a `model.stage`: no other code reads a clock."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        stage = next((node for node in tree.body if path.stem == "model"
                      and getattr(node, "name", None) == "stage"), None)
        inside_stage = {id(node) for node in ast.walk(stage)} if stage else set()
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if (getattr(node, "attr", None) in CLOCKS
                      or isinstance(node, ast.alias) and node.name in CLOCKS)
                  and id(node) not in inside_stage]
    assert found == []


def test_only_checked_computes_the_eigen_residual():
    """Every eigensystem, a cache hit, a solve or the alpha = 0 diagonal, passes the one
    eigen check, `model._checked`: no other code calls `eigen_residual`."""
    calls = {}  # "file:line" of each call -> whether `_checked` makes it
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        checked = next((node for node in tree.body if path.stem == "model"
                        and getattr(node, "name", None) == "_checked"), None)
        inside_checked = {id(node) for node in ast.walk(checked)} if checked else set()
        calls.update((f"{path.name}:{node.lineno}", id(node) in inside_checked)
                     for node in ast.walk(tree) if isinstance(node, ast.Call)
                     and "eigen_residual" in (getattr(node.func, "id", None),
                                              getattr(node.func, "attr", None)))
    assert any(calls.values())
    assert [call for call, in_checked in calls.items() if not in_checked] == []


def test_no_module_imports_scipy_linalg():
    """Neither at module level nor inside a function: it would load scipy's own OpenBLAS."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name == "scipy.linalg" or name.startswith("scipy.linalg.")]
    assert found == []


def test_only_blas_imports_ctypes():
    """The library's ABI (symbol names, ILP64 integers, string lengths) is known in `blas` alone."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "ctypes" for name in names if name):
                found.add(path.stem)
    assert found == {"blas"}


def test_every_routine_the_solve_calls_resolves_in_numpy_openblas():
    from quniverse import blas, model

    names = {node.args[0].value for solve in (model.diagonalize, model.diagonal_eigensystem)
             for node in ast.walk(ast.parse(inspect.getsource(solve)))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "lapack"}
    assert names == {"dsytrd", "dtrttp", "dstedc", "dtpttr", "dormtr", "dsteqr"}
    for name in sorted(names):
        assert callable(getattr(blas.gemm_openblas().lib, f"scipy_{name}_64_")), name


def test_without_numpy_bundled_openblas_the_package_refuses(tmp_path, monkeypatch):
    from quniverse import blas

    # a numpy whose directory has no numpy.libs beside it, as in a build
    # against another BLAS
    monkeypatch.setattr(blas.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    with pytest.raises(RuntimeError, match="OpenBLAS that numpy's PyPI wheel bundles"):
        blas.gemm_openblas.__wrapped__()


# What a universe is built from, by parameter name or annotation.
BUILT_FROM = {"config": "ModelConfig", "basis": "UniverseBasis", "rng": "SeededRng"}


def _takes_config_and_what_it_builds(tree: ast.AST) -> list[str]:
    """The functions in `tree` that take a config beside a basis or an rng."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        kinds = set()
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs):
            annotation = ast.unparse(arg.annotation) if arg.annotation else ""
            kinds |= {kind for kind, cls in BUILT_FROM.items()
                      if arg.arg == kind or re.search(rf"\b{cls}\b", annotation)}
        if "config" in kinds and kinds - {"config"}:
            found.append(f"{node.name}:{node.lineno}")
    return found


def test_no_function_takes_a_basis_beside_its_config():
    """Every function that needs a basis or an rng of a universe builds it from the config
    (`model.build_basis`, `SeededRng(config.rng_seed)`), so none can be paired with another
    universe's."""
    sample = "def f(config, basis): pass\ndef g(c: ModelConfig, r: SeededRng | None): pass\n"
    assert _takes_config_and_what_it_builds(ast.parse(sample)) == ["f:1", "g:2"]
    found = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in _takes_config_and_what_it_builds(ast.parse(path.read_text(), str(path)))]
    assert found == []


def _unread_public_names(trees: dict[str, ast.AST]) -> list[str]:
    """`module.name` (or `module.Class.name`) of every public module-level function or class,
    method or property in `trees` whose name no node outside its own definition reads."""
    defined = []  # (qualified name, name, ids of the definition's nodes)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name, node))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{item.name}", item.name, item)
                            for item in node.body if isinstance(item, ast.FunctionDef)]
    reads = []  # (name, id of the node)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((node.id, id(node)))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((node.attr, id(node)))
    unread = []
    for qualified, name, definition in defined:
        if name.startswith("_") or qualified == "cli.main":
            continue
        inside = {id(node) for node in ast.walk(definition)}
        if not any(read == name and node not in inside for read, node in reads):
            unread.append(qualified)
    return unread


def test_every_public_function_is_read_by_the_package():
    """Public surface that nothing in the package reads is dead code kept alive by tests;
    the command line's `main` is its entry point."""
    sample = ("class A:\n    def used(self): return self.used\n    def read(self): pass\n"
              "def f(): return f()\ndef g(): return A().read()\ndef main(): g()\n")
    assert _unread_public_names({"m": ast.parse(sample)}) == ["m.A.used", "m.f", "m.main"]
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_public_names(trees) == []


def test_every_config_field_is_read_by_the_package():
    """A config field that no code reads changes nothing a run computes, only the config's
    hash: every field is the attribute of some attribute load in the package."""
    from quniverse.config import ModelConfig

    reads = {node.attr for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert [f.name for f in dataclasses.fields(ModelConfig) if f.name not in reads] == []
