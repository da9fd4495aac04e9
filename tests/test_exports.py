"""Every exported name resolves: a name deleted from a module must leave
its ``__all__`` too. No module imports a name it does not use. Every layer
function the benchmark's spans wrap by name still exists."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import casecross

ROOT = Path(__file__).resolve().parent.parent

MODULES = ["casecross"] + [
    f"casecross.{m.name}" for m in pkgutil.iter_modules(casecross.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names {missing}"


def test_star_import_binds_linkers():
    # demos import the exposure linkers from the package
    namespace = {}
    exec("from casecross import *", namespace)
    assert {"link_pm25", "link_temperature"} <= namespace.keys()


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports and never reads as an ``ast.Name``, leaving out
    ``__future__`` imports and the names its ``__all__`` re-exports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_no_unused_imports():
    unused = {
        str(path.relative_to(ROOT)): names
        for folder in ("src/casecross", "tests", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if (names := _unused_imports(path))
    }
    assert unused == {}


def _bench_spans():
    """``bench/spans.py``, loaded by path. Its ``install``, which patches the
    package in process, is not called."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_span_targets_resolve():
    # a target that no longer resolves is silently left out of the
    # benchmark's per-layer metrics
    unresolved = []
    for module_name, attr, _ in _bench_spans().TARGETS:
        module = importlib.import_module(f"casecross.{module_name}")
        owner, _, name = attr.rpartition(".")
        if owner:   # a dotted name is wrapped as a classmethod
            found = isinstance(vars(getattr(module, owner, object)).get(name), classmethod)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            unresolved.append(f"{module_name}.{attr}")
    assert unresolved == []


def test_io_readers_and_writers_take_the_path_first():
    # the benchmark's spans read a write's path as its first argument
    from casecross import io

    names = [n for n in vars(io) if n.startswith(("read_", "write_"))]
    assert names
    assert [n for n in names if next(iter(inspect.signature(getattr(io, n)).parameters), None) != "path"] == []
