"""The module census as a check: nothing in ``src/repro`` is dead weight.

Every module must be imported by some module of the program proper --
``src/repro`` itself, ``e2ebench``, ``benchmarks`` or ``examples`` --
and a re-export from its own package's ``__init__`` does not count:
that is how a module nothing drives stays on the shelf looking used
(``repro.cluster.query``, deleted by the PR that added this test).
``tests/`` is deliberately not a consumer.  A name imported from a
package is resolved through that package's ``__init__`` to the module
that defines it, so ``from repro.cluster import LSMCluster`` is an
import of ``repro.cluster.cluster``.

Static and AST-only: nothing is imported or executed.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONSUMERS = [SRC / "repro", ROOT / "e2ebench", ROOT / "benchmarks", ROOT / "examples"]

# Kept although only tests import them -- the reason is the census row.
ALLOWED = {
    "repro.core.persistence": (
        "catalog save / load, paper Section 3.4; subject of the ROADMAP's "
        "durable-state-fuzz item"
    ),
    "repro.workloads.dictionary": (
        "the paper's string-to-integer reduction, exercised by "
        "tests/core/test_string_field_statistics.py"
    ),
}


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


SOURCES = {_module_name(path): path for path in (SRC / "repro").rglob("*.py")}


@functools.cache
def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _is_package(name):
    return name in SOURCES and SOURCES[name].name == "__init__.py"


def _imports(path, module):
    """Yield ``(module, imported name or None, local name)`` for every
    import statement in a file, function-level ones included, relative
    ones made absolute against the importing ``module``."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, alias.asname or alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module if _is_package(module) else module.rpartition(".")[0]
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                yield base, alias.name, alias.asname or alias.name


def _resolve(module, name):
    """The ``repro`` module an import of ``name`` from ``module`` lands
    in: a submodule, or -- through a package ``__init__``'s own imports
    -- the module that defines the name."""
    if name is None or module not in SOURCES:
        return module
    if f"{module}.{name}" in SOURCES:
        return f"{module}.{name}"
    if _is_package(module):
        for base, imported, local in _imports(SOURCES[module], module):
            if local == name and imported is not None:
                return _resolve(base, imported)
    return module


def _importers():
    """``{repro module: set of files importing it}``, a package's own
    ``__init__`` excluded for the modules directly inside it."""
    importers = {name: set() for name in SOURCES}
    for root in CONSUMERS:
        for path in root.rglob("*.py"):
            inside = path.is_relative_to(SRC)
            importer = _module_name(path) if inside else str(path.relative_to(ROOT))
            for base, name, _local in _imports(path, importer if inside else ""):
                target = _resolve(base, name)
                if target not in importers or target == importer:
                    continue
                own_init = _is_package(importer) and target.rpartition(".")[0] == importer
                if not own_init:
                    importers[target].add(importer)
    return importers


def test_every_module_has_a_consumer():
    importers = _importers()
    # Packages and ``__main__`` entry points are plumbing, not rows.
    rows = [
        name
        for name, path in SOURCES.items()
        if path.name not in ("__init__.py", "__main__.py")
    ]
    assert len(rows) > 80  # an empty walk would pass silently
    unconsumed = sorted(name for name in rows if not importers[name])
    assert unconsumed == sorted(ALLOWED), (
        "modules nothing outside tests/ imports (delete them, or allowlist "
        f"with a reason), and stale allowlist rows: "
        f"{sorted(set(unconsumed) ^ set(ALLOWED))}"
    )


def test_resolution_goes_through_package_init():
    assert _resolve("repro.cluster", "LSMCluster") == "repro.cluster.cluster"
    assert _resolve("repro.cluster", "feeds") == "repro.cluster.feeds"
    assert _resolve("repro.cluster.feeds", "FileFeed") == "repro.cluster.feeds"
