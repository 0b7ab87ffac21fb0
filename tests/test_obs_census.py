"""The metrics census as a check: one way in, one row per instrument.

Two static halves, AST-only like ``tests/test_census.py`` (nothing is
imported or executed):

* Every row of the Counters, Gauges and Histograms tables of
  ``docs/OBSERVABILITY.md`` names an instrument that ``src/repro``
  binds, and every bound instrument has a row.  A name built at run
  time (``f"lsm.components.{index}"``) is matched against the
  ``<placeholder>`` row of the same shape; a span binds
  ``<span>.seconds`` and ``<span>.errors`` for each name passed to
  ``span(...)``.  ``repro stats --selfcheck`` checks only what one
  scripted ingest emits, and that ingest builds no feed, estimate
  service or memory arbiter.
* No function in ``src/repro`` takes a ``registry`` parameter but
  ``repro.obs.tracing.span`` (the tree hands it the registry it bound)
  and the two selectors themselves: an object binds ``get_registry()``
  at construction, and ``use_registry`` / ``set_registry`` is the one
  way to choose the registry.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
DOCS = ROOT / "docs" / "OBSERVABILITY.md"
TABLES = ("Counters", "Gauges", "Histograms")
KINDS = ("counter", "gauge", "histogram")
HOLE = "<>"  # a run-time segment of a bound name


def _documented():
    """Metric names of the three instrument tables, by section."""
    rows, section = [], None
    for line in DOCS.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            section = line[3:].strip()
        elif section in TABLES and line.startswith("| `"):
            rows.append(re.match(r"\| `([^`]+)`", line).group(1))
    return rows


def _shape(node):
    """A literal name, or its shape with ``<>`` for each run-time part;
    ``None`` when the name is not built from literals at all."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else HOLE
            for part in node.values
        )
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left, right = _shape(node.left), _shape(node.right)
        return None if left is None else left + (HOLE if right is None else right)
    return None


def _calls():
    """``(file, call)`` for every call in ``src/repro``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                yield path, node


def _bound():
    """Names (or shapes) the program binds, and the calls whose name
    the census cannot read."""
    names, unreadable = set(), []
    tracing = PACKAGE / "obs" / "tracing.py"
    for path, call in _calls():
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in KINDS and call.args:
            if path == tracing:  # the span template, expanded below
                continue
            shape = _shape(call.args[0])
        elif isinstance(func, ast.Name) and func.id == "span" and call.args:
            shape = _shape(call.args[0])
            if shape is not None:
                names.update({f"{shape}.seconds", f"{shape}.errors"})
                continue
        else:
            continue
        if shape is None:
            unreadable.append(f"{path.relative_to(ROOT)}:{call.lineno}")
        else:
            names.add(shape)
    return names, unreadable


def _matches(row, name):
    """Whether a documented row covers a bound name or shape."""
    if "<" not in row:
        return row == name
    pattern = re.sub(r"<[^>]+>", "\0", row)
    regex = ".+".join(re.escape(part) for part in pattern.split("\0"))
    return re.fullmatch(regex, name.replace(HOLE, "x")) is not None


def test_rows_and_bound_instruments_match_one_to_one():
    rows = _documented()
    names, unreadable = _bound()
    assert len(rows) > 50 and len(names) > 50  # an empty walk would pass
    assert unreadable == [], "instrument names the census cannot read"
    assert len(rows) == len(set(rows)), "a metric with two rows"
    unbound = sorted(r for r in rows if not any(_matches(r, n) for n in names))
    undocumented = sorted(n for n in names if not any(_matches(r, n) for r in rows))
    assert unbound == [], "documented rows that src/repro never binds"
    assert undocumented == [], "bound instruments without a row"


def test_only_span_takes_a_registry():
    takers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                if any(a.arg == "registry" for a in params):
                    name = getattr(node, "name", "<lambda>")
                    takers.append(f"{path.relative_to(PACKAGE)}::{name}")
    assert takers == [
        "obs/registry.py::set_registry",
        "obs/registry.py::use_registry",
        "obs/tracing.py::span",
    ]


def test_shapes_and_placeholders():
    assert _matches("lsm.components.<index>", "lsm.components.<>")
    assert _matches("<span>.errors", "lsm.flush.errors")
    assert not _matches("lsm.components.<index>", "lsm.components")
    assert not _matches("lsm.flush.count", "lsm.flush.count.x")
    call = ast.parse('f"a.{b}.c" + "d"', mode="eval").body
    assert _shape(call) == "a.<>.cd"
