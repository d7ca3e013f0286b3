"""Every module of the package reads each name it imports, the package's
imports run one way, both bounds layers read aggregates one way, and no
private helper is dead: each private function, class, method and
module-level constant is named somewhere in the package besides its own
definition.  ``__init__`` only re-exports, so it is left out of the import
checks."""

import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

from setasp import DomainBounds, ground, parse_program, search
from setasp.ground import _Viability
from setasp.gz import gz_stable_models
from setasp.solver import find_stable_models

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "setasp"


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unread_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def test_every_module_reads_the_names_it_imports():
    modules = _modules()
    assert modules
    unread = {p.name: names for p in modules if (names := _unread_imports(p))}
    assert unread == {}


def _package_imports(path):
    """The sibling modules ``path`` imports, at any depth of its code:
    ``from .x import ...`` and ``from . import x``."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [a.name for a in node.names])
    return out


def _cycle(graph):
    """One import cycle of ``graph`` as a list of modules, or None."""
    state = {}

    def visit(name, path):
        state[name] = "open"
        for nxt in sorted(graph.get(name, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state and (found := visit(nxt, path + [nxt])):
                return found
        state[name] = "done"
        return None

    for name in sorted(graph):
        if name not in state and (found := visit(name, [name])):
            return found
    return None


def test_package_imports_have_no_cycle():
    graph = {p.stem: _package_imports(p) for p in _modules()}
    assert _cycle(graph) is None
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_the_reference_grounding_is_independent_of_the_instantiation():
    graph = {p.stem: _package_imports(p) for p in _modules()}
    assert "instantiate" not in graph["ground"]
    assert "solver" not in graph["ground"] | graph["instantiate"]


def test_both_engines_share_one_can_hold_test():
    """No package class but the instantiation subclasses the support
    fixpoint, so neither engine reads "can hold" in a way of its own."""
    for path in _modules():
        if path.stem != "__main__":  # it runs the command line
            importlib.import_module(f"setasp.{path.stem}")
    found, todo = [], [_Viability]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("setasp."):
                found.append(f"{cls.__module__}.{cls.__qualname__}")
    assert found == ["setasp.instantiate._Instantiation"]


def test_both_bounds_layers_share_one_aggregate_reading(monkeypatch):
    """Both engines read a ``count``'s values through
    ``ground.aggregate_values`` in propagation, and the equilibrium engine
    in its support fixpoint too (GZ takes its upper bound from
    propagation's root), while the semantics of their leaf checks never
    name it, so the two oracles stay apart."""
    callers = set()

    def recorded(*args, original=ground.aggregate_values):
        frame = sys._getframe(1)
        callers.add((frame.f_globals["__name__"], frame.f_code.co_name))
        return original(*args)

    assert search.aggregate_values is ground.aggregate_values
    for module in (ground, search):
        monkeypatch.setattr(module, "aggregate_values", recorded)
    text = "a(X) :- d(X), not b(X). b(X) :- d(X), not a(X). d(1). d(2). :- count{X : a(X)} != 1."
    propagation = {
        ("setasp.search", "_aggregate"),  # _Propagation, once per comparison
        ("setasp.search", "_admits"),  # _Propagation, at each tightening
    }
    viability = {("setasp.ground", "_aggregate_values")}  # the support fixpoint, _Viability
    for engine, expected in ((find_stable_models, propagation | viability), (gz_stable_models, propagation)):
        callers.clear()
        engine(parse_program(text), DomainBounds(int_min=0, int_max=2))
        assert callers == expected
    for stem in ("interp", "gz"):
        text = (PACKAGE / f"{stem}.py").read_text()
        assert not re.search(r"\b(aggregate_values|member_weight)\b", text), stem


def test_no_module_imports_inside_a_function():
    """A sibling module imported at top level is not imported again lower
    down; a function-level import only breaks a cycle, and there is none."""
    nested = {}
    for path in _modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and id(node) not in top:
                nested.setdefault(path.name, []).append(node.module)
    assert nested == {}


def _private_definitions(tree):
    """Names of the private module-level functions, classes and constants
    of a module and of the private methods of its classes (dunders are not
    private)."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names.extend(n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            names.append(node.target.id)
        scopes = [node, *node.body] if isinstance(node, ast.ClassDef) else [node]
        names.extend(d.name for d in scopes if isinstance(d, (ast.FunctionDef, ast.ClassDef)))
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def test_every_private_helper_is_used():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    defined = Counter(name for text in sources for name in _private_definitions(ast.parse(text)))
    assert {"_GZ_RELS", "_TOP_MARK", "_VALUE_CAP"} <= set(defined)
    unused = sorted(
        name
        for name, count in defined.items()
        if sum(len(re.findall(rf"\b{name}\b", text)) for text in sources) <= count
    )
    assert unused == []
