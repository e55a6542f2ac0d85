"""Checks on the package source itself."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import causaleffects

PACKAGE_DIR = Path(causaleffects.__file__).parent


def test_package_has_no_assert_statements():
    """Invariants raise typed errors: ``assert`` vanishes under ``python -O``."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def _unused_imports(tree: ast.Module, exported, star_names) -> list[tuple[str, int]]:
    """Names an import binds that the module never reads and ``exported``,
    its runtime ``__all__``, does not list (``from __future__`` imports
    excepted).  ``from .m import *`` binds each name of
    ``star_names(".m")``, the ``__all__`` of that module, and a star import
    from a module without one (``star_names`` gives None) is reported as
    ``*``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
                    continue
                names = star_names("." * node.level + (node.module or ""))
                for name in ("*",) if names is None else names:
                    bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used |= set(exported)
    return sorted((name, line) for name, line in bound.items() if name not in used)


def _package_module(path: Path):
    return causaleffects if path.name == "__init__.py" else \
        importlib.import_module(f"causaleffects.{path.stem}")


def _package_star_names(name: str):
    return getattr(importlib.import_module(name, "causaleffects"), "__all__", None)


def test_package_has_no_unused_imports():
    """The repo has no linter; an import nothing reads is dead weight."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exported = getattr(_package_module(path), "__all__", ())
        found += [f"{path.name}:{line} {name}"
                  for name, line in _unused_imports(tree, exported, _package_star_names)]
    assert not found, f"unused imports in the package: {found}"


def test_unused_import_check_sees_each_kind_of_waste():
    star_names = {".exported": ["A", "B"], ".bare": None}.get
    sources = {
        "import os\nfrom .exported import A\n__all__ = []\n": ([], [("A", 2), ("os", 1)]),
        "from .bare import *\nprint(x)\n": ([], [("*", 1)]),
        "from .exported import *\n__all__ = ['A']\n": (["A"], [("B", 1)]),
    }
    for source, (exported, found) in sources.items():
        assert _unused_imports(ast.parse(source), exported, star_names) == found, source


def test_package_exports_every_module_export():
    """``from causaleffects import X`` works for every name a module lists."""
    missing = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"causaleffects.{path.stem}")
        missing += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())
                    if name not in causaleffects.__all__]
    assert not missing, f"module exports missing from the package __all__: {missing}"


# the numeric types whose isinstance tests belong to errors.py alone
_NUMERIC_NAMES = {"int", "float", "Number", "Complex", "Real", "Rational", "Integral"}
_NUMERIC_ATTRIBUTES = {"integer", "floating", "number", "Number", "Complex", "Real",
                       "Rational", "Integral"}


def _numeric_type_tests(tree: ast.Module) -> list[int]:
    """Lines of ``isinstance`` calls against ``int``, ``float``,
    ``np.integer``, ``np.floating`` or a ``numbers`` class."""
    def numeric(node) -> bool:
        if isinstance(node, ast.Tuple):
            return any(map(numeric, node.elts))
        if isinstance(node, ast.Name):
            return node.id in _NUMERIC_NAMES
        return isinstance(node, ast.Attribute) and node.attr in _NUMERIC_ATTRIBUTES

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and numeric(node.args[1])]


def test_numeric_type_tests_live_in_errors_only():
    """What a count and a finite number are is decided once, in
    ``errors._integer`` and ``errors._finite``."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in _numeric_type_tests(tree)]
    assert not found, f"numeric isinstance tests outside errors.py: {found}"


# the texts of the label rule's refusals, which errors.py alone words;
# _check_treatment's message for an unhashable treatment label names the set
_LABEL_MESSAGES = ("unknown vertex label", "duplicate vertex label")
_LABEL_MESSAGE_EXEMPT = "unknown vertex label in treatment"


def _label_rule_copies(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, what)`` wherever a module words a label-rule refusal itself
    (a string literal, or an f-string's text, starting with one of
    :data:`_LABEL_MESSAGES`) or defines ``__missing__``, the hook of a dict
    subclass that refuses lookups its own way."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.startswith(_LABEL_MESSAGES) \
                and not node.value.startswith(_LABEL_MESSAGE_EXEMPT):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.ClassDef):
            found += [(f.lineno, f"{node.name}.__missing__") for f in node.body
                      if isinstance(f, ast.FunctionDef) and f.name == "__missing__"]
    return sorted(found)


def test_label_rule_lives_in_errors_only():
    """Vertex labels map to positions by ``errors._label_map``, and a
    repeated or unknown label is refused in ``errors.py``'s words alone."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {what}" for line, what in _label_rule_copies(tree)]
    assert not found, f"label-rule refusals outside errors.py: {found}"


def test_label_rule_check_sees_each_kind_of_copy():
    source = """
class Index(dict):
    def __missing__(self, label):
        raise KeyError(label)
def f(v, treatment):
    raise ValueError(f"unknown vertex label {v!r}")
    message = "duplicate vertex labels"
    raise ValueError(f"unknown vertex label in treatment {treatment!r}")
"""
    assert _label_rule_copies(ast.parse(source)) == [
        (3, "Index.__missing__"), (6, "'unknown vertex label '"), (7, "'duplicate vertex labels'")]


# what reads data or accepts their moments, which estimate._moments alone calls
_DATA_PATH = {"_data_matrix", "SampleCovariance"}


def _calls_outside(tree: ast.Module, names: set, home: str | None) -> list[tuple[int, str]]:
    """``(line, name)`` for every call of one of ``names``, by name or as an
    attribute, outside a function named ``home`` (everywhere when ``home``
    is None)."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == home:
            return
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in names:
                found.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return sorted(found)


def test_estimate_reads_data_on_one_path():
    """In ``estimate.py`` data are checked, and their full-data covariance
    accepted, in ``_moments`` alone, so an estimate cannot check its data a
    second time unnoticed."""
    path = PACKAGE_DIR / "estimate.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = _calls_outside(tree, _DATA_PATH, "_moments")
    assert not found, f"data read or accepted outside estimate._moments: {found}"


def test_data_path_check_sees_each_kind_of_copy():
    source = """
def _moments(data, columns):
    x = _data_matrix(data, columns)
    return x, SampleCovariance(x.T @ x, columns)
def bootstrap(data, columns):
    x = estimate._data_matrix(data, columns)
    cov = SampleCovariance(x.T @ x, columns)
    def _moments_again(x):
        return SampleCovariance(x, columns)
"""
    assert _calls_outside(ast.parse(source), _DATA_PATH, "_moments") == [
        (6, "_data_matrix"), (7, "SampleCovariance"), (9, "SampleCovariance")]


def test_only_the_fit_tests_a_parent_covariance():
    """In ``estimate.py`` the union of the parent sets is tested in
    ``_tested`` alone, the fit's test without its solves: the variance
    reads the parent covariances that test has passed, so it solves them
    without a second test."""
    path = PACKAGE_DIR / "estimate.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = _calls_outside(tree, {"_vouched"}, "_tested")
    assert not found, f"parent covariances tested outside estimate._tested: {found}"


def test_parent_test_check_sees_each_kind_of_copy():
    source = """
def _tested(stack, buckets, fitted, local, strict):
    vouched = _vouched(stack, parents, local)
def _sandwich(grads, omegas, plan, cov, size):
    vouched = _vouched(cov.matrix[None], parents, cov._index)
    ok = estimate._vouched(cov.matrix[None], parents, cov._index)
    def _tested_again(x):
        return _vouched(x, parents, local)
"""
    assert _calls_outside(ast.parse(source), {"_vouched"}, "_tested") == [
        (5, "_vouched"), (6, "_vouched"), (8, "_vouched")]


def _gates(path: Path) -> list[tuple[int, str]]:
    """Where the module at ``path`` calls ``_accepted``, the conditioning
    gate of a regression, apart from ``estimate._tested``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return _calls_outside(tree, {"_accepted"}, "_tested" if path.name == "estimate.py" else None)


def test_only_the_fit_gates_a_regression():
    """Every estimator's regressions are gated in ``_tested`` and solved in
    ``_fit_stack``: an estimator that tests a design itself would keep a
    least-squares routine of its own beside the fit."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found += [f"{path.name}:{line}" for line, _ in _gates(path)]
    assert not found, f"regressions gated outside estimate._tested: {found}"


def test_gate_check_sees_each_kind_of_copy(tmp_path):
    source = """
def _tested(stack, buckets, fitted, local, strict):
    ok &= _accepted(stack[:, pi[:, None], pi], what)
def _adjustment_from_cov(cov, treatment, outcome, adjust):
    _accepted(sxx[None], "adjustment regression")
    ok = estimate._accepted(sxx[None])
    def _tested_again(x):
        return _accepted(x)
"""
    for name, found in (("estimate.py", [(5, "_accepted"), (6, "_accepted"), (8, "_accepted")]),
                        ("simulate.py", [(3, "_accepted"), (5, "_accepted"), (6, "_accepted"),
                                         (8, "_accepted")])):
        path = tmp_path / name
        path.write_text(source, encoding="utf-8")
        assert _gates(path) == found, name


def _model_constructions(path: Path) -> list[tuple[int, str]]:
    """Where the module at ``path`` builds a ``BlockRecursiveModel``, apart
    from ``estimate._block_regression``: a model holds ``None`` for the
    buckets it did not fit, a storage convention ``estimate.py`` keeps to
    itself, and the effect is read from bare blocks by ``estimate._effect``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    home = "_block_regression" if path.name == "estimate.py" else None
    return _calls_outside(tree, {"BlockRecursiveModel"}, home)


def test_block_models_are_built_in_one_place():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found += [f"{path.name}:{line}" for line, _ in _model_constructions(path)]
    assert not found, f"BlockRecursiveModel built outside estimate._block_regression: {found}"


def test_model_construction_check_sees_each_kind_of_copy(tmp_path):
    source = """
def _block_regression(cov, buckets, fitted):
    return BlockRecursiveModel(buckets, lambdas, omegas)
def true_effect(plan, blocks):
    model = estimate.BlockRecursiveModel(plan.buckets, blocks, (None,) * len(blocks))
    def _block_regression_again():
        return BlockRecursiveModel(plan.buckets, blocks, blocks)
"""
    for name, found in (("estimate.py", [(5, "BlockRecursiveModel"), (7, "BlockRecursiveModel")]),
                        ("sem.py", [(3, "BlockRecursiveModel"), (5, "BlockRecursiveModel"),
                                    (7, "BlockRecursiveModel")])):
        path = tmp_path / name
        path.write_text(source, encoding="utf-8")
        assert _model_constructions(path) == found, name


# A graph's bucket decomposition is kept on it, which is sound only while no
# graph changes after a public function has returned it: adjacency sets
# change only while a graph is built, and the kept decomposition is set only
# where a graph is built or decomposed.
_MUTATORS = {"add", "discard", "clear", "update", "remove", "pop"}
_BUILDERS = {"Pdag.__init__", "Pdag._orient", "_copy", "cpdag_from_dag"}
_MAY_MUTATE = {"_pa": _BUILDERS, "_ch": _BUILDERS, "_nb": _BUILDERS,
               "_buckets": {"Pdag.__init__", "_copy", "bucket_decomposition"}}


def _graph_state_mutations(tree: ast.Module) -> list[tuple[str, str, int]]:
    """``(function, attribute, line)`` for every change of a graph's
    adjacency sets or kept decomposition: a mutating set method called on
    them, or an attribute, item or augmented assignment to them, reached
    directly or through a local name bound to them (``pa = g._pa``,
    ``for pa, ch, nb in zip(m._pa, m._ch, m._nb)``)."""
    found = []

    def visit(node, scope, aliases):
        def reaches(expr):
            """The state attribute ``expr`` reads, or None."""
            if isinstance(expr, ast.Attribute) and expr.attr in _MAY_MUTATE:
                return expr.attr
            if isinstance(expr, ast.Name):
                return aliases.get(expr.id)
            if isinstance(expr, ast.Subscript):
                return reaches(expr.value)
            if isinstance(expr, (ast.Tuple, ast.List)):
                return next(filter(None, map(reaches, expr.elts)), None)
            if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
                    and expr.func.id in {"zip", "iter", "reversed", "enumerate"}:
                return next(filter(None, map(reaches, expr.args)), None)
            return None

        def bind(target, value):
            values = (value.elts if isinstance(value, ast.Tuple) else
                      value.args if isinstance(value, ast.Call)
                      and isinstance(value.func, ast.Name) and value.func.id == "zip" else None)
            if isinstance(target, (ast.Tuple, ast.List)) and values is not None \
                    and len(target.elts) == len(values):
                for t, v in zip(target.elts, values):
                    bind(t, v)
                return
            attr = reaches(value)
            if attr:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        aliases[name.id] = attr

        def record(attr, line):
            found.append((".".join(scope) or "<module>", attr, line))

        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = dict(aliases) if not isinstance(node, ast.ClassDef) else {}
            for child in node.body:
                visit(child, scope + [node.name], inner)
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind(target, node.value)
        elif isinstance(node, (ast.For, ast.comprehension)):
            bind(node.target, node.iter)
        targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete)) else
                   [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr in _MAY_MUTATE:
                record(target.attr, node.lineno)
            elif isinstance(target, (ast.Subscript, ast.Name)) and \
                    (isinstance(node, ast.AugAssign) or isinstance(target, ast.Subscript)):
                attr = reaches(target)
                if attr:
                    record(attr, node.lineno)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATORS:
            attr = reaches(node.func.value)
            if attr:
                record(attr, node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, aliases)

    visit(tree, [], {})
    return found


def test_graphs_change_only_while_they_are_built():
    """Outside ``graph.py``'s builders nothing changes a graph's adjacency
    sets or kept bucket decomposition, so the decomposition kept on a graph
    stays the graph's."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope, attr, line in _graph_state_mutations(tree):
            if path.name != "graph.py" or scope not in _MAY_MUTATE[attr]:
                found.append(f"{path.name}:{line} {scope} changes {attr}")
    assert not found, f"graph state changed outside its builders: {found}"


def test_graph_state_check_sees_each_kind_of_change():
    """Each form of change the check above looks for is found."""
    source = """
def f(g, h):
    g._pa[0].add(1)
    g._nb[2].discard(3)
    pa, ch = g._pa, g._ch
    ch[0].update({1})
    for nb in g._nb:
        nb.clear()
    g._ch[1] = set()
    g._buckets = None
    h._nb[0] |= {1}
    g._pa[0].pop()
    g._ch[0].remove(1)
    x = sorted(g._pa[0])
    x.append(1)
"""
    got = _graph_state_mutations(ast.parse(source))
    assert [(attr, line) for _, attr, line in got] == [
        ("_pa", 3), ("_nb", 4), ("_ch", 6), ("_nb", 8), ("_ch", 9), ("_buckets", 10),
        ("_nb", 11), ("_pa", 12), ("_ch", 13)]
    assert {scope for scope, _, _ in got} == {"f"}
