"""Source hygiene: every name a module imports is used in that module, every
module-level function, class and assigned name is used by the program itself
or is public API (`macsums.__all__`), every method is called by the program
itself, `series.py` imports nothing from `fractions`, no module but
`rational.py` imports `fractions` at its top, no module imports from
`__future__`, no module multiplies by a geometric factor it built as a
series or multiplies or divides by a polynomial it built from monomials,
no module holds a float, only the registry builds identity reports or
names catalog ids, and only `reports.py` chooses a claim's status."""

import ast
from pathlib import Path

import pytest

import macsums
from macsums import registry

SRC = Path(__file__).resolve().parent.parent / "src" / "macsums"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements that no expression in the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os\nfrom math import comb, gcd\nx = gcd(4, 6)\n"
    assert unused_imports(source) == [(2, "os"), (3, "comb")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def built_factor_operands(source, builder, ops):
    """Lines where an operand of a binary or augmented operation in ops
    calls `builder` (by name or attribute), however deeply nested."""
    def calls_builder(node):
        return any(isinstance(n, ast.Call) and (n.func.id if isinstance(n.func, ast.Name)
                                                else getattr(n.func, "attr", None)) == builder
                   for n in ast.walk(node))

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ops):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ops):
            operands = (node.value,)
        else:
            continue
        if any(calls_builder(op) for op in operands):
            lines.append(node.lineno)
    return sorted(set(lines))


def geometric_products(source):
    """Lines where a `geometric_pow(...)` call is in an operand of `*` or
    `*=`: such a factor is applied with `over_geometric_coeffs`, never
    multiplied in."""
    return built_factor_operands(source, "geometric_pow", ast.Mult)


def test_geometric_products_are_found():
    source = (
        "a = s * geometric_pow(k, 2, n, k)\n"
        "b = 3 * series.geometric_pow(k, 1, n)\n"
        "c = geometric_pow(k, 1, n) / s\n"
        "s *= geometric_pow(k, 1, n)\n"
        "d = s.over_geometric(k, 2, k) * geometric_pow\n"
    )
    assert geometric_products(source) == [1, 2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_multiplies_by_no_built_geometric_factor(path):
    assert geometric_products(path.read_text()) == []


def monomial_polynomials(source):
    """Lines where an operand of `*` or `/` calls `Series.monomial`: a
    q-polynomial such as 1 + q^m built from monomials and multiplied or
    divided in is kernel steps (j, r) instead."""
    return built_factor_operands(source, "monomial", (ast.Mult, ast.Div))


def test_monomial_polynomials_are_found():
    source = (
        "a = 2 * Series.monomial(1, m, n)\n"
        "b = s / (Series.one(n) + Series.monomial(1, 2 * m, n))\n"
        "c = Series.one(n) - Series.monomial(1, m, n)\n"
        "s *= Series.one(n) - Series.monomial(1, m, n)\n"
        "d = (Series.monomial(1, e, n) if b is None else b.shift(e)).coeffs\n"
        "e = s * monomial\n"
    )
    assert monomial_polynomials(source) == [1, 2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_builds_no_polynomial_from_monomials(path):
    assert monomial_polynomials(path.read_text()) == []


def unreferenced_definitions(module, trees):
    """Module-level functions, classes and assigned names of the parsed
    module that no name, attribute or import in trees (parsed sources, the
    module among them) refers to, and the methods of its classes, named
    `Class.method`, that no attribute in trees refers to.  A reference
    inside the defining statement or method itself does not count, and
    dunder names are exempt."""
    dunder = lambda name: name.startswith("__") and name.endswith("__")
    definitions, methods = {}, {}
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not dunder(name):
                definitions[name] = node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not dunder(item.name):
                    methods[f"{node.name}.{item.name}"] = item
    owner = {}  # node id -> the names its defining statement or method binds
    for name, d in [*definitions.items(), *((key.split(".")[1], m) for key, m in methods.items())]:
        for n in ast.walk(d):
            owner.setdefault(id(n), set()).add(name)
    referenced, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            names = [name for name in names if name not in owner.get(id(node), ())]
            referenced.update(names)
            if isinstance(node, ast.Attribute):
                attributes.update(names)
    return sorted([name for name in definitions if name not in referenced]
                  + [key for key in methods if key.split(".")[1] not in attributes])


def test_unreferenced_definitions_are_found():
    module = ast.parse(
        "def used(): pass\n"
        "def by_attribute(): pass\n"
        "def imported(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Dead: pass\n"
        "def __getattr__(name): pass\n"
        "x = used()\n"
        "TABLE = {1: TABLE}\n"
        "READ: int = 2\n"
        "left, right = READ, 3\n"
        "__all__ = ['left']\n"
    )
    other = ast.parse("import m\nfrom m import imported\nm.by_attribute()\nprint(m.left)\n")
    assert unreferenced_definitions(module, [module, other]) == ["Dead", "TABLE", "recursive", "right", "x"]


def test_unreferenced_methods_are_found():
    module = ast.parse(
        "class Box:\n"
        "    def __init__(self): self.used()\n"
        "    def used(self): pass\n"
        "    def recursive(self): return self.recursive()\n"
        "    def named_only(self): pass\n"
        "    @property\n"
        "    def size(self): pass\n"
        "    @classmethod\n"
        "    def make(cls): pass\n"
        "    def _private(self): pass\n"
        "    def elsewhere(self): pass\n"
        "    __radd__ = __init__\n"
        "def helper(box): return box.size, named_only\n"
        "print(Box.make(), helper)\n"
    )
    other = ast.parse("def f(b): return b.elsewhere()\n")
    assert unreferenced_definitions(module, [module, other]) == [
        "Box._private", "Box.named_only", "Box.recursive"]


def test_every_definition_is_referenced():
    # only src/ counts as a reference: a definition that only tests use belongs
    # in tests/ (conftest.py or paper_checks.py), and macsums.__all__ is the
    # one allow-list, for module-level names only: a public class's methods
    # still need a caller in src/
    trees = {p: ast.parse(p.read_text()) for p in MODULES}
    public = set(macsums.__all__)
    dead = {
        path.name: [name for name in unreferenced_definitions(tree, trees.values()) if name not in public]
        for path, tree in trees.items()
    }
    assert {name: defs for name, defs in dead.items() if defs} == {}


def test_series_imports_nothing_from_fractions():
    # a Series holds ints only; an exact division that leaves a remainder raises
    tree = ast.parse((SRC / "series.py").read_text())
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    assert "fractions" not in modules


def top_level_imports(source):
    """The modules a source imports in its top-level statements."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom):
            found.append(node.module)
        elif isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
    return found


def test_top_level_imports_are_found():
    source = "import os, sys\nfrom math import comb\ndef f():\n    from fractions import Fraction\n"
    assert top_level_imports(source) == ["os", "sys", "math"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "rational.py"], ids=lambda p: p.name)
def test_only_rational_imports_fractions_at_its_top(path):
    # importing fractions loads decimal, numbers and re, about half of a
    # fresh `import macsums.cli`; the commands that compute an exact
    # rational import it when they run
    assert "fractions" not in top_level_imports(path.read_text())


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_nothing_from_future(path):
    # `from __future__ import annotations` is a real module import at start-up
    assert "__future__" not in top_level_imports(path.read_text())


def floats(source):
    """(line, text) of every float literal and every use of the name
    `float` in the source: exact arithmetic has no place for either."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
    return sorted(found)


def test_floats_are_found():
    source = (
        "x = 0.0\n"
        "def f(level: float = 1e-9): return float(level)\n"
        "y = 2j + 3 / 4\n"
        "z = '0.5'\n"
    )
    assert floats(source) == [(1, "0.0"), (2, "1e-09"), (2, "float"), (2, "float"), (3, "2j")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_holds_no_float(path):
    assert floats(path.read_text()) == []


def catalog_judges(source, ids):
    """(line, what) of every IdentityReport construction and every string
    constant that is a catalog id: a module that does either judges cases."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "IdentityReport":
                found.append((node.lineno, "IdentityReport"))
        elif isinstance(node, ast.Constant) and node.value in ids:
            found.append((node.lineno, node.value))
    return sorted(found)


def test_catalog_judges_are_found():
    source = (
        "r = IdentityReport('x', {}, 1, True)\n"
        "s = reports.IdentityReport('y', {}, 1, True)\n"
        "k = {'dilcher': 1, 'dilcher_r': 2}\n"
        "cls = IdentityReport\n"
    )
    assert catalog_judges(source, {"dilcher"}) == [(1, "IdentityReport"), (2, "IdentityReport"), (3, "dilcher")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "registry.py"], ids=lambda p: p.name)
def test_only_the_registry_judges_catalog_cases(path):
    # identities and macmahon compute sides; turning them into reports is
    # the registry's alone (reports.py defines the class and builds none)
    assert catalog_judges(path.read_text(), set(registry.known_ids())) == []


def status_choices(source):
    """Lines that read the status VERIFIED or EVIDENCE, by name or as an
    attribute: a module that does chooses a passing claim's status."""
    statuses = {"VERIFIED", "EVIDENCE"}
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if (isinstance(node, ast.Name) and node.id in statuses)
                   or (isinstance(node, ast.Attribute) and node.attr in statuses)})


def test_status_choices_are_found():
    source = (
        "status = VERIFIED if ok else EVIDENCE\n"
        "s = reports.EVIDENCE\n"
        "tag = {'verified-to-depth': 'PASS'}\n"
        "failed = status == REFUTED\n"
    )
    assert status_choices(source) == [1, 2]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "reports.py"], ids=lambda p: p.name)
def test_only_reports_chooses_a_claim_status(path):
    # `reports.claim_status` is the one status rule; other modules may test
    # for a refutation but never pick verified or evidence themselves
    assert status_choices(path.read_text()) == []
