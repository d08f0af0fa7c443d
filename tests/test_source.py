"""Checks on the library's source text."""

import ast
import inspect
from pathlib import Path

import hesskit
from hesskit import linalg
from hesskit.orbit_checks import SPECIAL_POINTS
from test_inputs import ENTRIES


def test_library_has_no_assert_statement():
    """``python -O`` strips ``assert``; the library must raise instead."""
    sources = sorted(Path(hesskit.__file__).parent.glob("*.py"))
    assert "forms.py" in {path.name for path in sources}
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _library_trees():
    sources = sorted(Path(hesskit.__file__).parent.glob("*.py"))
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in sources]


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_library_raises_no_assertion_error():
    """A failed check raises ``VerificationError``; ``AssertionError`` is
    left to programming errors."""
    found = [f"{name}:{node.lineno}"
             for name, tree in _library_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and _raised_name(node) == "AssertionError"]
    assert found == []


def test_every_module_level_import_is_used():
    """``__init__.py`` re-exports; every other module uses what it imports."""
    unused = []
    for name, tree in _library_trees():
        if name == "__init__.py":
            continue
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {ident}" for ident, line in bound.items()
                   if ident not in used]
    assert unused == []


def test_no_import_inside_a_function():
    """Imports sit at module level, where the dependency graph is visible."""
    found = [f"{name}:{inner.lineno}"
             for name, tree in _library_trees()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node)
             if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert sorted(set(found)) == []


_MUTATORS = {"append", "extend", "insert", "setdefault", "update", "pop",
             "popitem", "clear", "remove", "add", "discard"}


def _module_cache_sites(tree):
    """Lines with a ``global`` statement, or where a function fills a
    module-level name by item assignment or deletion or by a mutating
    method."""
    names = {name.id for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign)
                            else [node.target])
             for name in ast.walk(target) if isinstance(name, ast.Name)}
    found = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Global)}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and not isinstance(
                    node.ctx, ast.Load):
                owner = node.value
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS):
                owner = node.func.value
            else:
                continue
            if isinstance(owner, ast.Name) and owner.id in names:
                found.add(node.lineno)
    return sorted(found)


def test_no_module_level_cache():
    """A shared form is memoised by ``functools.cache`` or ``lru_cache``,
    never by a module-level dict or list that functions fill or rebind."""
    found = [f"{name}:{line}" for name, tree in _library_trees()
             for line in _module_cache_sites(tree)]
    assert found == []


def test_the_cache_guard_sees_a_filled_table():
    by_hand = ("_UNITS: Dict[int, Form] = {}\n"
               "_X0, _SEEN, TABLE = [], {}, {'a': 1}\n"
               "def _unit(n):\n"
               "    one = _UNITS.get(n)\n"
               "    if one is None:\n"
               "        one = _UNITS[n] = make(n)\n"
               "    return one\n"
               "def _x0_powers(top):\n"
               "    global _X0\n"
               "    _X0.extend(powers(x, top))\n"
               "def seen(k):\n"
               "    return _SEEN.setdefault(k, TABLE['a'])\n"
               "_CACHE = {}\n"
               "def drop(k):\n"
               "    del _CACHE[k]\n")
    assert _module_cache_sites(ast.parse(by_hand)) == [6, 9, 10, 12, 15]


def test_only_curves_pairs_a_family_with_its_curve():
    """Other modules reach a curve through ``curves.FAMILIES`` or
    ``curves.CONDITION_FAMILIES``, never by the per-family names."""
    names = {"CURVE_ONE", "CURVE_TWO", "OMEGA1", "OMEGA2"}
    found = [f"{name}:{node.lineno}"
             for name, tree in _library_trees()
             if name not in ("curves.py", "__init__.py")
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and names & {alias.name for alias in node.names}
             or isinstance(node, ast.Attribute) and node.attr in names]
    assert found == []


def _numpy_importers(trees):
    """The modules among ``trees`` that import numpy, under any alias."""
    return {name for name, tree in trees
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "numpy" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and not node.level
            and node.module.split(".")[0] == "numpy"}


def test_only_curves_imports_numpy():
    """numpy serves the residue sieve alone, so dropping it is a change to
    one module."""
    assert _numpy_importers(_library_trees()) == {"curves.py"}


def test_the_numpy_guard_sees_a_renamed_import():
    by_hand = {"a.py": "import numpy as xp\n",
               "b.py": "from numpy import flatnonzero as nz\n",
               "c.py": "import os, numpy.linalg\n",
               "d.py": "from numbers import Integral\nfrom . import numpy\n"}
    trees = [(name, ast.parse(text)) for name, text in by_hand.items()]
    assert _numpy_importers(trees) == {"a.py", "b.py", "c.py"}


def _packing_sites(tree):
    """Lines that read a form's stored representation or pack monomials by
    hand: a ``._num`` or ``._den`` attribute; a positional weight list, that
    is a comprehension of ``b ** w(i)`` or ``b << w(i)`` over its own i; a
    ``map(mul, exps, weights)`` dot product; or a ``key << bits | e`` step."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("_num", "_den"):
            found.append(node.lineno)
        elif (isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp))
              and isinstance(node.elt, ast.BinOp)
              and isinstance(node.elt.op, (ast.Pow, ast.LShift))):
            bound = {n.id for gen in node.generators
                     for n in ast.walk(gen.target) if isinstance(n, ast.Name)}
            if bound & {n.id for n in ast.walk(node.elt.right)
                        if isinstance(n, ast.Name)}:
                found.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "map" and node.args
              and isinstance(node.args[0], ast.Name)
              and node.args[0].id == "mul"):
            found.append(node.lineno)
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)
              and isinstance(node.left, ast.BinOp)
              and isinstance(node.left.op, ast.LShift)):
            found.append(node.lineno)
    return found


def test_only_forms_packs_monomials():
    """``forms`` owns the one packing of exponent tuples into int keys;
    other modules reach it through ``monomial_key`` and ``packed``."""
    found = [f"{name}:{line}"
             for name, tree in _library_trees() if name != "forms.py"
             for line in _packing_sites(tree)]
    assert found == []


def test_the_packing_guard_sees_a_packing():
    trees = dict(_library_trees())
    assert _packing_sites(trees["forms.py"])
    by_hand = ("weights = [base ** (n - 1 - i) for i in range(n)]\n"
               "key = sum(map(mul, e, weights))\n"
               "shifts = [1 << 16 * (n - 1 - i) for i in range(n)]\n"
               "den = f._den\n")
    assert sorted(_packing_sites(ast.parse(by_hand))) == [1, 2, 3, 4]


def _callers(tree, is_target):
    """The functions that make a call whose callee ``is_target`` accepts, by
    name; a call outside any function is listed as ``<module>``."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and is_target(child.func):
                found.add(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


def _make_callers(tree):
    """The functions that call ``Form._make``, by name."""
    return _callers(tree, lambda func: (
        isinstance(func, ast.Attribute) and func.attr == "_make"
        and isinstance(func.value, ast.Name) and func.value.id == "Form"))


def test_only_dot_diff_and_the_unit_build_forms():
    """``dot`` is the one loop that builds a form from sums of products;
    only it, ``diff``, ``exact_quotient`` and the constant form 1 reach the
    trusted constructor."""
    found = {(name, owner) for name, tree in _library_trees()
             for owner in _make_callers(tree)}
    assert found == {("forms.py", "dot"), ("forms.py", "diff"),
                     ("forms.py", "exact_quotient"), ("forms.py", "_unit")}


def test_the_constructor_guard_sees_a_second_loop():
    by_hand = ("def __neg__(self):\n"
               "    return Form._make(self.nvars, self.degree,\n"
               "                      {e: -c for e, c in self._num.items()},\n"
               "                      self._den)\n"
               "Form._make(1, 0, {0: 1}, 1)\n")
    assert _make_callers(ast.parse(by_hand)) == {"__neg__", "<module>"}


def _fraction_callers(tree):
    """The functions that call ``Fraction``, by name, whether imported from
    ``fractions`` or called as ``fractions.Fraction``."""
    return _callers(tree, lambda func: "Fraction" in (
        getattr(func, "id", None), getattr(func, "attr", None)))


def _is_sampler(name):
    return (name.startswith(("_rand_", "sample_")) or name.endswith("_sample")
            or name == "random_form")


def test_the_samplers_draw_ints():
    """``forms.random_form`` and the samplers of ``indeterminacy`` hand int
    coefficients to the constructor, which keeps them as ints; a
    ``Fraction`` per draw was most of their cost."""
    trees = [tree for name, tree in _library_trees()
             if name in ("forms.py", "indeterminacy.py")]
    samplers = {node.name for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and _is_sampler(node.name)}
    assert {"random_form", "_rand_coeff", "_rand_dense", "_rand_binary",
            "_no_x2sq_sample", "sample_cone", "sample_gated_pair",
            "sample_gated_triple", "sample_family"} <= samplers
    found = {owner for tree in trees for owner in _fraction_callers(tree)}
    assert sorted(found & samplers) == []


def test_the_fraction_guard_sees_a_fraction_call():
    by_hand = ("def _rand_coeff(rng):\n"
               "    return Fraction(rng.randint(-9, 9))\n"
               "def sample_cone(d, rng):\n"
               "    b = fractions.Fraction(0)\n"
               "def _x12(u):\n"
               "    return Fraction(1), Fraction(0)\n")
    found = _fraction_callers(ast.parse(by_hand))
    assert found == {"_rand_coeff", "sample_cone", "_x12"}
    assert {owner for owner in found if _is_sampler(owner)} \
        == {"_rand_coeff", "sample_cone"}


def _heappop_callers(tree):
    """The functions that call ``heappop``, by name, whether imported from
    ``heapq`` or called as ``heapq.heappop``."""
    return _callers(tree, lambda func: "heappop" in (
        getattr(func, "id", None), getattr(func, "attr", None)))


def test_one_elimination_kernel():
    """``rank_mod_p`` is the one elimination loop."""
    found = {(name, owner) for name, tree in _library_trees()
             for owner in _heappop_callers(tree)}
    assert found == {("linalg.py", "rank_mod_p")}


def test_the_kernel_guard_sees_a_second_loop():
    by_hand = ("def rank_mod_p(m, q):\n"
               "    while heap:\n"
               "        n, c = heappop(heap)\n"
               "def rank_mod_pq(m, q):\n"
               "    while heap:\n"
               "        n, c = heapq.heappop(heap)\n")
    assert _heappop_callers(ast.parse(by_hand)) == {"rank_mod_p", "rank_mod_pq"}


def test_the_rank_path_takes_one_matrix_and_no_option():
    params = inspect.signature(linalg.rank_with_certificate).parameters
    assert list(params) == ["matrix"]


def _prime_list_calls(tree):
    """Calls of ``rank_mod_p`` that pass anything but a matrix and one
    modulus: a third argument, a starred list or a keyword."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "rank_mod_p" in (getattr(node.func, "id", None),
                                 getattr(node.func, "attr", None))
            and (len(node.args) != 2 or node.keywords
                 or any(isinstance(a, ast.Starred) for a in node.args))]


def test_the_rank_path_passes_one_modulus():
    found = [f"{name}:{line}" for name, tree in _library_trees()
             for line in _prime_list_calls(tree)]
    assert found == []
    assert any(isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "rank_mod_p"
               for name, tree in _library_trees() if name == "linalg.py"
               for node in ast.walk(tree))


def test_the_modulus_guard_sees_a_prime_list():
    by_hand = ("rank_mod_p(m, prod(primes))\n"
               "rank_mod_p(m, *PROBE_PRIMES)\n"
               "linalg.rank_mod_p(m, 5, 7)\n"
               "rank_mod_p(m, q=35)\n")
    assert _prime_list_calls(ast.parse(by_hand)) == [2, 3, 4]


_KIND_LITERALS = (set(SPECIAL_POINTS)
                  | {row.pair for row in SPECIAL_POINTS.values()})
_GATE_NAMES = {row.gate for row in SPECIAL_POINTS.values()}


def _per_kind_sites(tree):
    """Lines that compare a value with a point-kind or pair-kind literal by
    ``==``, ``!=``, ``in`` or ``not in``, or hold an exclusion-gate name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in _GATE_NAMES:
            found.append(node.lineno)
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                for op in node.ops):
            consts = {c.value for side in [node.left, *node.comparators]
                      for c in ast.walk(side) if isinstance(c, ast.Constant)}
            if consts & _KIND_LITERALS:
                found.append(node.lineno)
    return found


def test_only_the_table_tells_the_special_points_apart():
    """Per-point facts sit in ``orbit_checks.SPECIAL_POINTS``; no other
    module branches on a kind or names a gate."""
    found = [f"{name}:{line}"
             for name, tree in _library_trees() if name != "orbit_checks.py"
             for line in _per_kind_sites(tree)]
    assert found == []


def test_the_per_kind_guard_sees_a_branch():
    by_hand = ("if kind == 'qkl':\n"
               "    gate = 'quadric-line'\n"
               "elif 'even2' != pair:\n"
               "    pass\n"
               "ok = kind in ('qk', 'qk1l2')\n"
               "ok = row.pair not in {'odd'}\n"
               "kind = 'qkl' if d % 2 else 'qk'\n")
    assert sorted(_per_kind_sites(ast.parse(by_hand))) == [1, 2, 3, 5, 6]


# Public names whose int parameters are left out of the validation table.
EXEMPT_NAMES = {
    # the hot arithmetic type: its constructor, ``variable`` and ``**`` run
    # ``require_int`` and have their own cases in test_inputs.py; ``diff``
    # and the products stay unchecked, as a check there would cost every one
    "Form",
    # report records: the library fills them from arguments already checked
    "Certificate", "SuiteResult",
}
# any int is a valid seed
EXEMPT_PARAMETERS = {"seed"}


def _int_parameters():
    """(entry, parameter) for every int-annotated parameter of the API."""
    found = set()
    for name in hesskit.__all__:
        obj = getattr(hesskit, name)
        if name in EXEMPT_NAMES or inspect.isclass(obj) and issubclass(
                obj, Exception):
            continue
        entries = [(name, obj)] if callable(obj) else []
        if inspect.isclass(obj):
            entries += [(f"{name}.{attr}", getattr(obj, attr))
                        for attr in vars(obj) if not attr.startswith("_")
                        and inspect.isfunction(getattr(obj, attr))]
        for entry, fn in entries:
            for param in inspect.signature(fn).parameters.values():
                if (param.annotation in (int, "int")
                        and param.name not in EXEMPT_PARAMETERS):
                    found.add((entry, param.name))
    return found


def test_every_int_parameter_of_the_api_is_in_the_validation_table():
    """A new public entry must not skip ``require_int``: each of its int
    parameters needs a row in ``test_inputs.ENTRIES``."""
    found = _int_parameters()
    assert {("certify", "d"), ("SpecialPoint", "k"),
            ("QuadraticForm.identity", "r")} <= found
    table = {(name, arg) for name, _, _, leasts in ENTRIES for arg in leasts}
    assert sorted(found - table) == []
