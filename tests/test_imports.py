"""Every name a library module imports is used in that module.

__init__.py is exempt: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "metricweights"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside annotations written as strings, e.g. "MetricMeasureSpace"."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        if isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_checker_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .errors import ParseError, SizeOverflow\n"
        "from .space import MetricMeasureSpace\n"
        "def f(space: 'MetricMeasureSpace'):\n"
        "    raise SizeOverflow(np.pi)\n"
    )
    assert unused_imports(source) == ["ParseError (line 3)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text()) == []


WORKLOADS = PACKAGE.parents[1] / "perfbench" / "workloads.py"


def _called_with_workers(source: str) -> set[str]:
    """Names of the functions a module calls with a workers= keyword."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and any(k.arg == "workers" for k in node.keywords):
            func = node.func
            names.add(func.attr if isinstance(func, ast.Attribute) else func.id)
    return names


def test_only_functions_the_benchmark_calls_with_workers_take_it():
    # The keyword has no effect; it stays only where the benchmark passes it.
    allowed = _called_with_workers(WORKLOADS.read_text())
    taking = [
        f"{module.name}:{node.name}"
        for module in MODULES
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "workers" in [a.arg for a in node.args.args + node.args.kwonlyargs]
        and node.name not in allowed
    ]
    assert taking == []



def _distance_machinery(source: str) -> list[str]:
    """The lines of a module that name cKDTree or call einsum."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        field = {ast.alias: "name", ast.Name: "id", ast.Attribute: "attr"}.get(type(node))
        if field and getattr(node, field) == "cKDTree":
            found.add(f"cKDTree (line {node.lineno})")
        func = node.func if isinstance(node, ast.Call) else None
        if getattr(func, "attr", getattr(func, "id", None)) == "einsum":
            found.add(f"einsum (line {node.lineno})")
    return sorted(found)


def test_the_checker_finds_distance_machinery():
    source = (
        "import numpy as np\n"
        "from scipy.spatial import cKDTree\n"
        "import scipy.spatial\n"
        "t = scipy.spatial.cKDTree(np.einsum('ij,ij->i', a, a))\n"
        "u = einsum('i,i', a, a)\n"
    )
    assert _distance_machinery(source) == [
        "cKDTree (line 2)", "cKDTree (line 4)", "einsum (line 4)", "einsum (line 5)",
    ]


@pytest.mark.parametrize("module", [m for m in MODULES if m.name != "space.py"],
                         ids=lambda p: p.name)
def test_only_space_computes_distances(module):
    # One formula decides every distance, and KD-trees only propose
    # candidates to it; both live in space.py.
    assert _distance_machinery(module.read_text()) == []


def _json_dumps_callers(source: str) -> list[str]:
    """The innermost function around each json.dumps call of a module, in
    line order; "<module>" for a call outside every function."""
    tree = ast.parse(source)
    around = {}
    for node in ast.walk(tree):  # breadth first, so inner functions win
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            around.update(dict.fromkeys(ast.walk(node), node.name))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "dumps" and getattr(node.func.value, "id", None) == "json"
    ]
    return [around.get(call, "<module>") for call in sorted(calls, key=lambda c: c.lineno)]


def test_the_checker_finds_json_dumps_calls():
    source = (
        "import json\n"
        "def _dumps(doc):\n"
        "    return json.dumps(doc, allow_nan=False)\n"
        "def write(doc):\n"
        "    def cell(v):\n"
        "        return json.dumps(v)\n"
        "    return [json.dumps(doc), _dumps(doc), json.loads('1'), cell(doc)]\n"
        "HEADER = json.dumps({})\n"
    )
    assert _json_dumps_callers(source) == ["_dumps", "cell", "write", "<module>"]


def test_io_has_one_json_encoder():
    # Every file io writes, and the CLI's error object, go through io._dumps,
    # which refuses NaN and inf.
    assert _json_dumps_callers((PACKAGE / "io.py").read_text()) == ["_dumps"]
    assert _json_dumps_callers((PACKAGE / "cli.py").read_text()) == []


def _ball_members_calls(source: str) -> list[int]:
    """The lines of a module that call a .ball_members method."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "ball_members"
    )


def test_the_checker_finds_ball_members_calls():
    source = (
        "a = space.ball_members(0, 1.0)\n"
        "b = space.balls_members([0], [1.0])\n"
        "c = [s.ball_members(x, r) for x, r in pairs]\n"
    )
    assert _ball_members_calls(source) == [1, 3]


@pytest.mark.parametrize("module", [m for m in MODULES if m.name != "space.py"],
                         ids=lambda p: p.name)
def test_only_space_queries_single_balls(module):
    # Ball integrals outside space.py go through the batched balls_members.
    assert _ball_members_calls(module.read_text()) == []


def _random_draws(source: str) -> list[str]:
    """The lines of a module that name default_rng or a random module
    (random, numpy.random, np.random, or an attribute named random)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        field = {ast.alias: "name", ast.Name: "id", ast.Attribute: "attr",
                 ast.ImportFrom: "module"}.get(type(node))
        name = getattr(node, field) if field else None
        if name in ("default_rng", "random", "numpy.random"):
            found.add(f"{name} (line {node.lineno})")
    return sorted(found)


def test_the_checker_finds_random_draws():
    source = (
        "import random\n"
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "x = np.random.default_rng(0).integers(5)\n"
        "y = np.sum(np.arange(3))\n"
    )
    assert _random_draws(source) == [
        "default_rng (line 3)", "default_rng (line 4)", "numpy.random (line 3)",
        "random (line 1)", "random (line 4)",
    ]


@pytest.mark.parametrize("module", [m for m in MODULES if m.name != "studies.py"],
                         ids=lambda p: p.name)
def test_only_studies_draws_random_numbers(module):
    # No library verdict rests on a sample; only the studies sample ball pairs.
    assert _random_draws(module.read_text()) == []


def _ordered_sums(source: str) -> list[str]:
    """The lines of a module that name cumsum, add.reduce or add.reduceat:
    as np.cumsum, an array's .cumsum, np.add.reduce(at), or from numpy."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
            if name in ("reduce", "reduceat") and getattr(node.value, "attr", None) == "add":
                name = f"add.{name}"
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ("cumsum", "add.reduce", "add.reduceat"):
            found.add(f"{name} (line {node.lineno})")
    return sorted(found)


def test_the_checker_finds_ordered_sums():
    source = (
        "import numpy as np\n"
        "from numpy import cumsum\n"
        "a = np.cumsum(x)\n"
        "b = x.cumsum(axis=1)\n"
        "add = np.add.reduce\n"
        "c = np.add.reduceat(x, starts)\n"
        "d = np.minimum.reduceat(x, starts) + np.maximum.reduce(x) + np.sum(x)\n"
    )
    assert _ordered_sums(source) == [
        "add.reduce (line 5)", "add.reduceat (line 6)",
        "cumsum (line 2)", "cumsum (line 3)", "cumsum (line 4)",
    ]


@pytest.mark.parametrize("module", [m for m in MODULES if m.name != "space.py"],
                         ids=lambda p: p.name)
def test_only_space_sums_over_balls(module):
    # A ball integral adds in one order, (distance, id) from the first member,
    # and space.ball_sums is where that order lives. A min or a max does not
    # depend on order, so np.minimum.reduceat and np.maximum.reduceat may stay.
    assert _ordered_sums(module.read_text()) == []


def _cache_table_reads(source: str) -> list[str]:
    """The lines of a module that name an .order or .ends attribute."""
    return sorted(
        f"{node.attr} (line {node.lineno})" for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("order", "ends")
    )


def test_the_checker_finds_cache_table_reads():
    source = (
        "a = block.order[:3]\n"
        "b = np.take(values, data.ends - 1)\n"
        "order, ends = block.prefix_sums(f), block.counts\n"
        "c = self.order.shape[1] + x.ends_of\n"
    )
    assert _cache_table_reads(source) == ["ends (line 2)", "order (line 1)", "order (line 4)"]


@pytest.mark.parametrize("module", [m for m in MODULES if m.name != "space.py"],
                         ids=lambda p: p.name)
def test_only_space_reads_the_cache_index_tables(module):
    # The canonical cache keeps order and ends in two bytes (PREFIX_DTYPE);
    # other modules reach them only through _CenterBlock's methods and
    # canonical_balls, which hand out sums, minima, counts and intp ids.
    assert _cache_table_reads(module.read_text()) == []


def _method_names(source: str, cls: str, method: str) -> set[str]:
    """Every name and attribute named inside cls.method of a module."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == method:
                    return {n.id if isinstance(n, ast.Name) else n.attr
                            for n in ast.walk(item) if isinstance(n, (ast.Name, ast.Attribute))}
    raise LookupError(f"{cls}.{method} not found")


ORDER_MACHINERY = {"pair_dists", "dist_row", "dist_rows", "_distances", "argsort", "lexsort",
                   "sort"}


def test_the_checker_sees_order_machinery_in_a_method():
    source = (
        "class S:\n"
        "    def ball_sums(self, values, members, offsets):\n"
        "        order = np.argsort(self.pair_dists(members, members))\n"
        "        return _distances(values[order], 0.0)\n"
        "    def other(self):\n"
        "        return np.lexsort(self.dist_row(0)) + np.sort(values)\n"
    )
    assert _method_names(source, "S", "ball_sums") & ORDER_MACHINERY == {
        "argsort", "pair_dists", "_distances"}
    assert _method_names(source, "S", "other") & ORDER_MACHINERY == {"lexsort", "dist_row", "sort"}
    with pytest.raises(LookupError):
        _method_names(source, "S", "missing")


def test_ball_sums_takes_the_member_order_as_given():
    # balls_members decides membership and order in one place; ball_sums
    # only adds the members in the order they come.
    source = (PACKAGE / "space.py").read_text()
    assert _method_names(source, "MetricMeasureSpace", "ball_sums") & ORDER_MACHINERY == set()


def _hand_rolled_memos(source: str) -> list[str]:
    """The lines of a module that memoize by hand: an `if <obj>.<attr> is None:`
    or `if <obj>.<attr>[k] is None:` whose body assigns that attribute or an
    item of it."""

    def attribute(node):
        node = node.value if isinstance(node, ast.Subscript) else node
        return ast.unparse(node) if isinstance(node, ast.Attribute) else None

    found = []
    for node in ast.walk(ast.parse(source)):
        test = node.test if isinstance(node, ast.If) else None
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Is)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None):
            continue
        memo = attribute(test.left)
        targets = [  # unpacked too: `self._h, self._r = ...` assigns self._h
            part for sub in node.body for stmt in ast.walk(sub)
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            for target in getattr(stmt, "targets", [getattr(stmt, "target", None)])
            for part in ast.walk(target)
        ]
        if memo is not None and any(attribute(t) == memo for t in targets):
            found.append(f"{ast.unparse(test.left)} (line {node.lineno})")
    return found


def test_the_checker_finds_hand_rolled_memos():
    source = (
        "class C:\n"
        "    def tree(self):\n"
        "        if self._tree is None:\n"
        "            self._tree = build()\n"
        "        return self._tree\n"
        "    def block(self, k):\n"
        "        if self._blocks[k] is None:\n"
        "            self._blocks[k] = make(k)\n"
        "        return self._blocks[k]\n"
        "    def pair(self):\n"
        "        if self._h is None:\n"
        "            if ready:\n"
        "                self._h, self._r = 1.0, False\n"
        "    def other(self, ids):\n"
        "        if ids is None:\n"
        "            ids = all_ids()\n"
        "        if self._tree is None:\n"
        "            raise ValueError('no tree')\n"
        "        if self.a is None:\n"
        "            self.b = 1\n"
        "        if other.c is None:\n"
        "            self.c = 2\n"
    )
    assert _hand_rolled_memos(source) == [
        "self._tree (line 3)", "self._blocks[k] (line 7)", "self._h (line 11)",
    ]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_derived_state_is_kept_in_cached_properties(module):
    # One way to keep a derived value: functools.cached_property, built on
    # first read, not a None sentinel tested and filled by hand.
    assert _hand_rolled_memos(module.read_text()) == []
