"""Every imported name is read by the module that imports it, every
definition in the package is read by the package, every parameter with a
default is set by some caller, and every stored field is read.

Four static checks. The first runs over the package, the tests and the
scripts: each name an ``import`` binds must be read somewhere in its module,
in code, in a string annotation or in ``__all__``. An import kept on purpose
(a re-export, or an import made for its side effect) says so with
``# noqa: F401`` on one of its lines. ``perfbench/`` is left out.

The second runs over ``src/gateformer`` alone: each top-level function or
class, and each method that is not a dunder, must be read by code of the
package outside its own body. The package holds what the product runs; a
reference form that only the tests need lives in ``tests/oracles.py``. The
few definitions read only from outside the package are listed in
``UNREAD_IN_SRC``, each with its readers and the ROADMAP item that removes
it; the list may only shrink.

The third holds the package's parameters to the same rule: each parameter
with a default, of a top-level function or of a method of a top-level class,
must be passed something other than its default, by keyword or by position,
by some call in ``src/``, ``scripts/`` or ``perfbench/`` outside the
function's own body. A value every caller leaves at its default is a
constant. Callees are resolved as reads are: a top-level function or class
is called by its name or by ``mod.name`` where ``mod`` binds a module of
the package, so ``ndarray.mean(axis=0)`` sets nothing of ``numerics.mean``;
a method is matched by name, so a builtin's method of the same name counts
(review such names by hand). The exceptions, set only by the tests, are
listed in ``DEFAULT_ONLY``, each with its setters; the list may only shrink.

The fourth holds stored values to it: each field of a top-level class of
the package, an annotated name of the class body (a dataclass field) or a
``self.<name>`` that one of its methods assigns, must be read as an
attribute of that name by code in ``src/``, ``scripts/`` or
``perfbench/``, outside the constructor (``__init__`` or
``__post_init__``) that stores it. A value that only the constructor
computing it reads is a local; a method that reads what an earlier call of
it stored (a cache's snapshot) reads a field. Reads are matched by name,
whatever the object read, so a field sharing its name with another read
attribute passes (review such names by hand). The exceptions, read only by
the tests, are listed in ``UNREAD_FIELDS``, each with its readers and the
ROADMAP item that gives it a reader or removes it; the list may only
shrink.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py")
)
PACKAGE = sorted((ROOT / "src" / "gateformer").glob("*.py"))

# definition -> its readers outside the package, and the ROADMAP item that
# gives it a reader in the package or removes it
UNREAD_IN_SRC = {
    "efficiency.CostModel.from_dims": "perfbench, tests; item 9",
    "efficiency.acceleration_ratio": "perfbench, tests; item 9",
    "numerics.count_flops": "perfbench, tests; item 9",
    "gating.GateSelection.k_eff": "perfbench's tracing._tokens, tests; item 5",
    "recall.bm25_score": "perfbench's check, tests; item 5",
    "recall.save_index": "perfbench, tests, scripts/same_numbers.py; item 7",
    "recall.load_index": "perfbench, tests; item 7",
    "training.user_keywords": "perfbench, tests; item 5",
    "transformer.encode_candidate": (
        "perfbench through the cli and training re-exports, scripts/profile_step.py, "
        "tests; item 5"
    ),
}
UNREAD_IN_SRC_MAX = 9  # lower it with each entry removed

# the callers a parameter's value may come from
CALLERS = sorted(
    p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py")
)
# parameter -> the code outside those callers that sets it
DEFAULT_ONLY: dict[str, str] = {}
DEFAULT_ONLY_MAX = 0  # lower it with each entry removed

# field -> its readers outside the callers, and the ROADMAP item that gives it
# a reader or removes it
UNREAD_FIELDS = {
    "efficiency.AccelReport.gamma": "tests; item 9",
    "text.SynthCorpus.user_pref": "tests; item 14",
}
UNREAD_FIELDS_MAX = 2  # lower it with each entry removed


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [
        a.asname or a.name.split(".")[0] for a in node.names if a.name != "*"
    ]


def _loads(tree: ast.AST):
    """(line, node) of every name load and attribute read in ``tree``; the
    names in a string annotation are read at the annotation's line."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name | ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.lineno, node
        elif isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            annotations.append(node.returns)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                for _, node in _loads(ast.parse(sub.value, mode="eval")):
                    yield sub.lineno, node


def _read_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere in the module, in string annotations too, plus
    the entries of ``__all__``."""
    read = {node.id for _, node in _loads(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return read


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = _read_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Import | ast.ImportFrom):
            continue
        if any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        unused += [(node.lineno, n) for n in _bound_names(node) if n not in read]
    return unused


def _package_modules(tree: ast.Module) -> set[str]:
    """Names the module's imports bind to modules of the package."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.module == "gateformer" or (node.level and node.module is None)
        ):
            bound.update(_bound_names(node))
        elif isinstance(node, ast.Import):
            bound.update(a.asname for a in node.names
                         if a.asname and a.name.startswith("gateformer."))
    return bound


def _definitions(tree: ast.Module):
    """(qualified name, node, is_method) of each top-level function or class
    and of each non-dunder method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs[:2]) and not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub, True


def unread_definitions(sources: dict[str, str]) -> set[str]:
    """``module.name`` of each definition in ``sources`` (module name ->
    source) that no code in them reads outside the definition's own body.

    A top-level name is read by a name load or by ``mod.name`` where ``mod``
    binds a module of the package; a method by any attribute of its name.
    Docstrings, ``__all__`` and import statements read nothing.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    # name -> (module, line, reads a top-level name, reads a method)
    reads = defaultdict(list)
    for module, tree in trees.items():
        package_modules = _package_modules(tree)
        for line, node in _loads(tree):
            if isinstance(node, ast.Name):
                reads[node.id].append((module, line, True, False))
            else:
                top = isinstance(node.value, ast.Name) and node.value.id in package_modules
                reads[node.attr].append((module, line, top, True))
    unread = set()
    for module, tree in trees.items():
        for qualname, node, is_method in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                (method if is_method else top) and not (where == module and line in own)
                for where, line, top, method in reads[node.name]
            ):
                unread.add(f"{module}.{qualname}")
    return unread


def _defaulted_parameters(tree: ast.Module):
    """(qualified parameter, function node, callee name, keyword, position,
    default) of each parameter with a default of each top-level function and
    each method of a top-level class. An ``__init__`` is called by its
    class's name, and a method's positions do not count ``self``; a
    keyword-only parameter has position None. The default is its AST dump."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            functions = [(node, None)]
        elif isinstance(node, ast.ClassDef):
            functions = [(sub, node.name) for sub in node.body
                         if isinstance(sub, ast.FunctionDef | ast.AsyncFunctionDef)]
        else:
            continue
        for fn, cls in functions:
            bound = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
            )
            callee = cls if fn.name == "__init__" else fn.name
            prefix = f"{cls}.{fn.name}" if cls else fn.name
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, (arg, default) in enumerate(zip(positional[first:], args.defaults)):
                yield (f"{prefix}.{arg.arg}", fn, callee, arg.arg, first + i - bound,
                       ast.dump(default))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{prefix}.{arg.arg}", fn, callee, arg.arg, None, ast.dump(default)


def default_only_parameters(package: dict[str, str], callers: dict[str, str]) -> set[str]:
    """``module.function.parameter`` of each defaulted parameter in
    ``package`` (module name -> source) that no call in ``callers`` (name ->
    source; a package module under its own name) passes a value other than
    the default's literal, outside the function's own body. Calls resolve as
    reads do in :func:`unread_definitions`: ``name(...)``, and
    ``mod.name(...)`` where ``mod`` binds a module of the package, call a
    top-level function or class; any ``x.name(...)`` calls a method."""
    calls = defaultdict(list)  # callee name -> (caller, call, calls a top-level name)
    for where, source in callers.items():
        tree = ast.parse(source)
        package_modules = _package_modules(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                calls[node.func.id].append((where, node, True))
            elif isinstance(node.func, ast.Attribute):
                receiver = node.func.value
                top = isinstance(receiver, ast.Name) and receiver.id in package_modules
                calls[node.func.attr].append((where, node, top))
    unset = set()
    for module, source in package.items():
        for qualname, fn, callee, keyword, position, default in _defaulted_parameters(
            ast.parse(source)
        ):
            own = range(fn.lineno, fn.end_lineno + 1)
            method = not qualname.startswith(f"{callee}.")  # not a function or an __init__
            passed = [
                value
                for where, call, top in calls[callee]
                if (top or method) and not (where == module and call.lineno in own)
                for value in [k.value for k in call.keywords if k.arg == keyword] + (
                    [call.args[position]]
                    if position is not None and position < len(call.args) and not any(
                        isinstance(a, ast.Starred) for a in call.args[:position + 1])
                    else []
                )
            ]
            if all(ast.dump(value) == default for value in passed):
                unset.add(f"{module}.{qualname}")
    return unset


CONSTRUCTORS = ("__init__", "__post_init__")


def _stored_fields(tree: ast.Module):
    """(qualified name, attribute, line ranges of the constructors storing
    it) of each field of each top-level class: an annotated name of the
    class body, or a ``self.<name>`` some method of the class assigns."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        stores: dict[str, list[range]] = {}
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                stores.setdefault(node.target.id, [])
            elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
                own = [range(node.lineno, node.end_lineno + 1)] if node.name in CONSTRUCTORS else []
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store) \
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self":
                        stores.setdefault(sub.attr, []).extend(own)
        for attr, spans in stores.items():
            yield f"{cls.name}.{attr}", attr, spans


def unread_fields(package: dict[str, str], readers: dict[str, str]) -> set[str]:
    """``module.Class.field`` of each field in ``package`` (module name ->
    source) that no attribute load in ``readers`` (name -> source; a package
    module under its own name) reads outside the constructors that store
    it."""
    reads = defaultdict(list)  # attribute -> (reader, line)
    for where, source in readers.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads[node.attr].append((where, node.lineno))
    unread = set()
    for module, source in package.items():
        for qualname, attr, spans in _stored_fields(ast.parse(source)):
            if all(where == module and any(line in own for own in spans)
                   for where, line in reads[attr]):
                unread.add(f"{module}.{qualname}")
    return unread


def _caller_sources() -> dict[str, str]:
    """Every caller's source, a package module under its module name."""
    return {
        p.stem if p.parent == ROOT / "src" / "gateformer" else str(p.relative_to(ROOT)):
        p.read_text()
        for p in CALLERS
    }


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def allowlist_problems(unread: set[str], allowlist: dict[str, str]) -> list[str]:
    """Each unread definition the allowlist lacks, and each entry that is
    read or gone."""
    return [f"unread, not allowlisted: {name}" for name in sorted(unread - set(allowlist))] + [
        f"stale allowlist entry: {name}" for name in sorted(set(allowlist) - unread)
    ]


def test_every_definition_is_read_by_the_package():
    unread = unread_definitions({p.stem: p.read_text() for p in PACKAGE})
    assert allowlist_problems(unread, UNREAD_IN_SRC) == []
    assert len(UNREAD_IN_SRC) <= UNREAD_IN_SRC_MAX
    assert all(re.fullmatch(r".+; item \d+", why) for why in UNREAD_IN_SRC.values())


def test_every_defaulted_parameter_is_set_by_a_caller():
    unset = default_only_parameters({p.stem: p.read_text() for p in PACKAGE}, _caller_sources())
    assert unset == set(DEFAULT_ONLY)
    assert len(DEFAULT_ONLY) <= DEFAULT_ONLY_MAX


def test_a_parameter_put_back_fails_the_check():
    """A copy of the package with cosine's ``eps`` put back, as a parameter
    no caller sets, fails."""
    package = {p.stem: p.read_text() for p in PACKAGE}
    callers = _caller_sources()
    head = "def cosine(a, b) -> Tensor:"
    assert package["numerics"].count(head) == 1
    package["numerics"] = callers["numerics"] = package["numerics"].replace(
        head, "def cosine(a, b, eps: float = 1e-12) -> Tensor:"
    )
    unset = default_only_parameters(package, callers)
    assert unset - set(DEFAULT_ONLY) == {"numerics.cosine.eps"}


def test_every_stored_field_is_read():
    unread = unread_fields({p.stem: p.read_text() for p in PACKAGE}, _caller_sources())
    assert allowlist_problems(unread, UNREAD_FIELDS) == []
    assert len(UNREAD_FIELDS) <= UNREAD_FIELDS_MAX
    assert all(re.fullmatch(r".+; item \d+", why) for why in UNREAD_FIELDS.values())


def test_a_field_put_back_fails_the_check():
    """A copy of the package with the index's doc lengths stored again, read
    only by the constructor that computes them, fails."""
    package = {p.stem: p.read_text() for p in PACKAGE}
    readers = _caller_sources()
    local = "        doc_lengths = np.bincount("
    assert package["recall"].count(local) == 1
    package["recall"] = readers["recall"] = package["recall"].replace(
        local, "        self.doc_lengths = doc_lengths = np.bincount("
    )
    unread = unread_fields(package, readers)
    assert unread - set(UNREAD_FIELDS) == {"recall.InvertedIndex.doc_lengths"}


class TestChecker:
    def test_flags_unread_names_only(self):
        src = (
            "from __future__ import annotations\n"
            "import os, sys\n"
            "import os.path as osp\n"
            "from typing import (\n    Callable,\n    Sequence,\n)\n"
            "def f(x: 'Callable[[], None]') -> int:\n    return sys.maxsize\n"
        )
        assert unused_imports(src) == [(2, "os"), (3, "osp"), (4, "Sequence")]

    def test_noqa_and_all_count_as_reads(self):
        src = (
            "from a import (  # noqa: F401\n    b,\n)\n"
            "import c  # noqa: F401\n"
            "from d import e\n"
            "__all__ = ['e']\n"
        )
        assert unused_imports(src) == []


class TestReaderCheck:
    def test_flags_an_unread_function_and_method(self):
        src = (
            "def used():\n    pass\n"
            "def unused():\n    pass\n"
            "class C:\n"
            "    def __init__(self):\n        pass\n"
            "    def read(self):\n        pass\n"
            "    def unread(self):\n        pass\n"
            "used()\n"
            "C().read()\n"
        )
        assert unread_definitions({"m": src}) == {"m.unused", "m.C.unread"}

    def test_counts_package_module_attributes_but_not_others(self):
        sources = {
            "ops": "def tanh(x):\n    pass\ndef sqrt(x):\n    pass\n",
            "user": (
                "import numpy as np\n"
                "from . import ops as pkgmod\n"
                "pkgmod.tanh(np.sqrt(2.0))\n"
            ),
        }
        assert unread_definitions(sources) == {"ops.sqrt"}

    def test_a_name_load_reads_no_method(self):
        src = "class C:\n    def f(self):\n        pass\nf = 1\nprint(f, C)\n"
        assert unread_definitions({"m": src}) == {"m.C.f"}

    def test_own_body_all_and_docstrings_read_nothing(self):
        src = (
            '"""Calls loop() and walk(), and C.step()."""\n'
            "__all__ = ['loop', 'walk', 'C']\n"
            "def loop(n):\n    return loop(n - 1) if n else 0\n"
            "def walk():\n    '''walk() calls itself.'''\n"
            "class C:\n"
            "    def step(self):\n        return self.step()\n"
        )
        assert unread_definitions({"m": src}) == {"m.loop", "m.walk", "m.C", "m.C.step"}

    def test_reads_in_string_annotations_count(self):
        src = "class T:\n    pass\ndef f(x: 'T | None'):\n    pass\nf(1)\n"
        assert unread_definitions({"m": src}) == set()

    def test_stale_and_missing_allowlist_entries_fail(self):
        allowlist = {"m.f": "tests; item 1", "m.g": "tests; item 1"}
        assert allowlist_problems({"m.f"}, allowlist) == ["stale allowlist entry: m.g"]
        assert allowlist_problems({"m.f", "m.g", "m.h"}, allowlist) == [
            "unread, not allowlisted: m.h"
        ]
        assert allowlist_problems({"m.f", "m.g"}, allowlist) == []


class TestParameterCheck:
    def test_keyword_and_positional_values_set_a_parameter(self):
        src = (
            "def f(x, a=1, b=2, *, c=3):\n    pass\n"
            "f(0, 5)\n"
            "f(0, c=4)\n"
            "f(0, 1, b=2)\n"
        )
        assert default_only_parameters({"m": src}, {"m": src}) == {"m.f.b"}

    def test_own_body_and_other_callers(self):
        lib = "def f(x, a=1):\n    return f(x, a=a) if x else 0\n"
        assert default_only_parameters({"lib": lib}, {"lib": lib}) == {"lib.f.a"}
        user = "from gateformer import lib\nlib.f(1, a=2)\n"
        assert default_only_parameters({"lib": lib}, {"lib": lib, "user.py": user}) == set()

    def test_methods_skip_self_and_init_goes_by_the_class(self):
        src = (
            "class C:\n"
            "    def __init__(self, a=1, b=2):\n        pass\n"
            "    def step(self, lr=0.1):\n        pass\n"
            "    @staticmethod\n"
            "    def make(n=1):\n        pass\n"
            "C(3).step(0.5)\n"
            "C.make(2)\n"
        )
        assert default_only_parameters({"m": src}, {"m": src}) == {"m.C.__init__.b"}

    def test_a_call_on_a_value_sets_no_function(self):
        lib = "def mean(x, axis=None):\n    pass\ndef vsum(x, axis=None):\n    pass\n"
        user = (
            "import numpy as np\n"
            "from gateformer import lib as nm\n"
            "def f(metrics):\n"
            "    metrics.mean(axis=0)\n"
            "    np.mean(metrics, axis=0)\n"
            "    nm.vsum(metrics, axis=0)\n"
        )
        callers = {"lib": lib, "user.py": user}
        assert default_only_parameters({"lib": lib}, callers) == {"lib.mean.axis"}

    def test_a_starred_argument_sets_nothing_after_it(self):
        src = "def f(x, a=1, b=2):\n    pass\nf(*[0, 5])\nf(0, *[5], b=3)\n"
        assert default_only_parameters({"m": src}, {"m": src}) == {"m.f.a"}


class TestFieldCheck:
    def test_flags_unread_fields_and_stores(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class D:\n"
            "    read: int\n"
            "    unread: int\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.kept = 1\n"
            "        self.lost = 2\n"
            "print(D(1, 2).read, C().kept)\n"
        )
        assert unread_fields({"m": src}, {"m": src}) == {"m.D.unread", "m.C.lost"}

    def test_a_read_by_the_storing_constructor_is_no_read(self):
        src = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.total = 1\n"
            "        self.half = self.total / 2\n"
            "        self.last = None\n"
            "    def show(self, x):\n"
            "        prev, self.last = self.last, x\n"
            "        return self.half, prev\n"
            "C().show(1)\n"
        )
        assert unread_fields({"m": src}, {"m": src}) == {"m.C.total"}

    def test_reads_count_in_any_caller_and_on_any_object(self):
        lib = "class C:\n    def __init__(self):\n        self.n = 1\n"
        user = "from gateformer import lib\nprint(lib.C().n)\n"
        assert unread_fields({"lib": lib}, {"lib": lib}) == {"lib.C.n"}
        assert unread_fields({"lib": lib}, {"lib": lib, "user.py": user}) == set()
