"""Static checks on the package and test sources, with the standard-library ``ast``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# __init__ imports names only to re-export them
MODULES = sorted(p for p in (ROOT / "src" / "wncalc").glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
# loops over something other than evaluation points: func_equivalent makes one
# array call per dyadic scale factor
SCALE_LOOPS = {"lattice"}


def looped_calls(source: str, name: str) -> list[int]:
    """Lines where a loop or comprehension calls ``name``, as a method or a bare name,
    a method of that name included."""
    tree = ast.parse(source)
    loops = [n for n in ast.walk(tree) if isinstance(n, LOOPS)
             and not (isinstance(n, ast.For) and ast.unparse(n.iter) in SCALE_LOOPS)]
    return sorted({node.lineno for loop in loops for node in ast.walk(loop)
                   if isinstance(node, ast.Call)
                   and name in (getattr(node.func, "attr", None), getattr(node.func, "id", None))})


def test_modules_found():
    assert {p.name for p in MODULES} >= {"chaos.py", "cli.py", "legendre.py", "weights.py"}


def test_test_files_found():
    assert {p.name for p in TESTS} >= {"test_acceptance.py", "test_cli.py", "test_hygiene.py"}


def test_unused_import_detected():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_looped_log_eval_detected():
    source = """
class WeightFunction:
    def log_eval(self, r):
        return [self.log_eval(x) for x in r]

def grid(u, rs, lattice):
    for r in rs:
        u.log_eval(r)
    for a in lattice:
        u.log_eval(a * rs)
        [u.log_eval(a * r) for r in rs]
    return u.log_eval(rs), list(u.log_eval(r) for r in rs)

def gram(model, pts, char_fn):
    model.char_fn(pts)
    G = [[char_fn(a - b) for b in pts] for a in pts]
    return G, [model.char_fn(xi) for xi in pts]
"""
    assert looped_calls(source, "log_eval") == [4, 8, 11, 12]
    assert looped_calls(source, "char_fn") == [16, 17]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
@pytest.mark.parametrize("name", ["log_eval", "char_fn", "check_test_bound", "check_dist_bound"])
def test_no_log_eval_loops(path, name):
    # log_eval takes a 1-D array, char_fn a (k, d) array and a bound check a batch
    # of vectors: a per-element loop outside them repeats log_eval's domain rule,
    # makes a Gram matrix m^2 calls, or redoes a bound check's per-side work
    assert looped_calls(path.read_text(), name) == []


MEMO_DECORATORS = {"lru_cache", "cache"}
PACKAGE = sorted((ROOT / "src" / "wncalc").glob("*.py"))


def memo_decorators(source: str) -> list[int]:
    """Lines of ``functools.lru_cache`` or ``functools.cache`` decorators.

    Such a cache lives as long as the module and is shared by every caller;
    memoized values belong to the object that owns them.
    """
    tree = ast.parse(source)
    return sorted(
        dec.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for dec in node.decorator_list
        if ast.unparse(dec.func if isinstance(dec, ast.Call) else dec)
        .removeprefix("functools.") in MEMO_DECORATORS
    )


def test_module_memo_detected():
    source = """
import functools
from functools import lru_cache


@lru_cache(maxsize=65536)
def mittag_leffler(lam: float, t: float) -> float:
    return 1.0


class Table:
    @functools.cache
    def rows(self):
        return []

    @property
    def size(self):
        return 0
"""
    assert memo_decorators(source) == [6, 12]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.stem)
def test_no_module_memos(path):
    assert memo_decorators(path.read_text()) == []


def clip_calls(source: str) -> list[int]:
    """Lines that call ``clip``: ``np.clip``, an array's ``.clip`` or a bare imported name."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Call) and "clip" in (
                       getattr(node.func, "attr", None), getattr(node.func, "id", None))})


def test_clip_call_detected():
    source = """
import numpy as np
from numpy import clip

def lookup(knots, x):
    i = np.clip(np.searchsorted(knots, x) - 1, 0, len(knots) - 2)
    return i.clip(0, 3), clip(i, 0, 3), np.minimum(i, 3), np.searchsorted(knots[1:-1], x)
"""
    assert clip_calls(source) == [6, 7]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.stem)
def test_no_clip_calls(path):
    # np.clip and ndarray.clip run numpy's Python-level _clip: about 8 us a call on a
    # 31-element array, where np.minimum or np.maximum take about 1 us.  On the u*
    # kernel, which the conjugate solver calls once per lockstep step, it was 8.3 of
    # 29 us.  Bound an index by searching the inner points instead; tests may clip
    assert clip_calls(path.read_text()) == [], "np.clip costs ~8 us of Python-level _clip"
