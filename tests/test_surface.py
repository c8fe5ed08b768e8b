"""The package's public names, and the shape of every built matrix."""

import ast
import importlib.util
import inspect
import pkgutil
import sys
import types
import typing
from pathlib import Path

import pytest

import cospow
from cospow import (chebyshev, cli, even_power, exact, minpoly,
                    negative_power, odd_power, series, zeta)
from cospow.even_power import even_matrix
from cospow.negative_power import (
    matrix_neg1,
    matrix_neg3,
    matrix_neg3_gather,
    matrix_neg5,
)
from cospow.odd_power import matrix_gather, matrix_scatter

# wrappers that only forwarded a call, unwrapped a field or copied a body,
# the restatements of the angle law that Basis.fold replaced (Basis.phase
# among them, now inside fold), names no code called, the hand-typed
# cosecant closed forms that negative_power.odd_csc_weights derives, and
# poly_mod_reduce and _wrapped_binomial, reference routes that only the
# tests call; DEFAULT_CONTEXT, ScaledMatrix.row and zeta's re-export of
# monic_two_cos_poly, which nothing in the package read; cli's _jsonable,
# the per-cell str copy that cli._json's writer replaced; Basis.turn, the
# turn table cayley_table now folds itself, and zeta's _weighted_csc_sum,
# a second body of negative_power.weighted_csc_sum; ScaledMatrix.scale, an
# mpf power of two that verify_numeric's exact shift replaced; the
# Kronecker product tiers of poly_mul_coeffs and their constants, which
# only nested_minpoly's squares reached (now one packed number in minpoly);
# cli's nested-JSON writer and its per-cell type checks, which one walk of
# the flat payload replaced; series.as_fraction and zeta's import of it,
# which EvalContext.to_fraction replaced; series.generalized_multiple_angle,
# which dropped both series' converged flags
REMOVED = {
    exact: ("make_matrix", "int_mat_transpose", "poly_x", "poly_compose",
            "pochhammer", "fold_odd_cos_index", "fold_even_cos_index",
            "DyadicAngle", "poly_mod_reduce", "_wrapped_binomial",
            "DEFAULT_CONTEXT", "_ROTATION_MIN_LEN", "_rotated_trig",
            "_kronecker_product", "_kronecker_pack", "_decimal_product",
            "_decimal_slot_digits", "_slot_bound", "_KRONECKER_MIN_LEN",
            "_DECIMAL_MIN_LEN", "_DECIMAL_MIN_DIGITS"),
    exact.Basis: ("phase", "turn", "_evaluate"),
    exact.ScaledMatrix: ("row", "scale"),
    odd_power: ("scatter_target", "perm_sign", "PermSign"),
    chebyshev: ("identity_poly", "OddChebyshev"),
    minpoly: ("MinPolyPair", "minpoly_pair"),
    negative_power: ("csc3_weight", "csc5_weight", "row1_neg3", "row1_neg5",
                     "_row1_neg5_doubled", "_weight3", "_weight5",
                     "_weight7"),
    zeta: ("csc3_weight", "csc5_weight", "monic_two_cos_poly",
           "_weighted_csc_sum", "as_fraction"),
    cli: ("_jsonable", "_json", "_json_numbers", "_json_rows",
          "_json_pieces", "_cell", "_row_cell", "_render_tex"),
    series: ("sec_power_series", "csc_power_series",
             "csc_power_cos2_series", "jordan_bounds_check", "STOP_RUN",
             "as_fraction", "generalized_multiple_angle"),
}


def test_term_budgets_are_certified():
    """Every public function that takes a term budget (terms or
    max_terms) returns a result with a converged or status field, so a
    series cut short by its budget says so."""
    budgeted = []
    for info in pkgutil.iter_modules(cospow.__path__):
        module = importlib.import_module(f"cospow.{info.name}")
        for name, func in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(func)
                    or func.__module__ != module.__name__):
                continue
            params = inspect.signature(func).parameters
            if "terms" not in params and "max_terms" not in params:
                continue
            budgeted.append(f"{module.__name__}.{name}")
            returned = typing.get_type_hints(func).get("return")
            fields = typing.get_type_hints(returned) if returned else {}
            assert {"converged", "status"} & set(fields), budgeted[-1]
    assert len(budgeted) >= 9, budgeted


def test_package_binds_only_modules():
    """The package re-exports nothing: besides dunders and __version__,
    every name it binds is one of its own submodules, so each function
    and class is reached through the one module that defines it."""
    for name, value in vars(cospow).items():
        if name.startswith("__"):
            continue
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"cospow.{name}", name


def test_removed_wrappers_are_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
    for name in ("eval_exact", "eval_real", "eval_complex"):
        assert not hasattr(exact.IntPolynomial, name), name
    for name in ("angle", "acos", "sqrt"):
        assert not hasattr(exact.EvalContext, name), name


def test_bench_tracer_names_resolve(monkeypatch):
    """perfbench/tracer.py wraps package functions and methods by name.
    Building its Tracer resolves every entry of SPANS and COUNTERS, so a
    rename or removal that would break `perfbench/run.py --trace 1` fails
    here. The file is only read: no bytecode is written beside it, and the
    tracer is built but never installed."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = {entry[:2] for entry in tracer.SPANS + tracer.COUNTERS}
    assert set(tracer.Tracer()._wrappers) == names


def test_fold_and_sign_rules_stay_in_exact():
    """Every module past exact reads positions and signs through
    exact.Basis.fold; none imports quarter_fold to restate the fold or its
    sign rule."""
    for module in (chebyshev, minpoly, odd_power, even_power,
                   negative_power, series, zeta, cli):
        assert not hasattr(module, "quarter_fold"), module.__name__


def test_mpmath_stays_in_exact():
    """Only exact imports mpmath or reads an mpf's layout (the attributes
    _mpf_, _mpc_ and man_exp): every other module of the package reaches
    the numbers through EvalContext, so the libmp arithmetic behind the
    tables and the oracle's sums, and the exact reading of an mpf
    (to_fraction), have one home. Reads each module's source, so an
    import or a read inside a function counts too."""
    package = Path(cospow.__file__).parent
    layout = {"_mpf_", "_mpc_", "man_exp"}
    for path in sorted(package.glob("*.py")):
        if path.name == "exact.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert "mpmath" not in _imported_modules(tree), path.name
        read = [(node.attr, node.lineno) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in layout]
        assert not read, (path.name, read)


def _imported_modules(tree) -> list[str]:
    """Top-level names of the modules a parsed source imports, an import
    inside a function included; relative imports are left out."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.append(node.module.split(".")[0])
    return imported


def test_decimal_context_stays_private():
    """No module of the package reads, sets or swaps the thread's decimal
    context: nested_minpoly's decimal squares build their own, so a
    caller's context neither changes a result nor is changed by one. Reads
    each module's source, so a call inside a function counts too."""
    package = Path(cospow.__file__).parent
    banned = {"getcontext", "setcontext", "localcontext"}
    for path in sorted(package.glob("*.py")):
        called = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called.append(func.attr if isinstance(func, ast.Attribute)
                              else getattr(func, "id", None))
        assert not banned.intersection(called), path.name


def test_no_digit_limit_and_decimal_in_minpoly():
    """No module reads Python's int-to-str digit limit, so no result
    depends on it, and only minpoly, whose nested squares run in decimal
    from _DECIMAL_MIN_LEVEL on, imports decimal. Reads each module's
    source, so a call or import inside a function counts too."""
    package = Path(cospow.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if "decimal" in _imported_modules(tree):
            importers.append(path.name)
        read = [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)]
        assert "get_int_max_str_digits" not in read, path.name
    assert importers == ["minpoly.py"]


def test_no_unused_module_imports():
    """Every name a module imports at its top level is read in that module
    or listed in its __all__, so a deletion leaves no import behind (no
    linter runs on the package). Reads each module's source; __future__
    imports are left out."""
    package = Path(cospow.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, exported = set(), set()
        for node in tree.body:
            if isinstance(node, ast.Import) or isinstance(
                    node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name.split(".")[0]
                             for alias in node.names}
            elif isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__"
                    for target in node.targets):
                exported = set(ast.literal_eval(node.value))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        assert imported <= read | exported, (path.name,
                                             imported - read - exported)


def test_modular_powers_have_two_homes():
    """Three-argument pow is called in two functions of the package:
    odd_power._odd_inverse, the one modular inverse that the group law and
    chebyshev's inverse index share, and gather_rows, whose per-row
    inverse keeps the dual route apart from the law the scatter walks.
    Reads each module's source, naming each call by its innermost
    enclosing function."""
    package = Path(cospow.__file__).parent
    homes = []

    def visit(node, owner, module):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "id", None) == "pow"
                    and len(child.args) + len(child.keywords) == 3):
                homes.append((module, owner))
            visit(child, inner, module)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None, path.name)
    assert sorted(homes) == [("odd_power.py", "_odd_inverse"),
                             ("odd_power.py", "gather_rows")]


@pytest.mark.parametrize("n", range(3, 8))
def test_entries_are_tuples_of_ints(n):
    built = [matrix_scatter(r, n) for r in (1, 7, 2 ** n + 1)]
    built += [matrix_gather(r, n) for r in (1, 7, 2 ** n + 1)]
    built += [matrix_neg1(n), matrix_neg3(n), matrix_neg5(n),
              matrix_neg3_gather(n), even_matrix(2, n), even_matrix(10, n)]
    for m in built:
        assert type(m.entries) is tuple
        assert len(m.entries) == m.dim
        for row in m.entries:
            assert type(row) is tuple
            assert all(type(x) is int for x in row), row
