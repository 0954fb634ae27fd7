"""Every module-level import of the package and of its tests is used or
re-exported, every module-level private name is referenced somewhere in the
package, every dataclass field is read somewhere, every public name of a
library module is exported by the package, no module imports SciPy, no
inner product goes through BLAS outside the LAPACK sites above 3x3, only
``linalg`` scales data into a frame, only ``pwlmap`` names the step's
internals, each module imports only from the layers below it,
shared-eigenvalue detection turns no NumPy warning off, no
subcommand of the command-line front end catches an exception, only the
step kernel generator runs generated code, from a cache of fixed size, and
every source file parses with the Python 3.10 grammar."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import pwldyn
from pwldyn import PwlMap, orbit, pwlmap

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pwldyn"
TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module neither
    references nor lists in ``__all__``.

    ``from m import *`` binds the names that ``m`` exports, a re-export.
    Only the string entries of ``__all__`` are read; a computed entry such
    as ``*m.__all__`` references ``m``.
    """
    tree = ast.parse(source)
    bound = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {e.value for e in getattr(node.value, "elts", ())
                         if isinstance(e, ast.Constant)}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os (line 1)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("import os\nfrom . import a\nfrom .a import *\n"
                          "__all__ = [*a.__all__]\n") == ["os (line 1)"]
    assert unused_imports("import os\nfrom . import a, b\nfrom .a import *\n"
                          "__all__ = [*a.__all__, 'os']\n") == ["b (line 2)"]


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants (one leading
    underscore) of the given modules, keyed by module name, that no module
    loads, reads as an attribute or imports."""
    defined = {}
    used: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module} line {node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)


def test_no_unused_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_guard_sees_an_unused_private_name():
    sources = {
        "a.py": "def _f():\n    pass\n_K = 1\nclass _C:\n    pass\n_M = 3\n",
        "b.py": "from a import _C\nimport a\n_L: int = 2\nprint(_L, a._K)\n",
    }
    assert unused_private_names(sources) == ["_M (a.py line 6)", "_f (a.py line 1)"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def unread_fields(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Fields of the dataclasses defined in the ``package`` sources that no
    source of ``package`` or ``readers`` reads as ``.field``.  Passing a
    field to the constructor does not count as reading it."""
    fields = {}
    for module, source in package.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        fields[f"{node.name}.{item.target.id}"] = f"{module} line {item.lineno}"
    read = {node.attr for source in (*package.values(), *readers.values())
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} ({where})" for name, where in fields.items()
                  if name.split(".")[1] not in read)


def test_every_dataclass_field_is_read():
    root = PACKAGE.parents[1]
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    readers = {str(p.relative_to(root)): p.read_text(encoding="utf-8")
               for directory in ("bench", "tests") for p in sorted((root / directory).glob("*.py"))}
    assert unread_fields(package, readers) == []


def test_guard_sees_an_unread_field():
    package = {"a.py": "from dataclasses import dataclass\n"
                       "@dataclass(frozen=True)\nclass C:\n    x: int\n    y: int = 0\n"
                       "@dataclass\nclass D:\n    z: int\n"
                       "class E:\n    w: int\n"}
    readers = {"b.py": "c = C(x=1, y=2)\nc.y = 3\nprint(c.x, D(z=1).z)\n"}
    assert unread_fields(package, readers) == ["C.y (a.py line 5)"]


def scipy_imports(source: str) -> list[str]:
    """Imports of ``scipy`` or its submodules anywhere in the module, function
    bodies included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name == "scipy" or name.startswith("scipy.")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_imports(path):
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_a_scipy_import():
    source = ("import numpy\n"
              "def f():\n"
              "    from scipy.spatial import cKDTree\n"
              "    import scipy.linalg as la\n"
              "from .scipy_like import g\n"
              "import scipyx\n")
    assert scipy_imports(source) == ["scipy.spatial (line 3)", "scipy.linalg (line 4)"]


# The command-line front end is the program, not library API: the package
# does not import it, so ``import pwldyn`` loads no argparse.
LIBRARY_MODULES = sorted(p.stem for p in PACKAGE.glob("*.py")
                         if p.stem not in ("__init__", "__main__", "cli"))


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_public_names_are_exported_by_the_package(module):
    mod = importlib.import_module(f"pwldyn.{module}")
    assert sorted(set(mod.__all__) - set(pwldyn.__all__)) == []
    for name in mod.__all__:
        assert getattr(pwldyn, name) is getattr(mod, name)


def test_package_exports_each_library_name_once():
    names = [name for module in LIBRARY_MODULES
             for name in importlib.import_module(f"pwldyn.{module}").__all__]
    assert pwldyn.__all__ == names
    assert len(set(names)) == len(names)


# The package's surface is the paper's objects: the map, its pieces'
# spectra, the three reductions with their planes, charts and records, the
# scan, and the errors that the command line maps to exit codes.
PUBLIC_API = {
    "AffineHyperplane", "BcnfParams", "Chart", "ComplexPair", "DynamicsError", "EigenTriple",
    "EmptyCloud", "FixedPointInfo", "FixedPoints", "HypothesisViolated", "IllConditioned",
    "InducedSample", "InducedSamples", "MapReport", "MultipleZero", "NoFixedPoint", "NoReturn",
    "NonFinite", "NonTransversal", "NotContinuous", "NotSingular", "OrbitData", "PwlMap",
    "PwldynError", "ReducedPwlMap", "ReductionError", "ScanResult", "SharedEigReduction",
    "Spectrum", "UnitModulusReport", "UnsupportedDimension", "analyze", "attractor", "bcnf",
    "classify_unit_modulus", "default_x0", "detect_shared_eigenvalue", "fixed_points",
    "hausdorff", "orbit", "plane_chart", "real_eigen", "reduced_orbit", "restrict_to_manifold",
    "sample_induced", "scan", "validate_continuity", "zero_eig_reduction",
}


def test_package_exports_the_pinned_names():
    assert len(PUBLIC_API) == 48
    assert set(pwldyn.__all__) == PUBLIC_API


def test_package_names_resolve():
    assert len(set(pwldyn.__all__)) == len(pwldyn.__all__)
    for name in pwldyn.__all__:
        getattr(pwldyn, name)


# Names through which NumPy may hand an inner product to BLAS, whose kernels
# sum in an order of their own: as functions (``np.dot``, ``np.linalg.norm``)
# and as array methods (``x.dot``).
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "einsum", "norm"}

# The functions of each module that may still use them: the product inside
# the SVD adjugate, taken only above 3x3 where LAPACK decides the bits anyway.
BLAS_ALLOWED = {"linalg.py": {"_adj"}}


def blas_products(source: str, allowed: set[str] = frozenset()) -> list[str]:
    """Every ``@`` or ``@=`` and every use of a name in ``BLAS_NAMES``, as an
    attribute or an imported name, outside the functions named in
    ``allowed``; each with its enclosing function."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            what = "@"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            what = f".{node.attr}"
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in BLAS_NAMES:
            what = f"import {node.name}"
        if what and func not in allowed:
            found.append(f"{what} in {func or '<module>'} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_inner_products_keep_one_rounding_rule(path):
    allowed = BLAS_ALLOWED.get(path.name, set())
    assert blas_products(path.read_text(encoding="utf-8"), allowed) == []


def test_guard_sees_a_blas_product():
    source = ("import numpy as np\n"
              "from numpy.linalg import norm\n"
              "def f(a, b):\n"
              "    return a @ b + np.dot(a, b) + a.dot(b)\n"
              "def _adj(a):\n"
              "    a @= a\n"
              "    return np.matmul(a, a)\n"
              "x = np.linalg.norm(np.einsum('i,i', a, a)) + _dot(a, a)\n")
    assert blas_products(source, {"_adj"}) == [
        "import norm in <module> (line 2)", "@ in f (line 4)", ".dot in f (line 4)",
        ".dot in f (line 4)", ".norm in <module> (line 8)", ".einsum in <module> (line 8)"]
    assert len(blas_products(source)) == 8


# Every scale-free decision is taken in an exact power-of-two frame, which
# only linalg builds: ``_framed`` divides a list of floats by a power of two,
# and a ``_Frame`` holds a map's decision data so divided.  Other modules
# read a map's frame (``PwlMap._frame``) and an eigenvector's direction
# (``EigenTriple._direction``) and never scale data themselves.  The
# retired array form ``_rescaled`` stays forbidden by name.
RESCALE_NAMES = {"_rescaled", "_framed", "_Frame"}


def name_uses(source: str, names: set[str]) -> list[str]:
    """Every use of one of ``names``, as a name, an attribute or an imported
    name, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in names:
            found.append((node.lineno, f"{name} (line {node.lineno})"))
    return [what for _, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "linalg.py"),
                         ids=lambda p: p.name)
def test_only_linalg_rescales(path):
    assert name_uses(path.read_text(encoding="utf-8"), RESCALE_NAMES) == []


def test_guard_sees_a_rescale_outside_linalg():
    source = ("from .linalg import _rescaled\n"
              "from . import linalg\n"
              "def f(c, q):\n"
              "    frame = linalg._Frame(*linalg._rescaled(q))\n"
              "    c = _rescaled(c)[0]\n"
              "    return frame, linalg._map_frame(c, c, c)\n")
    assert name_uses(source, RESCALE_NAMES) == [
        "_rescaled (line 1)", "_Frame (line 4)", "_rescaled (line 4)", "_rescaled (line 5)"]


# Every two-piece map steps in ``pwlmap``: the step generator, the pieces it
# reads, the first return's outcome codes and its block sizes are named
# nowhere else.  Other modules step through ``orbit``, a map's call and
# ``sample_induced``.
STEP_NAMES = {"_kernel", "_Pieces", "_pieces", "_TwoPieces", "_RUNNING", "_OK", "_ESCAPED",
              "_NON_FINITE", "_BLOCK", "_SCALAR_ROWS"}


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "pwlmap.py"),
                         ids=lambda p: p.name)
def test_only_pwlmap_names_the_step_internals(path):
    assert name_uses(path.read_text(encoding="utf-8"), STEP_NAMES) == []


def test_guard_sees_a_step_internal_outside_pwlmap():
    source = ("from .pwlmap import _OK, sample_induced\n"
              "from . import pwlmap\n"
              "def f(pwl, X):\n"
              "    step = pwlmap._kernel('rows', 2)(pwl._pieces.flat, X.T)\n"
              "    return sample_induced(pwl, X)[0] == _OK, pwlmap._BLOCK\n")
    assert name_uses(source, STEP_NAMES) == [
        "_OK (line 1)", "_kernel (line 4)", "_pieces (line 4)", "_BLOCK (line 5)", "_OK (line 5)"]


# The library's layers, lowest first: a module imports only from the
# modules before it, so each can be read and tested with those alone.
LAYERS = ("errors", "linalg", "pwlmap", "reduction", "analysis", "cli")


def upward_imports(module: str, source: str) -> list[str]:
    """Every import of a package module that is not below ``module`` in
    ``LAYERS``, anywhere in the source: under ``if TYPE_CHECKING:`` and in
    function bodies too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pwldyn"):
            names = [node.module.partition(".")[2] or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name.partition(".")[2] for alias in node.names
                     if alias.name.startswith("pwldyn.")]
        else:
            continue
        found += [(node.lineno, f"{module} line {node.lineno} -> {name}") for name in names
                  if name.split(".")[0] in LAYERS
                  and LAYERS.index(name.split(".")[0]) >= LAYERS.index(module)]
    return [what for _, what in sorted(found)]


def test_modules_import_only_lower_layers():
    assert sorted(set(LIBRARY_MODULES) | {"cli"}) == sorted(LAYERS)
    assert [what for module in LAYERS for what in upward_imports(
        module, (PACKAGE / f"{module}.py").read_text(encoding="utf-8"))] == []


def test_guard_sees_an_upward_import():
    source = ("from typing import TYPE_CHECKING\n"
              "from . import linalg\n"
              "from .errors import NonFinite\n"
              "if TYPE_CHECKING:\n"
              "    from .reduction import Chart\n"
              "from . import analysis, errors\n"
              "def f():\n"
              "    import pwldyn.cli\n"
              "    from pwldyn import pwlmap\n")
    assert upward_imports("pwlmap", source) == [
        "pwlmap line 5 -> reduction", "pwlmap line 6 -> analysis",
        "pwlmap line 8 -> cli", "pwlmap line 9 -> pwlmap"]
    assert upward_imports("cli", source) == ["cli line 8 -> cli"]


def test_detection_turns_no_warnings_off():
    # its decisions sum on Python floats, which overflow without a warning
    tree = ast.parse((PACKAGE / "reduction.py").read_text(encoding="utf-8"))
    detect = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "detect_shared_eigenvalue")
    assert not [node.lineno for node in ast.walk(detect)
                if isinstance(node, ast.Attribute) and node.attr == "errstate"]


def commands_with_try(source: str) -> list[str]:
    """The ``cmd_*`` functions of the module that hold a ``try`` statement,
    nested ones included: only ``main`` maps exceptions to exit codes."""
    tries = (ast.Try, getattr(ast, "TryStar", ast.Try))
    return [f"{node.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
            and any(isinstance(inner, tries) for inner in ast.walk(node))]


def test_subcommands_leave_exceptions_to_main():
    assert commands_with_try((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def test_guard_sees_a_subcommand_catching():
    source = ("def cmd_a(cfg):\n"
              "    try:\n"
              "        run()\n"
              "    except ValueError:\n"
              "        pass\n"
              "def cmd_b(cfg):\n"
              "    if cfg:\n"
              "        with open(cfg) as fh:\n"
              "            try:\n"
              "                fh.read()\n"
              "            finally:\n"
              "                pass\n"
              "def cmd_c(cfg):\n"
              "    return run(cfg)\n"
              "def main():\n"
              "    try:\n"
              "        cmd_c(1)\n"
              "    except ValueError:\n"
              "        return 2\n")
    assert commands_with_try(source) == ["cmd_a (line 1)", "cmd_b (line 6)"]


# Builtins that run source text as code, and the functions that may call
# them: the generator of the unrolled step, one function per role and
# coefficient pattern.
CODEGEN_NAMES = {"exec", "eval", "compile"}
CODEGEN_ALLOWED = {"pwlmap.py": {"_kernel"}}


def codegen_calls(source: str, allowed: set[str] = frozenset()) -> list[str]:
    """Every use of a name in ``CODEGEN_NAMES`` outside the functions named
    in ``allowed``, with its enclosing function; ``re.compile`` and other
    attributes of that name are not the builtin."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Name) and node.id in CODEGEN_NAMES and func not in allowed:
            found.append(f"{node.id} in {func or '<module>'} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_kernel_generator_runs_generated_code(path):
    allowed = CODEGEN_ALLOWED.get(path.name, set())
    assert codegen_calls(path.read_text(encoding="utf-8"), allowed) == []


def test_guard_sees_generated_code():
    source = ("import re\n"
              "exec('x = 1')\n"
              "def f(s):\n"
              "    return eval(s), re.compile(s)\n"
              "def _kernel(n):\n"
              "    run = compile('pass', '<k>', 'exec')\n")
    assert codegen_calls(source, {"_kernel"}) == ["exec in <module> (line 2)", "eval in f (line 4)"]
    assert len(codegen_calls(source)) == 3


def test_kernel_cache_stays_at_its_fixed_size():
    # 200 maps, each with its own pattern of exact zeros in the pieces, each
    # compile the orbit's step functions; the cache keeps a fixed number.
    limit = pwlmap._kernel.cache_parameters()["maxsize"]
    assert limit is not None and limit < 200
    for mask in range(200):
        zeros = np.array([mask >> k & 1 for k in range(8)], dtype=bool).reshape(2, 2, 2)
        A_L, A_R = np.where(zeros, 0.0, 0.5)
        orbit(PwlMap(A_L, A_R, np.ones(2), np.array([1.0, 1.0])), np.zeros(2), 0, 1)
    assert pwlmap._kernel.cache_info().currsize == limit


# CI also runs the suite on Python 3.10, the declared minimum.  Parsing with
# its grammar here catches newer syntax, such as ``except*``, on any
# interpreter.
SOURCES = sorted([*PACKAGE.parent.rglob("*.py"), *TESTS.rglob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(TESTS.parent).as_posix())
def test_sources_parse_with_the_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_python_3_10_grammar_rejects_except_star():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
