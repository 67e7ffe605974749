"""Every name a module exports resolves, so a deletion cannot leave an
export behind; the package's modules import one another without a cycle;
a full spectrum of a 1-D field is built nowhere outside the modules that
own the layouts; only spectral touches numpy.fft, and there only its two
transforms call the pocketfft gufuncs; no numpy call of the stepping loop
takes a Python scalar; every function parameter is read; and the README's
Python example runs as written."""

import ast
import graphlib
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import gkdvlab


@pytest.mark.parametrize("module", ["gkdvlab", "gkdvlab.estimates", "gkdvlab.harness"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def _relative_imports(path: Path, modules: set[str]) -> set[str]:
    """The package modules path imports relatively anywhere in its source:
    at module level, inside functions and under TYPE_CHECKING alike."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        if node.module is not None:
            found.add(node.module.split(".")[0])
        else:  # from . import name: an edge only where name is a module
            found.update(alias.name for alias in node.names if alias.name in modules)
    return found & modules


def test_module_imports_are_acyclic():
    root = Path(gkdvlab.__file__).parent
    paths = {p.stem: p for p in root.glob("*.py") if p.stem != "__init__"}
    graph = {name: _relative_imports(path, set(paths)) for name, path in paths.items()}
    assert "spectral" in graph["evolution"]  # the parse sees the imports
    try:
        order = list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    assert sorted(order) == sorted(paths)


def test_only_the_layout_modules_read_full_spectrum_wavenumbers():
    # grid.zeta orders every mode of a full spectrum: spectral owns it, and
    # spaces reads it as the x axis of the space-time transform; every other
    # module works on the half-spectrum (grid.rzeta)
    root = Path(gkdvlab.__file__).parent
    readers = {
        path.stem
        for path in root.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "zeta"
    }
    assert "spaces" in readers  # the parse sees the reads
    assert readers <= {"spectral", "spaces"}


def _uses_numpy_fft(node: ast.AST) -> bool:
    """node reads np.fft or imports numpy.fft or one of its modules."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "fft" and isinstance(node.value, ast.Name)
                and node.value.id in {"np", "numpy"})
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.fft") for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.module is not None:
        return node.module.startswith("numpy.fft") or (
            node.module == "numpy" and any(alias.name == "fft" for alias in node.names))
    return False


def test_only_spectral_uses_numpy_fft():
    # every transform is a traced dft_axis / idft_axis call, and the private
    # pocketfft gufuncs those call are imported in one place
    root = Path(gkdvlab.__file__).parent
    users = {
        path.stem
        for path in root.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _uses_numpy_fft(node)
    }
    assert users == {"spectral"}  # the parse sees spectral's import


def test_only_the_two_transforms_call_pocketfft():
    # the scale convention, the forward factor inside the gufunc and the
    # inverse's 1 / num, lives in dft_axis and idft_axis alone: no other
    # function of spectral reads the gufunc module
    path = Path(gkdvlab.__file__).parent / "spectral.py"
    readers = set()

    def visit(node, func):
        if isinstance(node, ast.Name) and node.id == "_pocketfft":
            readers.add(func)
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, ast.FunctionDef) else func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    assert readers == {"dft_axis", "idft_axis"}


def _function(path: Path, qualname: str) -> ast.FunctionDef:
    """The definition of the function or method qualname in path."""
    node = ast.parse(path.read_text(encoding="utf-8"))
    for name in qualname.split("."):
        node = next(child for child in node.body
                    if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and child.name == name)
    return node


def _scalar_operands(operand: ast.expr) -> list[str]:
    """operand, or an element of it when it is a tuple or list, that is a
    numeric literal or an arithmetic expression."""
    if isinstance(operand, (ast.Tuple, ast.List)):
        return [found for elt in operand.elts for found in _scalar_operands(elt)]
    if isinstance(operand, (ast.BinOp, ast.UnaryOp)) or (
            isinstance(operand, ast.Constant) and not isinstance(operand.value, bool)
            and isinstance(operand.value, (int, float, complex))):
        return [ast.unparse(operand)]
    return []


# the per-step hot path: the IF-RK4 stages, the RHS, its padding buffer and
# the two transforms.  A Python float operand is converted on every ufunc
# call (NEP 50), so each scalar there is a 0-d array built once
HOT_PATH = [
    ("evolution.py", "_step_if_rk4"),
    ("evolution.py", "_RhsWorkspace.__call__"),
    ("spectral.py", "PaddedBand.write"),
    ("spectral.py", "dft_axis"),
    ("spectral.py", "idft_axis"),
]


@pytest.mark.parametrize("module, qualname", HOT_PATH)
def test_the_stepping_loop_passes_numpy_no_python_scalar(module, qualname):
    # no np.* call, pocketfft gufunc call or in-place operator (x *= y)
    # takes a numeric literal or an arithmetic expression
    func = _function(Path(gkdvlab.__file__).parent / module, qualname)
    calls, found = 0, []
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"
                or isinstance(node.func, ast.Name) and node.func.id == "gufunc"):
            calls += 1
            for operand in node.args + [kw.value for kw in node.keywords]:
                found += _scalar_operands(operand)
        elif isinstance(node, ast.AugAssign):
            calls += 1
            found += _scalar_operands(node.value)
    assert calls > 0  # the parse sees the calls
    assert found == []


def _unread_parameters(path: Path) -> list[str]:
    """Each parameter of a function or lambda in path that its body never
    loads, nested functions included, as "file:line name(param)"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
        params += [arg.arg for arg in (a.vararg, a.kwarg) if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        found += [f"{path.name}:{node.lineno} {name}({param})"
                  for param in params if param not in read]
    return found


def test_every_parameter_is_read():
    # a parameter that only one value reaches, or none, is a second path
    # beside the code that does the job
    paths = sorted(Path(gkdvlab.__file__).parent.glob("*.py"))
    assert [found for path in paths for found in _unread_parameters(path)] == []


def test_readme_python_example_runs_as_written():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(readme), "exec"), namespace)
    rho = namespace["joints"][-1].rho
    assert abs(rho - np.pi / 2.0) < 0.05 * np.pi / 2.0  # "~pi/2 for sech data"
