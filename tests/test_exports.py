"""Every name a module exports resolves, so a deletion cannot leave an
export behind; the package's modules import one another without a cycle;
a full spectrum of a 1-D field is built nowhere outside the modules that
own the layouts; and only spectral touches numpy.fft."""

import ast
import graphlib
import importlib
from pathlib import Path

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
