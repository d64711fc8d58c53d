import ast
from importlib import import_module
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "debias_embed"


def private_relative_imports(path):
    """(module, name) for each ``from .module import _name`` in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    found.append(("." * node.level + (node.module or ""), name))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_imported_across_modules(path):
    assert private_relative_imports(path) == []


def test_detector_flags_private_and_skips_dunder_names(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from .subspace import _factor, pca_basis\nfrom . import __version__\n",
        encoding="utf-8",
    )
    assert private_relative_imports(source) == [(".subspace", "_factor")]


def unused_imports(path):
    """Each name a source file imports and never reads, sorted."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return sorted(imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path) == []


def test_unused_import_detector_flags_unread_names_only(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .embeddings import load_vec, save_vec as save\n"
        "def f(x: np.ndarray):\n    return load_vec(x)\n",
        encoding="utf-8",
    )
    assert unused_imports(source) == ["os", "save"]


def test_every_package_export_is_public_in_its_module():
    import debias_embed

    for name in debias_embed.__all__:
        if name == "__version__":
            continue
        module = import_module(f"debias_embed.{debias_embed._EXPORTS[name]}")
        assert name in module.__all__, f"{name} is exported but not in {module.__name__}.__all__"
        assert getattr(debias_embed, name) is getattr(module, name)
