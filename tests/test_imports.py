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


def test_every_package_export_is_public_in_its_module():
    import debias_embed

    for name in debias_embed.__all__:
        if name == "__version__":
            continue
        module = import_module(f"debias_embed.{debias_embed._EXPORTS[name]}")
        assert name in module.__all__, f"{name} is exported but not in {module.__name__}.__all__"
        assert getattr(debias_embed, name) is getattr(module, name)
