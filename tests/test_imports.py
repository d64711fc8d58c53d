import ast
from importlib import import_module
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "debias_embed"


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return base and f"{base}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def private_cross_module_names(path):
    """(module, name) for each private name a source file takes from another
    module of the package: ``from .module import _name`` (or the absolute
    ``debias_embed.module``), ``from . import _module``, and ``alias._name``
    where ``alias`` is a package module the file imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found, modules = [], {"debias_embed"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").partition(".")[0] == "debias_embed"):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if private(alias.name):
                    found.append((module, alias.name))
                elif module.strip(".") in ("", "debias_embed"):  # a submodule, such as ``emb``
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "debias_embed":
                    modules.add(alias.asname or "debias_embed")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            base = dotted(node.value)
            if base in modules or (base or "").startswith("debias_embed."):
                found.append((base, node.attr))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_imported_across_modules(path):
    assert private_cross_module_names(path) == []


def test_detector_flags_private_and_skips_dunder_names(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from .subspace import _factor, pca_basis\nfrom . import __version__\n"
        "from debias_embed.lexicon import _require\nfrom . import _hidden\n"
        "from . import embeddings as emb\nimport debias_embed.align as al\n"
        "import debias_embed.debias\n"
        "emb._block_rows(3), emb.load_vec, al._x, debias_embed.debias._resolve\n"
        "self._count, parser._actions, emb.__name__\n",
        encoding="utf-8",
    )
    assert sorted(private_cross_module_names(source)) == [
        (".", "_hidden"), (".subspace", "_factor"), ("al", "_x"),
        ("debias_embed.debias", "_resolve"), ("debias_embed.lexicon", "_require"),
        ("emb", "_block_rows"),
    ]


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
