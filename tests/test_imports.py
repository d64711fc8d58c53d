import argparse
import ast
import subprocess
import sys
from importlib import import_module, util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "debias_embed"
#: the package's modules and the scripts that use it
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
#: the test modules, which may patch private names but import no unused ones
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
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


def entry_spellings(path):
    """The line of each f-string of a source file that puts a bare ``:`` right
    after a value, as ``f"{language}:{word}"`` spells a merged vocabulary entry."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
            and any(isinstance(before, ast.FormattedValue) and isinstance(part, ast.Constant)
                    and part.value == ":" for before, part in zip(node.values, node.values[1:]))]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_embeddings_module_spells_a_merged_entry(path):
    # embeddings.entry_prefix owns "<lang>:"; every other module looks words up through it
    if path.stem != "embeddings":
        assert entry_spellings(path) == []


def test_entry_spelling_detector_flags_a_bare_colon_after_a_value_only(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        'a = f"{lang}:{word}"\nb = f"{lang}:"\nc = f"{path}: line {n}"\n'
        'd = f"x:{y}"\ne = f"{x!r}:"\nf = f"{x:>4}"\ng = "{lang}:"\n',
        encoding="utf-8",
    )
    assert entry_spellings(source) == [1, 2, 5]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_lexicon_refuses_an_unknown_language(path):
    # GenderLexicon.require_languages owns the check every entry point calls
    if path.stem != "lexicon":
        assert "unknown language" not in path.read_text(encoding="utf-8")


def string_literals(path):
    """Every string constant of a source file, docstrings included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_subspace_module_and_the_parser_name_projection_pursuit(path):
    # subspace owns the estimators; every other module is handed the fit, or its name
    if path.stem not in ("subspace", "cli"):
        assert "ppa" not in string_literals(path)


def method_choices(parser):
    return next(tuple(a.choices) for a in parser._actions if a.dest == "method")


def test_the_method_choices_of_the_parsers_are_the_subspace_methods(monkeypatch):
    # the CLI spells them out, as it must not import numpy before its digest worker forks
    from debias_embed import cli, subspace
    from helpers import load_script

    class Built(Exception):
        pass

    def built(parser, *args, **kwargs):
        raise Built(parser)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", built)
    with pytest.raises(Built) as script:
        load_script("reproduce_mono_inbias").main([])
    assert method_choices(cli.build_parser()._by_subcommand["debias"]) == subspace.METHODS
    assert method_choices(script.value.args[0]) == subspace.METHODS


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


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
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


def test_planted_worlds_import_numpy_and_the_standard_library_only():
    # a world built with the package's own code could not check it
    path = ROOT / "scripts" / "planted.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {"." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert [m for m in modules if m.partition(".")[0] == "debias_embed"] == []
    assert {m.partition(".")[0] for m in modules} - set(sys.stdlib_module_names) == {"numpy"}


def test_the_package_exports_each_public_name_of_its_library_modules():
    import debias_embed

    owners = {}
    for module in debias_embed._MODULES:
        module = import_module(f"debias_embed.{module}")
        for name in module.__all__:
            assert name not in owners, f"{owners.get(name)} and {module.__name__} export {name}"
            owners[name] = module.__name__
            assert getattr(debias_embed, name) is getattr(module, name)
    assert debias_embed.__all__ == sorted(owners) + ["__version__"]


def test_the_library_modules_are_every_module_but_the_command_line():
    import debias_embed

    assert sorted(debias_embed._MODULES) == sorted(
        path.stem for path in PACKAGE.glob("*.py") if path.stem not in ("__init__", "cli"))


def test_importing_the_package_and_its_command_line_loads_no_numpy():
    # DEBIAS_EMBED_THREADS caps BLAS only if numpy is not loaded before the cap
    code = ("import sys, debias_embed, debias_embed.cli\n"
            "print('numpy' in sys.modules)\n"
            "from debias_embed import lexicon\n"
            "print(*sorted(m for m in sys.modules if m.startswith('debias_embed.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    # a submodule imported by name loads only itself and what it imports
    assert proc.stdout.splitlines() == [
        "False",
        "debias_embed.cli debias_embed.embeddings debias_embed.lexicon debias_embed.manifest"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_name_a_module_exports_is_defined_there(path):
    name = "debias_embed" if path.stem == "__init__" else f"debias_embed.{path.stem}"
    module = import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_exported_name_is_read_by_the_package_or_a_script():
    # a public name only tests read is surface to keep up for no caller
    read = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = import_module("debias_embed" if path.stem == "__init__"
                               else f"debias_embed.{path.stem}")
        unread += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ())
                   if name not in read]
    assert unread == []


def test_every_traced_name_is_a_callable_of_the_package():
    # the benchmark's tracer wraps these by name: a rename fails here, not as failed ops there
    spec = util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # reads the table; imports no package module
    unresolved = []
    for name in tracer.TRACED:
        layer, *path = name.split(".")
        owner = import_module(f"debias_embed.{layer}")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(name)
    assert unresolved == []
