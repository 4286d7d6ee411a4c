"""The command line and the scripts call the library by its public names:
neither reads a `_`-prefixed name of another splittings module, as an
attribute or in a `from ... import`. Dunders are allowed. The package's
`__all__` lists each name its `__init__` imports, once. The public
constants that README.md quotes carry the values it gives them, and its
`$ splittings ...` examples print what it shows."""

import ast
import io
import pathlib
import re
import shlex

import pytest

import splittings
from splittings import cli_io, gbs, orbifold

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLIENTS = [ROOT / "src" / "splittings" / "cli_io.py", *sorted((ROOT / "scripts").glob("*.py"))]


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source):
    """(line, name) of each private name of a splittings module that the
    source reads; a relative import is taken to be from the package."""

    def of_package(node):
        return node.level or (node.module or "").split(".")[0] == "splittings"

    tree = ast.parse(source)
    bound = set()  # local names bound to a splittings module or object
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "splittings":
                    bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and of_package(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
                bound.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append((node.lineno, f"{root.id}...{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("path", CLIENTS, ids=lambda p: p.name)
def test_clients_read_no_private_name(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


def test_star_import_binds_exactly_all():
    bound: dict = {}
    exec("from splittings import *", bound)
    del bound["__builtins__"]
    assert len(set(splittings.__all__)) == len(splittings.__all__)
    assert set(bound) == set(splittings.__all__)
    init = ast.parse((ROOT / "src" / "splittings" / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.name for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert splittings.__all__ == imported


@pytest.mark.parametrize(
    "source, names",
    [
        ("from . import cylinders as cyl\ncyl._quotient(s, a)\n", ["cyl..._quotient"]),
        ("from . import orbifold\norbifold._census(5)\n", ["orbifold..._census"]),
        ("import splittings as sp\nsp.gbs._elements(g, 2)\n", ["sp..._elements"]),
        ("from splittings.orbifold import _census, census\n", ["_census"]),
        ("from .gbs import _sampled_words\n", ["_sampled_words"]),
        ("import splittings.gbs\nsplittings.gbs._reduce(g, w)\n", ["splittings..._reduce"]),
        # dunders, public names and private names of other objects pass
        ("import splittings as sp\nsp.__version__\nsp.census(3)\n", []),
        ("from . import cylinders as cyl\nobject.__setattr__(a, 'x', 1)\n", []),
        ("import re\nre._compile('x', 0)\nargs._seen\n", []),
    ],
)
def test_guard_reads_private_names(source, names):
    assert [name for _, name in private_reads(source)] == names


# "`NAME` = N", N with thousands commas, a line break allowed after "="
README_CONSTANT = re.compile(r"`([A-Z][A-Z0-9_]*)` =\s+(\d+(?:,\d{3})*)")
README_CONSTANTS = {
    "CENSUS_MAX_BUDGET", "DEFAULT_SEARCH_BUDGET", "DIVISIBILITY_MAX_ENDS",
    "LATTICE_MAX_EDGES", "LATTICE_MAX_WORDS", "LATTICE_MAX_WORD_LENGTH",
    "ORACLE_MAX_VERTICES",
}


def readme_constants(text):
    """(name, value) of each constant that text quotes as "`NAME` = N"."""
    return [(m[1], int(m[2].replace(",", ""))) for m in README_CONSTANT.finditer(text)]


def module_value(name):
    """The value of name in the first of gbs, orbifold and cli_io to define it."""
    for module in (gbs, orbifold, cli_io):
        if hasattr(module, name):
            return getattr(module, name)
    raise AssertionError(f"README.md quotes {name}, which no module defines")


def test_readme_quotes_constants_as_defined():
    quoted = readme_constants((ROOT / "README.md").read_text(encoding="utf-8"))
    for name, value in quoted:
        assert value == module_value(name), name
    assert {name for name, _ in quoted} == README_CONSTANTS


def test_readme_constant_guard_reads_each_form():
    text = "`LATTICE_MAX_WORDS` = 1,000 and `ORACLE_MAX_VERTICES` =\n512, `X` ≈ 3"
    assert readme_constants(text) == [("LATTICE_MAX_WORDS", 1000), ("ORACLE_MAX_VERTICES", 512)]
    with pytest.raises(AssertionError, match="NO_SUCH_CAP"):
        module_value("NO_SUCH_CAP")


def readme_examples(text):
    """(argv, output) of each "$ splittings ..." line in a ```text block of
    text: the words after "splittings", and the lines that follow it up to
    the next blank line, "$" line or the end of the block."""
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```", text, re.M | re.S):
        for m in re.finditer(r"^\$ splittings (.*)\n((?:(?!\$ )[^\n]+\n)*)", block, re.M):
            examples.append((shlex.split(m[1]), m[2]))
    return examples


def test_readme_examples_print_what_they_show():
    examples = readme_examples((ROOT / "README.md").read_text(encoding="utf-8"))
    assert [argv[:2] for argv, _ in examples] == [
        ["gbs", "report"], ["gbs", "length"], ["cylinders", "quotient"],
    ]
    for argv, shown in examples:
        out, err = io.StringIO(), io.StringIO()
        argv = [str(ROOT / a) if a.startswith("inputs/") else a for a in argv]
        assert cli_io.run(argv, out, err) == 0, err.getvalue()
        assert out.getvalue() == shown, argv


def test_readme_example_reader_reads_each_form():
    text = (
        "```sh\n$ splittings no\n```\n"
        "```text\n$ splittings a b 'c d'\nx = 1\ny\n\n$ splittings e\nz\n```\n"
        "```text\n$ splittings f\n```\n"
    )
    assert readme_examples(text) == [(["a", "b", "c d"], "x = 1\ny\n"), (["e"], "z\n"), (["f"], "")]
