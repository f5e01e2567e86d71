"""The README's examples, run as written: the `>>>` session of "Library
overview" as a doctest, and each CLI line that states its output after
`# ->` through `main` in process.  Each name the "Library overview" table
gives in backticks must exist in the package, and its first column names
each module of `fusioncat._EXPORTS` once."""

import builtins
import doctest
import functools
import importlib
import inspect
import pkgutil
import re
import shlex
import types
from pathlib import Path

import pytest

import fusioncat
from fusioncat.cli import main

from test_package import SRC

README = (Path(SRC).parent / "README.md").read_text(encoding="utf-8")


def _section(section: str) -> str:
    """The README section `## section`."""
    start = README.index(f"\n## {section}\n")
    return README[start:README.find("\n## ", start + 1)]


def _fenced(section: str, lang: str) -> list[str]:
    """The `lang` code blocks of the README section `## section`."""
    return re.findall(rf"```{lang}\n(.*?)```", _section(section), re.S)


def test_library_overview_session():
    session, = _fenced("Library overview", "python")
    test = doctest.DocTestParser().get_doctest(
        session, {}, "README Library overview", "README.md", 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert attempted > 0
    assert failed == 0


def _table_rows() -> list[str]:
    """The body rows of the "Library overview" table."""
    return [line for line in _section("Library overview").splitlines()
            if line.startswith("| `")]


def _table_names() -> list[str]:
    """The backticked identifiers of the "Library overview" table, each
    without a trailing call `(...)`."""
    return [m[1] for row in _table_rows()
            for span in re.findall(r"`([^`]+)`", row)
            if (m := re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", span))]


def _roots() -> list:
    """Where a table name may start: the package itself, each of its
    modules, each class one of them defines, and the builtins."""
    modules = [importlib.import_module(f"fusioncat.{info.name}")
               for info in pkgutil.iter_modules(fusioncat.__path__)]
    classes = [value for module in modules for value in vars(module).values()
               if inspect.isclass(value)
               and value.__module__ == module.__name__]
    return [types.SimpleNamespace(fusioncat=fusioncat), *modules, *classes,
            builtins]


def _resolves(name: str, roots: list) -> bool:
    """Whether some root holds `name`, read one dotted part at a time."""
    for root in roots:
        try:
            functools.reduce(getattr, name.split("."), root)
        except AttributeError:
            continue
        return True
    return False


def test_library_overview_names_resolve():
    names = _table_names()
    roots = _roots()
    assert names
    assert [name for name in names if not _resolves(name, roots)] == []


def test_library_overview_lists_each_module():
    modules = [row.split("`")[1] for row in _table_rows()]
    assert sorted(modules) == sorted(f"fusioncat.{m}"
                                     for m in fusioncat._EXPORTS)


_CLI_LINES = [line for block in _fenced("CLI", "sh")
              for line in block.splitlines() if "# ->" in line]


@pytest.mark.parametrize("line", _CLI_LINES,
                         ids=lambda line: line.partition("#")[0].strip())
def test_cli_line_prints_what_it_states(line, capsys):
    command, _, stated = line.partition("# ->")
    program, *argv = shlex.split(command)
    assert program == "fusioncat"
    assert main(argv) == 0
    assert capsys.readouterr().out == stated.strip() + "\n"
