"""The README's examples, run as written: the `>>>` session of "Library
overview" as a doctest, and each CLI line that states its output after
`# ->` through `main` in process."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from fusioncat.cli import main

from test_package import SRC

README = (Path(SRC).parent / "README.md").read_text(encoding="utf-8")


def _fenced(section: str, lang: str) -> list[str]:
    """The `lang` code blocks of the README section `## section`."""
    start = README.index(f"\n## {section}\n")
    end = README.find("\n## ", start + 1)
    return re.findall(rf"```{lang}\n(.*?)```", README[start:end], re.S)


def test_library_overview_session():
    session, = _fenced("Library overview", "python")
    test = doctest.DocTestParser().get_doctest(
        session, {}, "README Library overview", "README.md", 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert attempted > 0
    assert failed == 0


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
