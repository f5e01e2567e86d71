"""The lazy package surface, and which modules a process loads.

`import fusioncat` loads no submodule; `char` and `count` are integer and
Fraction work and must never load numpy or the cyclotomic module; a call on
an FCAT file loads none of the catalog modules.  Module loading is checked
in a fresh interpreter through `sys.modules`.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fusioncat

SRC = str(Path(fusioncat.__file__).resolve().parents[1])
HEAVY = ("numpy", "fusioncat.cyclotomic")

# Runs the CLI and prints, as the last stdout line, which of HEAVY it loaded.
_RUN_CLI = f"""\
import atexit, sys
atexit.register(lambda: print("loaded:", *[m for m in {HEAVY!r}
                                           if m in sys.modules]))
from fusioncat.cli import main
sys.exit(main(sys.argv[1:]))
"""

CLI_CASES = [
    (["char", "M^0", "--cutoff", "30"], 0, []),
    (["count", "2"], 0, []),
    (["--order-cap", "5", "char", "M^0", "--cutoff", "30"], 0, []),
    (["char", "W3"], 2, []),
    (["count", "0"], 2, []),
    (["char", "M^0", "--cutoff", "-5"], 2, []),
    (["--order-cap", "0", "char", "M^0"], 2, []),
    # the control: a matrix command does load them
    (["tmatrix", "--catalog", "U"], 0, list(HEAVY)),
]


def _python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=600)


class TestLazySurface:
    @pytest.mark.parametrize("name", [n for n in fusioncat.__all__
                                      if n != "__version__"])
    def test_name_is_the_defining_modules_object(self, name):
        module = importlib.import_module(
            f"fusioncat.{fusioncat._MODULE_OF[name]}")
        value = getattr(fusioncat, name)
        assert value is getattr(module, name)
        assert value.__module__ == module.__name__

    def test_each_export_listed_once(self):
        assert len(fusioncat.__all__) == len(set(fusioncat.__all__))
        assert fusioncat.__version__ == "0.1.0"

    def test_dir_lists_all(self):
        assert set(fusioncat.__all__) <= set(dir(fusioncat))

    def test_star_import(self):
        namespace = {}
        exec("from fusioncat import *", namespace)
        assert set(fusioncat.__all__) <= set(namespace)
        assert namespace["character"] is fusioncat.qseries.character

    def test_submodule_attribute(self):
        assert isinstance(fusioncat.lattice, types.ModuleType)
        assert fusioncat.lattice is sys.modules["fusioncat.lattice"]

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            fusioncat.no_such_name
        assert not hasattr(fusioncat, "no_such_name")


class TestNumpyNotLoaded:
    def test_import_package(self):
        proc = _python("-c", "import sys, fusioncat\n"
                       "fusioncat.character, fusioncat.count_orbifold_irreducibles\n"
                       f"print(*[m for m in {HEAVY!r} if m in sys.modules])")
        assert (proc.returncode, proc.stdout) == (0, "\n")

    @pytest.mark.parametrize("argv,code,loaded", CLI_CASES,
                             ids=[" ".join(c[0]) for c in CLI_CASES])
    def test_cli(self, argv, code, loaded):
        proc = _python("-c", _RUN_CLI, *argv)
        assert proc.returncode == code
        assert proc.stdout.splitlines()[-1].split() == ["loaded:", *loaded]
        if code == 2:
            [line] = proc.stderr.splitlines()
            assert line.startswith("error: ")
        else:
            assert proc.stderr == ""


# The modules only the catalogs and the characters use.
CATALOG = ("fusioncat.orbifold_catalog", "fusioncat.lattice",
           "fusioncat.qseries")

# Runs the CLI and prints, as the last stdout line, every fusioncat module and
# numpy in `sys.modules` order: a module takes its place there when it has
# finished loading.
_RUN_CLI_ORDER = """\
import atexit, sys
atexit.register(lambda: print("loaded:", *[m for m in sys.modules
                                           if m.split(".")[0] in
                                           ("fusioncat", "numpy")
                                           and m.count(".") <= 1
                                           and not m.startswith("numpy.")]))
from fusioncat.cli import main
sys.exit(main(sys.argv[1:]))
"""

SEMION = ("category semion\nlabel 0 1\nlabel 1 s\nunit 0\n"
          "N 0 0 0 1\nN 0 1 1 1\nN 1 0 1 1\nN 1 1 0 1\n"
          "twist 0 0/1\ntwist 1 1/4\ndim 0 1\ndim 1 1\n")


def _loaded_in_order(argv):
    proc = _python("-c", _RUN_CLI_ORDER, *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded = proc.stdout.splitlines()[-1].split()
    assert loaded[0] == "loaded:"
    return loaded[1:]


class TestCommandImports:
    @pytest.mark.parametrize("command", ["verify", "smatrix", "verlinde"])
    def test_fcat_call_loads_no_catalog_module(self, command, tmp_path):
        path = tmp_path / "semion.fcat"
        path.write_text(SEMION)
        loaded = _loaded_in_order([command, str(path)])
        assert "fusioncat.modular_data" in loaded
        assert [m for m in CATALOG if m in loaded] == []

    def test_catalog_module_compiles_before_numpy(self):
        # Compiled after numpy, it raises the peak RSS of a catalog call.
        loaded = _loaded_in_order(["verify", "--catalog", "U"])
        assert (loaded.index("fusioncat.orbifold_catalog")
                < loaded.index("numpy"))
