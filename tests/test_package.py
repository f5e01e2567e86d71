"""The lazy package surface, and which modules a process loads.

`import fusioncat` loads no submodule; `char` and `count` are integer and
Fraction work and must never load numpy or the cyclotomic module; a call on
an FCAT file loads `fcat` and none of the catalog modules and no
`dataclasses`, as its check reports are plain rows, and `fuse`, `qdim` and
`verify` on a file without twists and dims, which read only the ring, load
no `modular_data`.  The catalog builders, counting and label lookup load
neither the lattice nor the paper's checks, nor `fcat` or `dataclasses`;
`char` loads the lattice.  Module loading is
checked in a fresh interpreter through `sys.modules`.  numpy is first
imported by `fusioncat.cyclotomic` whatever module or command loads it,
checked with `-X importtime`.  The process entry runs BLAS on one thread and freezes
the heap before exit; `main(argv)` leaves the collector and the environment
as they were.  numpy loads with a short OpenBLAS thread timeout, so idle
BLAS workers do not spin; the variable is set only while numpy loads, and a
user's value is never overridden.
"""

import gc
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
    (["char", "W3"], 2, []),
    (["count", "0"], 2, []),
    (["char", "M^0", "--cutoff", "-5"], 2, []),
    # the control: a matrix command does load them
    (["tmatrix", "--catalog", "U"], 0, list(HEAVY)),
]


def _python(*args, cwd=None, **env):
    """A fresh interpreter on this checkout, with the OpenBLAS settings of
    `env` only: a developer's own cannot mask what a test checks."""
    env = {**{k: v for k, v in os.environ.items()
              if not k.startswith("OPENBLAS_")}, **env, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=600, cwd=cwd)


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

    @pytest.mark.parametrize("module", list(fusioncat._EXPORTS))
    def test_submodule_star_import(self, module):
        # A stale `__all__` entry fails the star import itself.
        namespace = {}
        exec(f"from fusioncat.{module} import *", namespace)
        names = importlib.import_module(f"fusioncat.{module}").__all__
        assert set(names) <= set(namespace)
        assert set(fusioncat._EXPORTS[module]) <= set(names)

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

# Runs the CLI and prints, as the last stdout line, every fusioncat module,
# numpy and dataclasses in `sys.modules` order: a module takes its place there
# when it has finished loading.
_RUN_CLI_ORDER = """\
import atexit, sys
atexit.register(lambda: print("loaded:", *[m for m in sys.modules
                                           if m.split(".")[0] in
                                           ("fusioncat", "numpy",
                                            "dataclasses")
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
        assert "fusioncat.fcat" in loaded
        assert [m for m in (*CATALOG, "dataclasses") if m in loaded] == []

    @pytest.mark.parametrize("argv,text", [
        (["qdim"], SEMION), (["fuse", "1", "s"], SEMION),
        (["verify"], SEMION.split("twist")[0]),
    ], ids=["qdim", "fuse", "verify-ring-only"])
    def test_ring_command_loads_no_modular_data(self, argv, text, tmp_path):
        # nor the catalog module, whose W-index alias names only U's labels
        path = tmp_path / "semion.fcat"
        path.write_text(text)
        loaded = _loaded_in_order([*argv, str(path)])
        assert "fusioncat.fusion_ring" in loaded
        assert "fusioncat.fcat" in loaded
        assert [m for m in ("fusioncat.modular_data", *CATALOG)
                if m in loaded] == []

    def test_char_loads_no_catalog_builder(self):
        loaded = _loaded_in_order(["char", "M^0", "--cutoff", "30"])
        assert "fusioncat.qseries" in loaded
        assert "fusioncat.lattice" in loaded
        assert "fusioncat.orbifold_catalog" not in loaded

    @pytest.mark.parametrize("argv", [
        ["count", "2"], ["verify", "--catalog", "U"],
        ["verlinde", "--catalog", "VLtau"],
        ["qdim", "--catalog", "U", "--label", "W6"]], ids=" ".join)
    def test_catalog_call_loads_no_lattice(self, argv):
        # nor the FCAT module, which only files and `catalog` read
        loaded = _loaded_in_order(argv)
        assert "fusioncat.orbifold_catalog" in loaded
        assert [m for m in ("fusioncat.lattice", "fusioncat.paper",
                            "fusioncat.fcat", "dataclasses")
                if m in loaded] == []


def _importer_of_numpy(*args, cwd=None):
    """The module whose import first imported numpy, in `-X importtime`
    output: the first line after numpy's that is indented less."""
    proc = _python("-X", "importtime", *args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    rows = [line.rsplit("|", 1)[1] for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line]
    names = [row.strip() for row in rows]
    depth = [len(row) - len(row.lstrip()) for row in rows]
    at = names.index("numpy")
    return next(names[i] for i in range(at + 1, len(rows))
                if depth[i] < depth[at])


class TestNumpyEntry:
    @pytest.mark.parametrize("argv", [
        [command, *source]
        for command in ("verify", "smatrix", "tmatrix", "verlinde")
        for source in (["--catalog", "U"], ["semion.fcat"])
    ] + [["qdim", "semion.fcat"], ["fuse", "1", "s", "semion.fcat"],
         ["catalog", "U"]], ids=" ".join)
    def test_cli(self, argv, tmp_path):
        (tmp_path / "semion.fcat").write_text(SEMION)
        assert _importer_of_numpy("-m", "fusioncat.cli", *argv,
                                  cwd=tmp_path) == "fusioncat.cyclotomic"

    @pytest.mark.parametrize("module", ["fusioncat.fcat",
                                        "fusioncat.fusion_ring",
                                        "fusioncat.modular_data"])
    def test_import(self, module):
        assert (_importer_of_numpy("-c", f"import {module}")
                == "fusioncat.cyclotomic")


# Runs the CLI as `python -m fusioncat.cli` does, and prints, as the last
# stdout line, the number of frozen objects when atexit handlers run.
_RUN_CLI_AS_MAIN = """\
import atexit, gc, runpy
atexit.register(lambda: print("frozen:", gc.get_freeze_count()))
runpy.run_module("fusioncat.cli", run_name="__main__")
"""


class TestProcessEntry:
    @pytest.mark.parametrize("argv,code", [
        (["count", "2"], 0),
        (["tmatrix", "--catalog", "U"], 0),
        (["count", "0"], 2),
        (["count"], 2),                       # argparse exits in main()
    ], ids=["count", "tmatrix", "count-error", "usage"])
    def test_heap_frozen_at_exit(self, argv, code):
        proc = _python("-c", _RUN_CLI_AS_MAIN, *argv)
        assert proc.returncode == code
        label, count = proc.stdout.splitlines()[-1].split()
        assert label == "frozen:"
        assert int(count) > 0

    def test_main_leaves_the_collector_alone(self, capsys):
        from fusioncat.cli import main
        before = gc.isenabled(), gc.get_freeze_count()
        assert main(["tmatrix", "--catalog", "U"]) == 0
        assert main(["count", "0"]) == 2
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_console_script_is_the_process_entry(self):
        from fusioncat import cli
        tomllib = pytest.importorskip("tomllib")     # Python 3.11+
        pyproject = Path(SRC).parent / "pyproject.toml"
        with pyproject.open("rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["fusioncat"]
        module, _, name = target.partition(":")
        assert getattr(importlib.import_module(module), name) is cli.run


def _blas_name() -> str:
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):                 # numpy before 1.26
        return ""


# Prints the OpenBLAS variables the process environment holds.
_OPENBLAS_ENV = ("import os\n"
                 "print({k: v for k, v in sorted(os.environ.items())"
                 " if k.startswith('OPENBLAS_')})")


# The modules that import numpy.
ARRAY_MODULES = ["fusioncat.cyclotomic", "fusioncat.fusion_ring",
                 "fusioncat.modular_data"]


# As _RUN_CLI_AS_MAIN, but prints the OPENBLAS_NUM_THREADS of the process.
_RUN_CLI_AS_MAIN_BLAS = """\
import atexit, os, runpy
atexit.register(lambda: print("threads:", os.environ["OPENBLAS_NUM_THREADS"]))
runpy.run_module("fusioncat.cli", run_name="__main__")
"""


class TestBlasDefault:
    @pytest.mark.skipif(os.cpu_count() < 2 or "openblas" not in _blas_name(),
                        reason="needs OpenBLAS and a second CPU")
    def test_idle_workers_do_not_spin(self):
        # CPU time outside the main thread while it sleeps: a spinning
        # worker takes about 0.06 s of it.
        for module in ARRAY_MODULES:
            proc = _python("-c", f"import time, {module}\n"
                           "time.sleep(0.3)\n"
                           "print(time.process_time() - time.thread_time())")
            assert proc.returncode == 0, proc.stderr
            assert float(proc.stdout) < 0.01, module

    @pytest.mark.parametrize("module", ["fusioncat", *ARRAY_MODULES])
    def test_environment_left_as_it_was(self, module):
        # The timeout is set only while numpy loads: neither this process
        # nor a child it starts afterwards sees an OpenBLAS variable.
        child = f"subprocess.run([sys.executable, '-c', {_OPENBLAS_ENV!r}])"
        proc = _python("-c", f"import subprocess, sys, {module}\n"
                       f"{_OPENBLAS_ENV}\nsys.stdout.flush()\n{child}")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "{}\n{}\n"

    def test_user_value_is_kept(self):
        proc = _python("-c", "import fusioncat.cyclotomic\n" + _OPENBLAS_ENV,
                       OPENBLAS_THREAD_TIMEOUT="30")
        assert proc.stdout == "{'OPENBLAS_THREAD_TIMEOUT': '30'}\n"

    def test_nothing_set_after_numpy(self):
        # OpenBLAS read its settings when numpy loaded; a later value would
        # only mislead.
        proc = _python("-c", "import numpy, fusioncat.cyclotomic\n"
                       + _OPENBLAS_ENV)
        assert proc.stdout == "{}\n"

    def test_main_sets_no_variable(self):
        # An in-process call leaves the environment as it was, for this
        # process and for a child it starts afterwards.
        child = f"subprocess.run([sys.executable, '-c', {_OPENBLAS_ENV!r}])"
        proc = _python("-c", "import subprocess, sys\n"
                       "from fusioncat.cli import main\n"
                       "main(['count', '2'])\n"
                       f"{_OPENBLAS_ENV}\nsys.stdout.flush()\n{child}")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "20\n{}\n{}\n"

    @pytest.mark.parametrize("env,threads", [
        ({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ], ids=["default", "user-value"])
    def test_process_entry_runs_one_thread(self, env, threads):
        proc = _python("-c", _RUN_CLI_AS_MAIN_BLAS, "tmatrix", "--catalog", "U",
                       **env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"threads: {threads}"
