"""Exact-arithmetic toolkit for fusion rings and modular tensor category
data: cyclotomic numbers, fusion-ring validation, S/T matrices, integral
lattices with coset theta functions, q-series characters, and builders for
the 20- and 30-object orbifold catalogs.

The public names load on first use (PEP 562), so `import fusioncat` imports
no submodule and no numpy.  numpy is imported first by `cyclotomic`, with
OPENBLAS_THREAD_TIMEOUT=4 while it loads unless the environment gives a
value, so that idle BLAS workers sleep instead of spinning.  The workers
stay, so large exact products still run in parallel; the CLI alone runs
BLAS on one thread (`cli.run`).
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "cyclotomic": ("CycNum", "CycError", "OrderCapExceeded", "cyc_rational",
                   "cyc_root_of_unity", "format_cyc", "parse_cyc"),
    "fcat": ("FcatDocument", "FcatError", "parse_fcat", "emit_fcat"),
    "fusion_ring": ("FusionRing", "InvalidRingError"),
    "lattice": ("Lattice", "Coset", "min_norm", "min_vectors",
                "orbifold_decomposition"),
    "modular_data": ("ModularDatum", "VerlindeError"),
    "orbifold_catalog": ("build_U", "build_VLtau",
                         "count_orbifold_irreducibles"),
    "paper": ("weight_table_check", "stilde_fixture", "stilde_fixture_diff"),
    "qseries": ("QSeries", "eta_inverse_power", "theta_coset", "character",
                "qdim_limit"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def _ascii_int(text: str) -> int:
    """int(text) of ASCII digits with an optional sign only: int() also
    reads '1_0', ' 2' and other scripts' digits (docs/fcat.md)."""
    if not (text.isascii() and text.lstrip("+-").isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def __getattr__(name: str):
    if name in _EXPORTS:                 # a submodule, as `fusioncat.lattice`
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
