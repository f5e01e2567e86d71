"""Exact-arithmetic toolkit for fusion rings and modular tensor category
data: cyclotomic numbers, fusion-ring validation, S/T matrices, integral
lattices with coset theta functions, q-series characters, and builders for
the 20- and 30-object orbifold catalogs.

The public names load on first use (PEP 562), so `import fusioncat` imports
no submodule and no numpy; only the array modules (cyclotomic, fusion_ring,
modular_data) import numpy.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "cyclotomic": ("CycNum", "CycError", "OrderCapExceeded", "cyc_rational",
                   "cyc_root_of_unity", "cyc_sqrt_rational", "format_cyc",
                   "parse_cyc"),
    "fusion_ring": ("FusionRing", "RingElement", "ValidationReport",
                    "FcatDocument", "FcatError", "parse_fcat", "emit_fcat"),
    "lattice": ("Lattice", "Coset", "dual_coset_reps", "coset_add",
                "coset_neg", "min_norm", "min_vectors",
                "orbifold_decomposition", "tau_action"),
    "modular_data": ("ModularDatum", "ModularReport", "VerlindeError"),
    "orbifold_catalog": ("build_U", "build_VLtau",
                         "count_orbifold_irreducibles", "weight_table_check",
                         "stilde_fixture", "stilde_fixture_diff"),
    "qseries": ("QSeries", "eta_inverse_power", "theta_coset", "character",
                "qdim_ratio", "qdim_ratio_extrapolated"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [*_MODULE_OF, "__version__"]


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
