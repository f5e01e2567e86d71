"""Command-line front end.

Subcommands: verify, fuse, qdim, smatrix, tmatrix, verlinde, catalog, char,
count.  Exit codes: 0 success, 1 verification failure, 2 parse/usage error.
Exact output is the default; `--format float` rounds at 10 significant
digits.  Each command imports only the modules it runs: `char` and `count`
load no numpy, and the matrix commands on an FCAT file no catalog module.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .cyclotomic import CycNum
    from .fusion_ring import FcatDocument
    from .modular_data import ModularDatum
    from .qseries import QSeries

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Usage-level error: printed as a single diagnostic line, exit 2."""


# Called through these names, so that a caller can wrap them in place.

def build_U() -> ModularDatum:
    from . import orbifold_catalog
    return orbifold_catalog.build_U()


def build_VLtau() -> ModularDatum:
    from . import orbifold_catalog
    return orbifold_catalog.build_VLtau()


def character(pieces, c: int, cutoff: Fraction) -> QSeries:
    from . import qseries
    return qseries.character(pieces, c, cutoff)


def _build_catalog(name: str) -> ModularDatum:
    key = name.strip().lower()
    if key == "u":
        return build_U()
    if key == "vltau":
        return build_VLtau()
    raise CliError(f"unknown catalog {name!r} (choose U or VLtau)")


def _load_datum(args) -> tuple[ModularDatum | None, FcatDocument | None]:
    """Datum from --catalog or an FCAT file ('-' reads stdin)."""
    from .fusion_ring import parse_fcat
    from .modular_data import ModularDatum
    path = getattr(args, "input", None)
    if getattr(args, "catalog", None):
        if path is not None:
            raise CliError("give --catalog or an input file, not both "
                           f"(input {path!r})")
        return _build_catalog(args.catalog), None
    if path is None:
        raise CliError("an input file or --catalog is required")
    if path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).read_text(encoding="utf-8")
    doc = parse_fcat(text)
    if doc.has_modular_annotations and doc.ring.validate().passed:
        md = ModularDatum(doc.ring, doc.twists, doc.dims)
        # FCAT carries no central charge; infer c mod 8 from the Gauss sums
        # so the ratio check and T matrix are available when possible.
        inferred = md.infer_central_charge_mod8()
        if inferred is not None:
            md = ModularDatum(doc.ring, doc.twists, doc.dims,
                              central_charge=inferred)
        return md, doc
    return None, doc


def _require_datum(args) -> ModularDatum:
    md, doc = _load_datum(args)
    if md is None:
        raise CliError("input lacks twist/dim annotations needed here")
    return md


def _float_str(x: float) -> str:
    return f"{x:.10g}"


def _complex_str(x: CycNum) -> str:
    """Real and imaginary part of x; a part that is exactly 0 prints as 0."""
    z, conj = x.embed(), x.conj()
    real = 0.0 if x == -conj else z.real
    imag = 0.0 if x == conj else z.imag
    return f"{_float_str(real)} {_float_str(imag)}"


# -- subcommand implementations ---------------------------------------------

def cmd_verify(args) -> int:
    from .modular_data import VerlindeError
    import numpy as np
    md, doc = _load_datum(args)
    ring = md.ring if md is not None else doc.ring
    report = ring.validate()
    for line in report.lines():
        print(line)
    ok = report.passed
    if md is not None and ok:
        mrep = md.verify_modular()
        for line in mrep.lines():
            print(line)
        ok = mrep.passed
        if ok:
            try:
                verl_ok = bool(np.array_equal(md.verlinde(), ring.tensor))
            except VerlindeError:
                verl_ok = False
            print(f"Verlinde round-trip        "
                  f" {'PASS' if verl_ok else 'FAIL'}")
            ok = ok and verl_ok
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_fuse(args) -> int:
    from .orbifold_catalog import resolve_label
    md, doc = _load_datum(args)
    ring = md.ring if md is not None else doc.ring
    a = resolve_label(ring, args.a)
    b = resolve_label(ring, args.b)
    print(ring.fuse(ring.basis_element(a), ring.basis_element(b)))
    return EXIT_OK


def cmd_qdim(args) -> int:
    from .orbifold_catalog import resolve_label
    md, doc = _load_datum(args)
    ring = md.ring if md is not None else doc.ring
    if args.label:
        idx = resolve_label(ring, args.label)
        print(_float_str(ring.qdim_pf(idx)))
    else:
        for i, name in enumerate(ring.labels):
            print(f"{name} {_float_str(ring.qdim_pf(i))}")
    return EXIT_OK


def cmd_smatrix(args) -> int:
    from .cyclotomic import format_cyc
    md = _require_datum(args)
    s = md.stilde() if args.unnormalized else md.s_matrix()
    n = md.ring.rank
    for i in range(n):
        for j in range(n):
            entry = s[i][j]
            if args.format == "float":
                print(f"{i} {j} {_complex_str(entry)}")
            else:
                print(f"{i} {j} {format_cyc(entry)}")
    return EXIT_OK


def cmd_tmatrix(args) -> int:
    from .cyclotomic import format_cyc
    md = _require_datum(args)
    if md.central_charge is None:
        raise CliError("central charge required for the T matrix")
    for i, entry in enumerate(md.t_matrix()):
        if args.format == "float":
            print(f"{i} {_complex_str(entry)}")
        else:
            print(f"{i} {format_cyc(entry)}")
    return EXIT_OK


def cmd_verlinde(args) -> int:
    from .modular_data import VerlindeError
    import numpy as np
    md = _require_datum(args)
    try:
        tensor = md.verlinde()
    except VerlindeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    for i, j, k in np.argwhere(tensor).tolist():     # row-major
        print(f"N {i} {j} {k} {tensor[i, j, k]}")
    return EXIT_OK


def cmd_catalog(args) -> int:
    from .fusion_ring import FcatDocument, emit_fcat
    md = _build_catalog(args.name)
    doc = FcatDocument(
        name=args.name,
        ring=md.ring,
        twists=dict(enumerate(md.twists)),
        dims=dict(enumerate(md.dims)),
    )
    sys.stdout.write(emit_fcat(doc))
    return EXIT_OK


_CHAR_PIECES = {
    "M^0": 0,
    "M^1": 1,
    "W6": 0,
    "W7": 1,
}


def cmd_char(args) -> int:
    from .orbifold_catalog import full_coset_pieces
    if args.label not in _CHAR_PIECES:
        raise CliError(
            f"character not available for {args.label!r}: only the full-coset "
            "modules M^0 and M^1 have computable characters "
            "(eigenspace traces are out of scope)")
    if args.cutoff < 0:
        raise CliError(f"--cutoff must be non-negative, not {args.cutoff}")
    pieces = full_coset_pieces(_CHAR_PIECES[args.label])
    series = character(pieces, 3, Fraction(args.cutoff))
    for line in series.dump_lines():
        print(line)
    return EXIT_OK


def cmd_count(args) -> int:
    from .orbifold_catalog import count_orbifold_irreducibles
    print(count_orbifold_irreducibles(args.n))
    return EXIT_OK


# -- argument parsing --------------------------------------------------------

def _add_source_args(p: argparse.ArgumentParser, with_input: bool = True):
    p.add_argument("--catalog", help="built-in catalog: U or VLtau")
    if with_input:
        p.add_argument("input", nargs="?",
                       help="FCAT v1 file path, or '-' for stdin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusioncat",
        description="Exact fusion-ring and modular-data toolkit")
    parser.add_argument("--order-cap", type=int, default=None,
                        help="cap on cyclotomic order promotion")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run all consistency checks")
    _add_source_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fuse", help="fusion product of two labels")
    p.add_argument("--catalog")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("input", nargs="?")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("qdim", help="Perron-Frobenius quantum dimensions")
    p.add_argument("--label", default=None)
    _add_source_args(p)
    p.set_defaults(func=cmd_qdim)

    p = sub.add_parser("smatrix", help="exact S matrix (grid lines)")
    p.add_argument("--format", choices=("grid", "float"), default="grid")
    p.add_argument("--unnormalized", action="store_true",
                   help="print s-tilde instead of S")
    _add_source_args(p)
    p.set_defaults(func=cmd_smatrix)

    p = sub.add_parser("tmatrix", help="exact T-matrix diagonal")
    p.add_argument("--format", choices=("grid", "float"), default="grid")
    _add_source_args(p)
    p.set_defaults(func=cmd_tmatrix)

    p = sub.add_parser("verlinde", help="structure constants recovered from S")
    _add_source_args(p)
    p.set_defaults(func=cmd_verlinde)

    p = sub.add_parser("catalog", help="emit a built-in catalog as FCAT v1")
    p.add_argument("name", help="U or VLtau")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("char", help="q-character of a full-coset module")
    p.add_argument("label")
    p.add_argument("--cutoff", type=int, default=30)
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("count", help="irreducible-module count for rank n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_count)

    return parser


def _discard_stdout() -> None:
    """Point stdout at devnull, so the flush at exit cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


# Commands with no cyclotomic arithmetic; --order-cap does not apply.
_NO_CYCLOTOMIC = (cmd_char, cmd_count)


def main(argv: list[str] | None = None) -> int:
    # No command uses BLAS threads; starting them at `import numpy` costs CPU.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.order_cap is not None and args.order_cap < 1:
        print(f"error: --order-cap must be at least 1, not {args.order_cap}",
              file=sys.stderr)
        return EXIT_USAGE
    cyclotomic = None
    if args.func not in _NO_CYCLOTOMIC:
        # Imported first, so that they compile before numpy is resident:
        # this keeps the peak RSS where the eager imports had it.
        if args.func in (cmd_catalog, cmd_fuse, cmd_qdim) or args.catalog:
            from . import orbifold_catalog  # noqa: F401
        from . import cyclotomic
        saved_cap = cyclotomic.DEFAULT_ORDER_CAP
        if args.order_cap is not None:
            cyclotomic.DEFAULT_ORDER_CAP = args.order_cap
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            _discard_stdout()
        reason = exc.strerror or str(exc)
        if exc.filename is not None:
            reason = f"{exc.filename}: {reason}"
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_USAGE
    except (CliError, KeyError, ValueError, ArithmeticError) as exc:
        # FcatError is a ValueError.  CycError and GlobalDimensionError are
        # resolved here, so `char` and `count` never import their modules.
        if isinstance(exc, ArithmeticError):
            from .cyclotomic import CycError
            from .modular_data import GlobalDimensionError
            if not isinstance(exc, (CycError, GlobalDimensionError)):
                raise
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if cyclotomic is not None:
            cyclotomic.DEFAULT_ORDER_CAP = saved_cap


if __name__ == "__main__":
    sys.exit(main())
