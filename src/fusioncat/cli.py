"""Command-line front end.

Subcommands: verify, fuse, qdim, smatrix, tmatrix, verlinde, catalog, char,
count.  Exit codes: 0 success, 1 a failed check (a library error for one
carries `exit_code` 1), 2 parse/usage error.  Exact output is the default;
`--format float` rounds at 10 significant digits.  Each command imports
only the modules it runs (README, "Start-up cost").  Input past a fixed
bound (README, "CLI"), and every other arithmetic error, is one `error:`
line, exit 2.

`run()` is the process entry of both `python -m fusioncat.cli` and the
`fusioncat` console script.  `main(argv)` has none of its side effects and
can be called in process any number of times.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from . import _ascii_int

if TYPE_CHECKING:
    from .cyclotomic import CycNum
    from .fusion_ring import FusionRing
    from .modular_data import ModularDatum
    from .qseries import QSeries

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Usage-level error: printed as a single diagnostic line, exit 2."""

    exit_code = EXIT_USAGE


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


def _load(args) -> tuple[FusionRing, Callable[[], ModularDatum | None]]:
    """The ring of --catalog or of an FCAT file ('-' reads stdin), and a
    builder of its datum (None for a file without every twist and dim)."""
    if args.catalog:
        if args.input is not None:
            raise CliError("give --catalog or an input file, not both "
                           f"(input {args.input!r})")
        md = _build_catalog(args.catalog)
        return md.ring, lambda: md
    if args.input is None:
        raise CliError("an input file or --catalog is required")
    from .fcat import parse_fcat
    doc = parse_fcat(sys.stdin.read() if args.input == "-"
                     else Path(args.input).read_text(encoding="utf-8"))
    return doc.ring, doc.datum


def _require_datum(args) -> ModularDatum:
    md = _load(args)[1]()
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
    ring, datum = _load(args)
    report = ring.validate()
    ok = report.passed
    md = datum() if ok else None
    for line in report.lines():
        print(line)
    if md is not None:
        mrep = md.verify_modular()
        for line in mrep.lines():
            print(line)
        ok = mrep.passed
        if ok:
            from .modular_data import VerlindeError
            try:
                ok = bool((md.verlinde() == ring.tensor).all())
            except VerlindeError:
                ok = False
            print(mrep.line("Verlinde round-trip", ok))
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _label(ring: FusionRing, name: str) -> int:
    """The index of a label, or of a W-index alias of U's labels (W0..W19):
    only a name of that form that is no label loads the catalog module."""
    if (name not in ring.labels and name[:1] == "W" and name.isascii()
            and name[1:].isdecimal()):
        from .orbifold_catalog import U_LABELS
        if ring.labels == U_LABELS:
            index = name[1:].lstrip("0") or "0"
            # Over two digits is past U's 20 labels; int() refuses over 4300.
            if len(index) > 2 or int(index) >= len(U_LABELS):
                raise KeyError(f"W-index {name!r} out of range")
            return int(index)
    return ring.label_index(name)


def cmd_fuse(args) -> int:
    ring, _ = _load(args)
    product = ring.fuse(_label(ring, args.a), _label(ring, args.b))
    print(" + ".join(ring.labels[k] if m == 1 else f"{m}*{ring.labels[k]}"
                     for k, m in product.items()))
    return EXIT_OK


def cmd_qdim(args) -> int:
    ring, _ = _load(args)
    if args.label:
        idx = _label(ring, args.label)
        print(_float_str(ring.qdim_pf(idx)))
    else:
        for i, name in enumerate(ring.labels):
            print(f"{name} {_float_str(ring.qdim_pf(i))}")
    return EXIT_OK


def _entry_str(args) -> Callable[[CycNum], str]:
    """A matrix entry as text: exact, or its parts with `--format float`."""
    from .cyclotomic import format_cyc
    return _complex_str if args.format == "float" else format_cyc


def cmd_smatrix(args) -> int:
    md = _require_datum(args)
    s = md.stilde() if args.unnormalized else md.s_matrix()
    text = _entry_str(args)
    for i, row in enumerate(s):
        for j, entry in enumerate(row):
            print(f"{i} {j} {text(entry)}")
    return EXIT_OK


def cmd_tmatrix(args) -> int:
    md = _require_datum(args)
    if md.central_charge is None:
        # An FCAT file gives c mod 8 only with D: raise why there is no D.
        md.D
    text = _entry_str(args)
    for i, entry in enumerate(md.t_matrix()):
        print(f"{i} {text(entry)}")
    return EXIT_OK


def cmd_verlinde(args) -> int:
    tensor = _require_datum(args).verlinde()
    for i, j, k in zip(*tensor.nonzero()):           # row-major
        print(f"N {i} {j} {k} {tensor[i, j, k]}")
    return EXIT_OK


def cmd_catalog(args) -> int:
    md = _build_catalog(args.name)
    from .fcat import FcatDocument, emit_fcat
    doc = FcatDocument(
        name=args.name,
        ring=md.ring,
        twists=dict(enumerate(md.twists)),
        dims=dict(enumerate(md.dims)),
    )
    sys.stdout.write(emit_fcat(doc))
    return EXIT_OK


_CHAR_PIECES = {"M^0": 0, "M^1": 1, "W6": 0, "W7": 1}

MAX_CUTOFF = 10_000     # the q-series work grows faster than the cutoff


def cmd_char(args) -> int:
    from .lattice import full_coset_pieces
    if args.label not in _CHAR_PIECES:
        raise CliError(
            f"character not available for {args.label!r}: only the full-coset "
            "modules M^0 and M^1 have computable characters "
            "(eigenspace traces are out of scope)")
    if args.cutoff < 0:
        raise CliError(f"--cutoff must be non-negative, not {args.cutoff}")
    if args.cutoff > MAX_CUTOFF:
        raise CliError(
            f"--cutoff {args.cutoff} exceeds the bound {MAX_CUTOFF}")
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

def _add_source_args(p: argparse.ArgumentParser):
    p.add_argument("--catalog", help="built-in catalog: U or VLtau")
    p.add_argument("input", nargs="?",
                   help="FCAT v1 file path, or '-' for stdin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusioncat",
        description="Exact fusion-ring and modular-data toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run all consistency checks")
    _add_source_args(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fuse", help="fusion product of two labels")
    p.add_argument("a")
    p.add_argument("b")
    _add_source_args(p)
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

    # ASCII integers, as in FCAT; a usage error still names int.
    for p in sub.choices.values():
        p.register("type", int, _ascii_int)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
        # FcatError is a ValueError.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_USAGE)


def run() -> int:
    """Process entry: one BLAS thread, `main()` on sys.argv, `gc.freeze()`.

    A catalog-size call gains nothing from a second BLAS thread, which costs
    it peak RSS and latency.  The freeze moves every live object to the
    permanent generation, so the collections of interpreter finalization
    traverse nothing; flushing, atexit handlers and the exit code are
    unchanged.  Only a process that is about to exit should call this.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
