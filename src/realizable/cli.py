"""Command-line front end.

Subcommands compose through b-files on stdin/stdout, so pipelines like
``realizable gen fiblike 1 --terms 900 | realizable sample --monomial 2 |
realizable scale --mult 5 | realizable check`` work termwise-exactly.

Exit codes, everywhere: 0 = consistent / pass, 1 = counterexample found,
2 = usage or data error.  A clean verdict always means "consistent up to
the horizon": these are necessary-condition checks that can refute
realizability but never prove it.

Each subcommand takes the parsed arguments and the input prefix and
returns its text (a JSON report as chunks rendered while they are written)
and exit code.  Only ``main`` does I/O and maps errors: it hands the bytes
of every b-file a command names to ``seqio.parse_bfile``, which owns the
format (ASCII included), writes the text only on success (a refusal, or a
failure while a report is written, leaves no ``--out`` file), and reports
a refusal on stderr as ``not realizable: ...`` (exit 1) or ``error: ...``
(exit 2).

Every command holds b-file terms as integral Decimals, with no digit limit.
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal
from typing import Iterable
from typing import Sequence as ArgSeq

from . import seqio
from .construct import (
    DEFAULT_POINT_CAP,
    InconsistentPrefixError,
    explicit_permutation,
    realize_cycle_type,
)
from .local import check_everywhere_local, check_local, support_primes
from .realizability import _records, check_realizable
from .sequences import (
    LinearRecurrence,
    Seq,
    _int_text,
    _quoted,
    euler_abs_sequence,
    fibonacci_like,
    irregular_primes,
    linear_recurrence_terms,
    stirling_row_sequence,
    tau_beta_sequences,
)
from .transforms import (
    ExplicitTable,
    IntPolynomial,
    Monomial,
    _checked_multiplier,
    _fit,
    sample,
    scale,
    term_power,
)

__all__ = ["main", "run", "build_parser"]

ENV_POINT_CAP = "REALIZE_POINT_CAP"


# ---------------------------------------------------------------- helpers


def _read_bfile(path: str) -> Seq:
    with open(path, "rb") as fh:
        return seqio.parse_bfile(fh.read(), _term=seqio._decimal_term)


def _read_input(path: str) -> Seq:
    if path != "-":
        return _read_bfile(path)
    # the bytes of stdin, read like a file's and not decoded with the
    # locale's codec (an in-memory text stream has no buffer; its text is read)
    stdin = getattr(sys.stdin, "buffer", sys.stdin)
    return seqio.parse_bfile(stdin.read(), _term=seqio._decimal_term)


def _write_output(text: str | Iterable[str], out: str | None) -> None:
    """Write the text, or its chunks as they are rendered; if rendering or
    writing fails, no partial --out file is left."""
    chunks = (text,) if isinstance(text, str) else text
    if out is None or out == "-":
        sys.stdout.writelines(chunks)
        return
    with open(out, "w", encoding="ascii") as fh:
        try:
            fh.writelines(chunks)
        except BaseException:
            fh.close()
            if os.path.isfile(out):  # not a device such as /dev/full
                os.remove(out)
            raise


def _positive_terms(terms: int) -> int:
    if terms < 1:
        raise ValueError("--terms must be >= 1")
    return terms


def _horizon(a: Seq, terms: int | None) -> int:
    return len(a) if terms is None else _positive_terms(terms)


def _csv_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(f) for f in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of integers") from None


def _describe_failure(first_failure: tuple[int, str]) -> str:
    n, condition = first_failure
    names = {"D": "(D)", "S": "(S)", "both": "(D) and (S)"}
    return f"fails {names[condition]} at n={n}"


# ------------------------------------------------------------ subcommands


def _linrec_terms(args: argparse.Namespace, N: int) -> Seq:
    rec = LinearRecurrence(
        _csv_ints(args.coeffs, "--coeffs"),
        tuple(map(Decimal, _csv_ints(args.init, "--init"))),
    )
    return linear_recurrence_terms(rec, N)


# gen families in help order: name -> (add the family's arguments, build N
# terms).  The recurrences run on Decimals.
_GEN_FAMILIES = {
    "fiblike": (
        lambda p: p.add_argument("c", type=int, help="second term"),
        lambda args, N: fibonacci_like(Decimal(args.c), N),
    ),
    "linrec": (
        lambda p: (
            p.add_argument("--coeffs", required=True, help="a_1,...,a_k"),
            p.add_argument("--init", required=True, help="u_1,...,u_k"),
        ),
        _linrec_terms,
    ),
    "stirling": (
        lambda p: (
            p.add_argument("kind", type=int, choices=(1, 2)),
            p.add_argument("k", type=int, help="column index k >= 1"),
        ),
        lambda args, N: stirling_row_sequence(args.kind, args.k, N),
    ),
    "euler": (lambda p: None, lambda args, N: euler_abs_sequence(N)),
    "bernoulli-tau": (lambda p: None, lambda args, N: tau_beta_sequences(N)[0]),
    "bernoulli-beta": (lambda p: None, lambda args, N: tau_beta_sequences(N)[1]),
}


def _cmd_gen(args: argparse.Namespace, _: None) -> tuple[str, int]:
    return seqio.format_bfile(args.build(args, _positive_terms(args.terms))), 0


def _cmd_check(args: argparse.Namespace, a: Seq) -> tuple[str | Iterable[str], int]:
    N = _horizon(a, args.terms)
    report = check_realizable(a, N)
    if args.json:
        text = seqio._doc_chunks(seqio.realizability_doc(report))
    elif report.consistent:
        text = (
            f"consistent up to N={N} (necessary conditions only: a horizon "
            "check can refute realizability, never prove it)\n"
        )
    else:
        r = report.records[report.first_failure[0] - 1]
        detail = f"Dold value {_int_text(r.dold_value)}, residue {r.dold_mod_n} mod {r.n}"
        text = (
            f"{_describe_failure(report.first_failure)} ({detail}); verdict: "
            f"{report.verdict}\n"
        )
    return text, 0 if report.consistent else 1


def _cmd_orbits(args: argparse.Namespace, a: Seq) -> tuple[Iterable[str], int]:
    N = _horizon(a, args.terms)
    a.require_horizon(N)
    records = _records(a, N)
    counts = map(seqio._orbit_count_text, records)
    if args.json:
        text = seqio._doc_chunks({"horizon": N, "orbit_counts": list(counts)})
    else:
        text = (f"{n} {count}\n" for n, count in enumerate(counts, start=1))
    return text, 0 if all(r.ok for r in records) else 1


def _cmd_local(args: argparse.Namespace, a: Seq) -> tuple[str, int]:
    N = _horizon(a, args.terms)
    if args.prime is not None:
        reports = [check_local(a, args.prime, N)]
        trailer = ""
    else:
        reports = check_everywhere_local(a, N)
        support = [str(r.prime) for r in reports]
        trailer = (
            f"support primes: {' '.join(support) if support else '(none)'}; every "
            "prime outside the support has all-ones p-part and is trivially "
            "consistent\n"
        )
    if args.json:
        text = seqio.dumps_doc(seqio.local_doc(N, reports))
    else:
        text = "".join(
            f"p={r.prime}: consistent up to N={N}\n"
            if r.consistent
            else f"p={r.prime}: {_describe_failure(r.report.first_failure)}\n"
            for r in reports
        ) + trailer
    return text, 0 if all(r.consistent for r in reports) else 1


def _cmd_sample(args: argparse.Namespace, a: Seq) -> tuple[str, int]:
    if args.monomial is not None:
        if args.monomial < 1:
            raise ValueError("--monomial exponent must be >= 1")
        h = Monomial(args.monomial)
    else:
        h = ExplicitTable(args.table.terms)
    N = _positive_terms(args.terms) if args.terms is not None else _fit(h, len(a))
    if N == 0:
        need = _quoted(h.values[0], "terms")
        raise ValueError(f"source prefix too short even for N=1 (needs {need})")
    return seqio.format_bfile(sample(a, h, N)), 0


def _cmd_power(args: argparse.Namespace, a: Seq) -> tuple[str, int]:
    N = _horizon(a, args.terms)
    coeffs = _csv_ints(args.poly, "--poly")
    return seqio.format_bfile(term_power(a, IntPolynomial(coeffs), N)), 0


def _cmd_scale(args: argparse.Namespace, a: Seq) -> tuple[str, int]:
    return seqio.format_bfile(scale(a, args.mult)), 0


def _cmd_multiplier(args: argparse.Namespace, a: Seq) -> tuple[str | Iterable[str], int]:
    N = _horizon(a, args.terms)
    report, mult = _checked_multiplier(a, N)
    if args.json:
        text = seqio._doc_chunks(seqio.multiplier_doc(report, mult))
    else:
        value = _int_text(mult.multiplier)
        text = (
            f"minimal multiplier for condition (D) up to N={N}: {value}\n"
            f"sign condition (S) holds: {'yes' if mult.sign_ok else 'no'}\n"
        )
    return text, 0 if report.consistent else 1


def _cmd_realize(args: argparse.Namespace, a: Seq) -> tuple[str, int]:
    ct = realize_cycle_type(a, _horizon(a, args.terms))
    doc = seqio.cycle_type_doc(ct)
    if args.explicit is not None:
        cap = args.explicit
        if cap == -1:  # flag given without a value: env var, then built-in default
            cap = int(os.environ.get(ENV_POINT_CAP, DEFAULT_POINT_CAP))
        if cap < 0:
            raise ValueError("--explicit cap must be >= 0")
        perm = explicit_permutation(ct, cap)
        doc = {"cycle_type": doc, "permutation": perm}
    return seqio.dumps_doc(doc), 0


def _cmd_irregular(args: argparse.Namespace, _: None) -> tuple[str, int]:
    primes = irregular_primes(args.upto)
    return (" ".join(str(p) for p in primes) + "\n") if primes else "", 0


# ----------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realizable",
        description=(
            "Exact horizon tests for realizability of integer sequences as "
            "periodic-point counts, plus the transforms and constructions "
            "around them.  Sequences travel as b-files ('n a_n' lines)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_io(
        p: argparse.ArgumentParser,
        terms_help: str | None = "horizon (default: input length)",
    ) -> None:
        """Input, --terms (unless terms_help is None) and --out."""
        p.add_argument(
            "input",
            nargs="?",
            default="-",
            help="input b-file path, or - for stdin (default)",
        )
        if terms_help is not None:
            p.add_argument("--terms", type=int, metavar="N", help=terms_help)
        p.add_argument("--out", metavar="PATH", help="write output here, not stdout")

    gen = sub.add_parser("gen", help="generate a named sequence family as a b-file")
    genfam = gen.add_subparsers(dest="family", required=True, metavar="FAMILY")
    for name, (configure, build) in _GEN_FAMILIES.items():
        fam = genfam.add_parser(name)
        configure(fam)
        fam.add_argument("--terms", type=int, required=True, metavar="N")
        fam.add_argument("--out", metavar="PATH")
        fam.set_defaults(func=_cmd_gen, build=build)

    check = sub.add_parser("check", help="test conditions (D) and (S) up to a horizon")
    add_io(check)
    check.add_argument("--json", action="store_true", help="full report document")
    check.set_defaults(func=_cmd_check)

    orbits = sub.add_parser("orbits", help="orbit counts D_n(a)/n as exact rationals")
    add_io(orbits)
    orbits.add_argument("--json", action="store_true")
    orbits.set_defaults(func=_cmd_orbits)

    local = sub.add_parser("local", help="p-part realizability at one or all primes")
    add_io(local)
    group = local.add_mutually_exclusive_group(required=True)
    group.add_argument("--prime", type=int, metavar="P")
    group.add_argument(
        "--all", action="store_true", help="every support prime of the prefix"
    )
    local.add_argument("--json", action="store_true")
    local.set_defaults(func=_cmd_local)

    samp = sub.add_parser("sample", help="time change a_n -> a_{h(n)}")
    add_io(samp, "horizon (default: the largest N whose sampling indices fit in the input)")
    hgroup = samp.add_mutually_exclusive_group(required=True)
    hgroup.add_argument("--monomial", type=int, metavar="K", help="h(n) = n^K")
    hgroup.add_argument(
        "--table", metavar="PATH", help="b-file of values h(1), h(2), ..."
    )
    samp.set_defaults(func=_cmd_sample)

    power = sub.add_parser("power", help="termwise powers a_n -> a_n^{h(n)}")
    add_io(power)
    power.add_argument(
        "--poly",
        required=True,
        metavar="C0,C1,...",
        help="coefficients of h, constant term first, all >= 0",
    )
    power.set_defaults(func=_cmd_power)

    sc = sub.add_parser("scale", help="multiply every term by a constant")
    add_io(sc, terms_help=None)
    sc.add_argument("--mult", type=int, required=True, metavar="C")
    sc.set_defaults(func=_cmd_scale)

    mult = sub.add_parser(
        "multiplier", help="least C making (C a_n) satisfy condition (D)"
    )
    add_io(mult)
    mult.add_argument("--json", action="store_true")
    mult.set_defaults(func=_cmd_multiplier)

    real = sub.add_parser(
        "realize", help="cycle type (and optionally a permutation) realizing the prefix"
    )
    add_io(real)
    real.add_argument(
        "--explicit",
        type=int,
        nargs="?",
        const=-1,
        metavar="CAP",
        help=(
            "also emit a successor array when total points <= CAP "
            f"(no value: ${ENV_POINT_CAP} or {DEFAULT_POINT_CAP})"
        ),
    )
    real.set_defaults(func=_cmd_realize)

    irr = sub.add_parser("irregular", help="irregular primes up to a bound")
    irr.add_argument("--upto", type=int, required=True, metavar="P")
    irr.add_argument("--out", metavar="PATH")
    irr.set_defaults(func=_cmd_irregular)

    return parser


def main(argv: ArgSeq[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse prints usage itself; exit code 2 on misuse
        return int(exit_.code or 0)
    try:
        a = _read_input(args.input) if "input" in args else None
        if getattr(args, "table", None) is not None:  # sample's second b-file
            args.table = _read_bfile(args.table)
        text, code = args.func(args, a)
        _write_output(text, args.out)
        return code
    except InconsistentPrefixError as err:
        print(f"not realizable: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
