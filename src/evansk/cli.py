"""Command-line front end.

Subcommands::

    evansk validate FILE            check the standing hypotheses
    evansk complex FILE             ranks, labels and boundary matrices
    evansk homology FILE            homology groups per degree
    evansk e2 FILE                  the E2 page
    evansk verdict FILE             K-theory verdict
    evansk gen monoid ...           exhaustive single-vertex corpus
    evansk gen polynomial-family .. seeded commuting families

``--format text|json`` selects the output form; ``--out PATH`` redirects
it to a file.  The JSON report has the same schema for every subcommand,
with unused sections null; each report formats the stages of one
:class:`~evansk.spectral.Analysis`, and ``timing.seconds`` is its
``seconds`` then ``total``, the command's clock from reading the
document to the report; argument parsing and the final JSON encoding
fall outside it.  Exit status: 0 success, 1 validation
failure, 2 parse/structural/usage error (``--degree`` is checked before
assembly) or an input over a size limit of :mod:`evansk.limits`, 141 when
the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time
from pathlib import Path

from . import limits
from .corpus import CorpusError, exhaustive_monoid_documents, random_polynomial_documents
from .documents import DocumentError, GraphDocument, dumps_documents, dumps_json, load_document
from .indexsets import labels
from .kgraph import StructuralError
from .render import render_differential
from .spectral import Analysis, e2_dict


class ReportError(ValueError):
    """A ``--degree`` out of range."""


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        status = args.run(args)
        sys.stdout.flush()  # a short report would otherwise first be written at exit
        return status
    except BrokenPipeError:  # the reader closed stdout: stop quietly, as `head` expects
        with (contextlib.suppress(AttributeError, OSError, ValueError),
              open(os.devnull, "w") as devnull):  # quiet the flush at exit too
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE: what a shell reports for a C tool in the same pipe
    except (DocumentError, StructuralError, CorpusError, limits.LimitError, ReportError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, in one step when ``argv[0]`` names a command.

    The command's subparser parses the rest, as argparse's subparsers action
    would.  Anything else, or extras the subparser leaves, goes through the
    whole parser, so its messages and exit codes are argparse's own."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            return args
    return parser.parse_args(argv)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args fills a fresh namespace each call.
    parser = argparse.ArgumentParser(
        prog="evansk",
        description="Evans chain complexes of higher-rank graphs: exact homology, "
                    "E2 pages, and K-theory verdicts.",
    )
    sub = parser.add_subparsers(required=True)
    parser.commands = sub.choices  # command name -> its subparser, filled in below

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="graph document (JSON)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write output to this path instead of stdout")

    for name in ("validate", "complex", "homology", "e2", "verdict"):
        p = sub.add_parser(name)
        add_common(p)
        if name == "complex":
            p.add_argument("--degree", type=int, help="only this boundary degree")
        p.set_defaults(run=_make_command(name))

    gen = sub.add_parser("gen", help="generate corpus documents")
    gen_sub = gen.add_subparsers(required=True)

    gm = gen_sub.add_parser("monoid")
    gm.add_argument("--k", type=int, required=True)
    gm.add_argument("--m-min", type=int, default=1)
    gm.add_argument("--m-max", type=int, default=9)
    gm.add_argument("--out")
    gm.set_defaults(run=_cmd_gen_monoid)

    gp = gen_sub.add_parser("polynomial-family")
    gp.add_argument("--count", type=int, required=True)
    gp.add_argument("--seed", type=int, required=True)
    gp.add_argument("--max-vertices", type=int, default=4)
    gp.add_argument("--max-rank", type=int, default=4)
    gp.add_argument("--unimodular-base", action="store_true",
                    help="force the first co-adjacency matrix to be unimodular")
    gp.add_argument("--out")
    gp.set_defaults(run=_cmd_gen_poly)

    return parser


def _emit(text: str, args: argparse.Namespace) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _report_skeleton(command: str, doc: GraphDocument) -> dict:
    return {
        "command": command,
        "name": doc.name,
        "k": doc.spec.rank,
        "vertices": list(doc.spec.vertices),
        "validation": None,
        "complex": None,
        "homology": None,
        "e2": None,
        "verdict": None,
        "timing": None,
    }


def _validation_dict(report) -> dict:
    return {
        "valid": report.ok,
        "violations": [
            {"kind": v.kind, "where": list(v.where), "message": v.message}
            for v in report.violations
        ],
    }


def _make_command(command: str):
    def run(args: argparse.Namespace) -> int:
        t0 = time.perf_counter()
        doc = load_document(args.file)
        out = _report_skeleton(command, doc)
        analysis = Analysis(doc.spec)
        report = analysis.validation
        out["validation"] = _validation_dict(report)
        if not report.ok:
            if args.format == "json":
                _emit(dumps_json(out), args)
            else:
                _emit(report.summary(), args)
            return 1
        k = doc.spec.rank
        degrees = range(1, k + 1)
        if command == "complex" and args.degree is not None:
            if not 1 <= args.degree <= k:
                raise ReportError(f"degree {args.degree} out of range 1..{k}")
            degrees = range(args.degree, args.degree + 1)
        if command in ("homology", "e2", "verdict"):  # before any text is made of the groups
            limits.check_digits(t for g in analysis.homology for t, _ in g.runs)
        stage = {"validate": "validation", "e2": "homology"}.get(command, command)
        getattr(analysis, stage)  # runs, and so times, every stage the report reads
        if command == "validate":
            text = "valid"
        elif command == "complex":
            text = _complex_report(analysis, degrees, args.format, out)
        else:
            text = _groups_report(command, analysis, args.format, out)
        seconds = {**analysis.seconds, "total": time.perf_counter() - t0}
        out["timing"] = {"seconds": {key: round(v, 6) for key, v in seconds.items()}}
        _emit(dumps_json(out) if args.format == "json" else text, args)
        return 0

    return run


def _complex_report(analysis: Analysis, degrees: range, fmt: str, out: dict) -> str:
    """The ``complex`` report: fills ``out`` for JSON, else returns the text."""
    cc, vertices = analysis.complex, analysis.spec.vertices
    if fmt == "json":
        out["complex"] = {
            "ranks": list(cc.ranks),
            "differentials": [
                {
                    "degree": p,
                    "rows": cc.boundary(p).rows,
                    "cols": cc.boundary(p).cols,
                    "row_labels": labels(p - 1, cc.length, vertices),
                    "col_labels": labels(p, cc.length, vertices),
                    "matrix": cc.boundary(p).to_lists(),
                }
                for p in degrees
            ],
        }
        return ""
    lines = [f"k = {cc.length}, ranks = {list(cc.ranks)}"]
    for p in degrees:
        lines.append(f"\nd_{p} ({cc.boundary(p).rows} x {cc.boundary(p).cols}):")
        lines.append(render_differential(cc, p, vertices, analysis.coadjacencies))
    return "\n".join(lines)


def _groups_report(command: str, analysis: Analysis, fmt: str, out: dict) -> str:
    """The ``homology``, ``e2`` and ``verdict`` reports, all read off ``analysis.homology``:
    fills ``out`` for JSON, else returns the text."""
    groups = analysis.homology
    if fmt == "json":  # a text report never expands the torsion
        limits.check_report(groups)
        if command == "verdict":  # its e2 is groups: the page is written once
            out["verdict"] = analysis.verdict.to_dict()
            out["e2"] = out["verdict"]["e2"]
        else:
            out["e2"] = e2_dict(groups)
        out["homology"] = out["e2"]["columns"]
        return ""
    if command == "homology":
        return "\n".join(f"H_{p} = {g}" for p, g in enumerate(groups))
    if command == "e2":
        return "\n".join(["E2 page (columns repeat in every even row):",
                          *(f"  E2[{p},2q] = {g}" for p, g in enumerate(groups))])
    verdict = analysis.verdict
    lines = [_verdict_line(verdict), f"justification: {verdict.justification}"]
    if verdict.commentary:
        lines.append(f"note: {verdict.commentary}")
    lines.append("E2 columns: " + ", ".join(str(g) for g in verdict.e2))
    return "\n".join(lines)


def _verdict_line(verdict) -> str:
    kind = verdict.kind.value
    if kind == "trivial":
        return f"K0 = 0, K1 = 0; rule {verdict.rule}"
    if kind == "determined":
        if verdict.k0 == verdict.k1:
            return f"K0 = K1 = {verdict.k0}; rule {verdict.rule}"
        return f"K0 = {verdict.k0}, K1 = {verdict.k1}; rule {verdict.rule}"
    if kind == "short_exact_sequence":
        sub, quot = verdict.ses
        return f"K1 = {verdict.k1}; K0: 0 -> {sub} -> K0 -> {quot} -> 0; rule {verdict.rule}"
    return f"indeterminate; rule {verdict.rule}"


def _cmd_gen_monoid(args: argparse.Namespace) -> int:
    if args.m_min < 1 or args.m_max < args.m_min:
        raise CorpusError(
            f"loop-count range must satisfy 1 <= m-min <= m-max, "
            f"got {args.m_min}..{args.m_max}"
        )
    docs = exhaustive_monoid_documents(args.k, range(args.m_min, args.m_max + 1))
    _emit(dumps_documents(docs).rstrip("\n"), args)
    return 0


def _cmd_gen_poly(args: argparse.Namespace) -> int:
    docs = random_polynomial_documents(
        args.count,
        args.seed,
        max_vertices=args.max_vertices,
        max_rank=args.max_rank,
        unimodular_base=args.unimodular_base,
    )
    _emit(dumps_documents(docs).rstrip("\n"), args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
