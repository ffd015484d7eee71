"""Command-line driver: run a circuit, print reports, export trees.

Examples::

    heisensim run --preset fr --report table
    heisensim run --preset fr --check
    heisensim run --circuit mine.qc --tree out.dot --report json

The default verdict/check tolerance is 1e-9, overridable with
``--tolerance`` or the ``HEISENSIM_TOLERANCE`` environment variable;
either must be a finite number above zero.

``main(argv)`` is safe to call repeatedly in one process: it builds its
parser on the first call and reuses it.  ``build_parser()`` returns a
fresh parser on every call.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .engine import _DEFAULT_LABEL, Circuit, RunTooLarge, _is_ascii_number, run_circuit, trace_json_doc
from .foliation import (
    ReportRow,
    build_branch_tree,
    default_watch_pairs,
    foliation_timeline,
    format_weight,
    report_rows,
    tree_json_doc,
    tree_to_dot,
)
from .lang import CircuitSyntaxError, parse_circuit
from .pauli import DEFAULT_TOLERANCE, HermiticityError
from .presets import PRESETS, get_preset

__all__ = ["main", "build_parser", "render_table"]

TOLERANCE_ENV = "HEISENSIM_TOLERANCE"


def _parse_tolerance(raw: str, source: str) -> float:
    """``raw`` as a tolerance; anything but a finite number > 0 exits naming it."""
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise SystemExit(f"bad {source} value: {raw!r} (need a finite number > 0)")
    return tol


def _tolerance(flag: str | None) -> float:
    if flag is not None:
        return _parse_tolerance(flag, "--tolerance")
    raw = os.environ.get(TOLERANCE_ENV)
    return DEFAULT_TOLERANCE if raw is None else _parse_tolerance(raw, TOLERANCE_ENV)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="heisensim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a circuit and emit reports")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESETS, help="bundled circuit")
    src.add_argument("--circuit", metavar="PATH", help="circuit description file")
    run.add_argument("--report", choices=("table", "json"), help="print the foliation table or the trace JSON")
    run.add_argument("--tree", metavar="PATH", help="write the branching tree (.dot or .json)")
    run.add_argument("--check", action="store_true", help="cross-check the engine by Pauli back-propagation")
    run.add_argument("--tolerance", default=None, help="verdict/check tolerance, finite and > 0 (default 1e-9)")
    run.add_argument(
        "--watch",
        default=None,
        help="pairs to analyse, e.g. 'R,A;S,B' (default: every pair sharing a gate)",
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import.  parse_args writes only to the
    # namespace it creates per call, so calls, concurrent ones too, share it read-only
    return build_parser()


def _load_circuit(args) -> Circuit:
    if args.preset:
        return get_preset(args.preset)
    try:
        with open(args.circuit, encoding="utf-8-sig") as fh:
            return parse_circuit(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"cannot read {args.circuit}: {exc}")
    except CircuitSyntaxError as exc:
        raise SystemExit(f"{args.circuit}: {exc}")


def _resolve_name(name: str, circuit: Circuit, by_label: dict[str, int]) -> int:
    """The qubit ``name`` addresses: a label, the default ``q<k>`` of an unlabelled qubit k, or an index."""
    if name in by_label:
        return by_label[name]
    default = _DEFAULT_LABEL.fullmatch(name)
    digits = (default[1] if default else name).lstrip("0") or "0"
    # the length test runs first: int() refuses over 4300 digits
    if (default or _is_ascii_number(name)) and len(digits) <= len(str(circuit.n_qubits)):
        q = int(digits)
        if q < circuit.n_qubits and not (default and q in (circuit.labels or ())):
            return q
    raise SystemExit(f"unknown qubit {name!r} in --watch")


def _resolve_watch(spec: str, circuit: Circuit) -> tuple[tuple[int, int], ...]:
    by_label = {name: q for q, name in (circuit.labels or {}).items()}  # no table over every qubit
    pairs = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        names = [p.strip() for p in chunk.split(",")]
        if len(names) != 2:
            raise SystemExit(f"bad watch pair {chunk!r} (expected 'C,T')")
        resolved = [_resolve_name(name, circuit, by_label) for name in names]
        if resolved[0] == resolved[1]:
            raise SystemExit(f"watch pair {chunk!r} names one qubit twice")
        pair = tuple(resolved)
        if pair in pairs or pair[::-1] in pairs:
            raise SystemExit(f"watch pair {chunk!r} is given twice")
        pairs.append(pair)
    if not pairs:
        raise SystemExit(f"--watch {spec!r} names no pair (expected 'C,T;...')")
    return tuple(pairs)


def render_table(rows: list[ReportRow]) -> str:
    header = ("Time", "Parties", "Gate", "Foliations", "Projections")
    cells = [header]
    for row in rows:
        proj = "-" if row.proj is None else f"{format_weight(row.proj[0])}, {format_weight(row.proj[1])}"
        cells.append((f"({row.interval[0]},{row.interval[1]})", row.parties, row.gate, row.verdict, proj))
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _json_text(doc: dict) -> str:
    import json  # only the two JSON outputs load it

    return json.dumps(doc, indent=2) + "\n"


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(f"cannot write {path}: {exc}")


def main(argv: list[str] | None = None) -> int:
    """Run ``heisensim`` on ``argv`` (default ``sys.argv[1:]``) and return its exit status.

    Each call parses ``argv`` and reads ``HEISENSIM_TOLERANCE`` afresh.  Returns 0, or 1
    when ``--check`` fails; bad input raises ``SystemExit`` with a one-line message
    (status 1), or with status 2 for a usage error and 0 for ``--help``.  Calls may
    repeat in one process: the parser is built on the first and reused.
    """
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except HermiticityError as exc:
        raise SystemExit(f"the engine's coefficients drifted: {exc}")
    except RunTooLarge as exc:
        raise SystemExit(f"refused: {exc}")


def _run(args) -> int:
    tol = _tolerance(args.tolerance)

    circuit = _load_circuit(args)
    watch = default_watch_pairs(circuit) if args.watch is None else _resolve_watch(args.watch, circuit)
    trace = run_circuit(circuit)

    # one fold feeds both the table and the tree
    timeline = foliation_timeline(trace, watch, tol) if args.report == "table" or args.tree is not None else None

    if args.report == "table":
        rows = report_rows(circuit, timeline)
        sys.stdout.write(render_table(rows))
    elif args.report == "json":
        sys.stdout.write(_json_text(trace_json_doc(circuit, trace)))

    if args.tree is not None:
        tree = build_branch_tree(circuit, timeline, tol)
        if args.tree.endswith(".json"):
            _write_text(args.tree, _json_text(tree_json_doc(tree)))
        else:
            _write_text(args.tree, tree_to_dot(tree))

    if args.check:
        from .check import cross_check  # only --check loads the check

        report = cross_check(trace, circuit)
        ok = report.max_expectation_dev <= tol and report.max_matrix_dev <= tol
        site = report.worst_site
        sys.stdout.write(
            f"max expectation deviation: {report.max_expectation_dev:.3e}\n"
            f"max matrix deviation:      {report.max_matrix_dev:.3e}\n"
            f"worst site: slot {site['slot']}, qubit {site['qubit']}, component {site['component']}\n"
            f"{'OK' if ok else 'FAIL'}: tolerance {tol:g}\n"
        )
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
