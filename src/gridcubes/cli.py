"""Batch command-line front-end with reproducible, machine-readable output.

Subcommands: mvalue, fexact, bound, construct, toric, verify.  JSON is the
primary output (a manifest block plus a result block); --format csv emits
data-only rows for tabulation.  Exit codes are a stable contract:

    0  success
    1  property-suite violation (verify only)
    2  input/parse error
    3  inconclusive: a search budget, or the minimum distance's word cap, ran out
    4  honest construction failure (no valid r, persistent cube, missed target)

Every run is reproducible bit-for-bit from its manifest: the manifest holds
the canonical argument vector, the seed, the version, and a checksum of the
result block.

Every command runs in one process.  --threads is still accepted, and a
value below 1 exits 2, but nothing else reads it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bounds import bound_table_rows
from .construct import (
    DEFAULT_MAX_ROUNDS,
    ConstructStatus,
    construct_dense_small_M,
    construct_sparse_bounded_M,
)
from .cubes import (
    CubeNotion,
    DEFAULT_BUDGET,
    DEFAULT_NOTION,
    DEFAULT_SEED,
    SearchBudgetExceeded,
    f_exhaustive,
    m_value,
)
from .grid import format_point_set, parse_point_set
from .suites import run_suite
from .toric import code_stats, parse_polytope

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_FAILURE = 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process.  Building it costs about a third of a
    small command, and parse_args leaves it unchanged, so every run shares
    it."""
    parser = argparse.ArgumentParser(prog="gridcubes", description=__doc__)
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mvalue", help="maximal cube dimension of a point-set file")
    p.add_argument("file")
    p.add_argument("--notion", default=DEFAULT_NOTION.value)

    p = sub.add_parser("fexact", help="exact or sampled f_N(n, c)")
    p.add_argument("N", type=int)
    p.add_argument("n", type=int)
    p.add_argument("c")
    p.add_argument("--notion", default=DEFAULT_NOTION.value)
    p.add_argument("--samples", type=int, default=None)

    p = sub.add_parser("bound", help="lower-bound table row(s)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", required=True, help="dimension or comma-separated list")
    p.add_argument("--c", required=True)
    p.add_argument("--eps", default="1/2")

    p = sub.add_parser("construct", help="seeded cube-free construction")
    p.add_argument("mode", choices=["dense", "sparse"])
    p.add_argument("n", type=int)
    p.add_argument("N", type=int)
    p.add_argument("eps")
    p.add_argument("--max-rounds", type=int, default=DEFAULT_MAX_ROUNDS)
    p.add_argument("--notion", default=DEFAULT_NOTION.value)
    p.add_argument("--out", default=None, help="prefix for .points.txt and .cert.json files")

    p = sub.add_parser("toric", help="code statistics of a polytope file")
    p.add_argument("file")
    p.add_argument("--notion", default=DEFAULT_NOTION.value)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite")
    p.add_argument("--count", type=int, default=None)

    return parser


def _canonical_argv(parser: argparse.ArgumentParser, args: argparse.Namespace) -> list[str]:
    """Every parsed value in parser order: positionals always, options when
    not None, the subcommand's own arguments after its name.

    --threads stays out: it is checked (at least 1) and read by nothing
    else, since every command runs in one process, so a manifest replay at
    the default thread count reproduces any run.
    """
    argv: list[str] = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction) or action.dest == "threads":
            continue
        if isinstance(action, argparse._SubParsersAction):
            argv.append(args.command)
            argv += _canonical_argv(action.choices[args.command], args)
            continue
        value = getattr(args, action.dest)
        if not action.option_strings:
            argv.append(str(value))
        elif value is not None:
            argv += [action.option_strings[0], str(value)]
    return argv


def _result_checksum(result: dict) -> str:
    blob = json.dumps(result, separators=(",", ":"), sort_keys=False)
    return hashlib.sha256(blob.encode()).hexdigest()


def _emit_json(args: argparse.Namespace, result: dict) -> str:
    manifest = {
        "command": args.command,
        "argv": args.canonical_argv,
        "seed": args.seed,
        "version": __version__,
        "output_checksum": _result_checksum(result),
    }
    return json.dumps({"manifest": manifest, "result": result}, indent=2, allow_nan=False) + "\n"


def _emit_csv(rows: list[dict]) -> str:
    import csv as _csv

    buf = io.StringIO()
    writer = _csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _emit(args: argparse.Namespace, result: dict, rows: list[dict]) -> str:
    if args.format == "csv":
        return _emit_csv(rows)
    return _emit_json(args, result)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _cmd_mvalue(args) -> tuple[int, str]:
    notion = CubeNotion.from_string(args.notion)
    s = parse_point_set(_read_text(args.file))
    m, witness = m_value(s, notion, budget=args.budget)
    result = {
        "m": m,
        "witness": witness.to_record(notion),
        "canonical": witness.canonical_line(notion),
    }
    row = {
        "notion": notion.value,
        "m": m,
        "base": ",".join(map(str, witness.base)),
        "generators": ";".join(",".join(map(str, v)) for v in witness.generators),
    }
    return EXIT_OK, _emit(args, result, [row])


def _cmd_fexact(args) -> tuple[int, str]:
    notion = CubeNotion.from_string(args.notion)
    c = Fraction(args.c)
    value = f_exhaustive(
        args.N, args.n, c, notion,
        samples=args.samples, seed=args.seed, budget=args.budget,
    )
    result = {
        "N": args.N,
        "n": args.n,
        "c": str(c),
        "notion": notion.value,
        "mode": "exhaustive" if args.samples is None else "sampled",
        "samples": args.samples,
        "f": value,
    }
    return EXIT_OK, _emit(args, result, [result])


def _cmd_bound(args) -> tuple[int, str]:
    try:
        ns = [int(x) for x in args.n.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad dimension list {args.n!r}") from exc
    c = Fraction(args.c)
    rows = bound_table_rows(args.N, ns, c, Fraction(args.eps))
    result = {"rows": rows}
    return EXIT_OK, _emit(args, result, rows)


def _cmd_construct(args) -> tuple[int, str]:
    notion = CubeNotion.from_string(args.notion)
    eps = Fraction(args.eps)
    build = construct_dense_small_M if args.mode == "dense" else construct_sparse_bounded_M
    res = build(
        args.n, args.N, eps,
        seed=args.seed, max_rounds=args.max_rounds,
        budget=args.budget, notion=notion,
    )
    points_text = format_point_set(res.point_set) if res.point_set is not None else None
    result = {
        "mode": args.mode,
        "status": res.status.value,
        "detail": res.detail,
        "r": res.r,
        "certificate": res.certificate,
        "points_sha256": hashlib.sha256(points_text.encode()).hexdigest() if points_text else None,
    }
    if args.out is not None:
        result["points_file"] = args.out + ".points.txt"
        result["certificate_file"] = args.out + ".cert.json"
        if points_text is not None:
            Path(result["points_file"]).write_text(points_text)
        if res.certificate is not None:
            Path(result["certificate_file"]).write_text(
                json.dumps(res.certificate, indent=2, allow_nan=False) + "\n"
            )
    code = EXIT_OK if res.status is ConstructStatus.VERIFIED else EXIT_FAILURE
    flat = {k: v for k, v in result.items() if k != "certificate"}
    return code, _emit(args, result, [flat])


def _cmd_toric(args) -> tuple[int, str]:
    notion = CubeNotion.from_string(args.notion)
    q, poly = parse_polytope(_read_text(args.file))
    stats = code_stats(poly, q, notion, budget=args.budget)
    result = {
        "q": q,
        "n": poly.dim,
        "block_length": stats.block_length,
        "dimension": stats.dimension,
        "min_distance": stats.min_distance,
        "relative_min_distance": str(stats.relative_min_distance),
        "information_rate": str(stats.information_rate),
        "max_cube_dim": stats.max_cube_dim,
    }
    return EXIT_OK, _emit(args, result, [result])


def _cmd_verify(args) -> tuple[int, str]:
    try:
        report = run_suite(args.suite, seed=args.seed, count=args.count)
    except KeyError:
        raise ValueError(f"unknown suite {args.suite!r}")
    result = dict(report)
    rows = [{"suite": args.suite, "checks": report["checks"], "violations": report["violations"]}]
    code = EXIT_OK if report["violations"] == 0 else EXIT_VIOLATION
    return code, _emit(args, result, rows)


_HANDLERS = {
    "mvalue": _cmd_mvalue,
    "fexact": _cmd_fexact,
    "bound": _cmd_bound,
    "construct": _cmd_construct,
    "toric": _cmd_toric,
    "verify": _cmd_verify,
}


def run(argv: list[str]) -> tuple[int, str]:
    """Parse and execute; returns (exit_code, stdout_text). Input problems,
    numbers too large for the arithmetic behind a command among them, map
    to exit 2 with a one-line JSON error object, as does a non-finite float,
    which strict JSON cannot hold."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (EXIT_INPUT if exc.code else EXIT_OK), ""
    args.canonical_argv = _canonical_argv(parser, args)
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        if args.budget < 0:
            raise ValueError(f"--budget must be >= 0, got {args.budget}")
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return _HANDLERS[args.command](args)
    except SearchBudgetExceeded as exc:
        result = {"status": "inconclusive", **exc.bounds}
        return EXIT_INCONCLUSIVE, _emit(args, result, [result])
    except (ValueError, ArithmeticError, OSError) as exc:
        return EXIT_INPUT, json.dumps({"error": str(exc)}) + "\n"


def run_from_manifest(manifest: dict) -> tuple[int, str]:
    """Re-execute a run from its manifest; byte-identical for byte-identical
    manifests."""
    return run(list(manifest["argv"]))


def main() -> None:
    code, text = run(sys.argv[1:])
    if text:
        sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
