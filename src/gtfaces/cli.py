"""Command-line front end.

Subcommands:
  f       f-/h-vector of one polytope given as levels or as a signature
  family  closed-form vectors for the 12k3 / 123k / 223k families
  gf      h-polynomials expanded from a family's generating function, for
          any of the three families
  verify  cross-check sweeps (engine vs oracle, projection checks, every
          route of the three families, ...)

Exit codes:
  0  success
  1  a verification failed (a cross-check or a --check comparison); a
     failed comparison is reported on stderr, so --json and --csv output
     stays parseable
  2  usage error: bad arguments, malformed input (every count: the
     multiplicities, --k, --kmax and --max-s, is plain ASCII digits),
     --json with --csv, --csv on verify, --quiet on gf, verify --max-s
     below 1, an --out file that cannot be opened for writing
  3  resource limit: the oracle budget (total length above lattice.MAX_S),
     the engine budget (engine.MAX_ENGINE_WORK transfer steps and
     coefficient products per evaluation), or a family parameter above
     families.MAX_K
  141  the reader closed stdout before the output ended (128 + SIGPIPE)

With --json, ``family --k A:B`` prints a list, ``family --k K`` one object.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from typing import Any, Sequence

from . import checks, families, lattice
# re-exported because perfbench/worker.py reads gtfaces.cli.FIBER_CHECK_SIGNATURES
from .checks import FIBER_CHECK_SIGNATURES  # noqa: F401
from .engine import ResourceLimitError, h_polynomial
from .families import Family
from .poly import IntPoly, series_coeffs
from .signatures import (ParseError, Signature, canonicalize, dimension,
                         parse_count, parse_level_sequence, parse_signature)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141


def _vector_strings(p: IntPoly, length: int) -> list[str]:
    out = list(map(str, p.coeffs[:length]))
    return out + ["0"] * (length - len(out))


def _record(echo: dict[str, str], sig: Signature, f: IntPoly, h: IntPoly,
            ms: float) -> dict[str, Any]:
    dim = dimension(sig)
    return {
        "input": echo,
        "signature": list(sig.mults),
        "gz": sig.gz_label(),
        "dimension": dim,
        "f_vector": _vector_strings(f, dim + 1),
        "h_vector": _vector_strings(h, dim + 1),
        "timing_ms": round(ms, 3),
    }


def _emit_json(payload: Any, out: io.TextIOBase) -> None:
    out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _emit_record_csv(records: list[dict[str, Any]], out: io.TextIOBase,
                     with_k: bool = False) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["k", "dim", "f", "h"] if with_k else ["dim", "f", "h"])
    for rec in records:
        for d in range(rec["dimension"] + 1):
            row = [d, rec["f_vector"][d], rec["h_vector"][d]]
            if with_k:
                row.insert(0, rec["k"])
            writer.writerow(row)


def _emit_record_human(rec: dict[str, Any], out: io.TextIOBase, quiet: bool) -> None:
    if not quiet:
        out.write(f"signature: {','.join(str(m) for m in rec['signature'])}"
                  f"   {rec['gz']}\n")
        out.write(f"dimension: {rec['dimension']}\n")
    out.write("f-vector: " + " ".join(rec["f_vector"]) + "\n")
    out.write("h-vector: " + " ".join(rec["h_vector"]) + "\n")
    if not quiet:
        out.write(f"time: {rec['timing_ms']} ms\n")


def _resolve_signature(args: argparse.Namespace) -> tuple[dict[str, str], Signature]:
    if args.levels is not None:
        seq = parse_level_sequence(args.levels)
        return {"kind": "lambda", "text": args.levels}, canonicalize(seq)
    return {"kind": "signature", "text": args.signature}, parse_signature(args.signature)


def _check_k(k: int) -> None:
    if k > families.MAX_K:
        raise ResourceLimitError(
            f"k={k} exceeds family budget MAX_K={families.MAX_K}",
            "MAX_K", families.MAX_K, k)


def _parse_k_spec(spec: str) -> range:
    """'5' -> range(5, 6); '0:4' -> range(0, 5)."""
    lo_text, sep, hi_text = spec.partition(":")
    lo = parse_count(lo_text, "k")
    hi = parse_count(hi_text, "k") if sep else lo
    if hi < lo:
        raise ParseError(f"bad k range {spec!r}")
    _check_k(hi)
    return range(lo, hi + 1)


def cmd_f(args: argparse.Namespace, out: io.TextIOBase) -> int:
    echo, sig = _resolve_signature(args)
    start = time.perf_counter()
    h = h_polynomial(sig)
    f = h.shift(1)
    ms = (time.perf_counter() - start) * 1000.0
    rec = _record(echo, sig, f, h, ms)
    if args.json:
        _emit_json(rec, out)
    elif args.csv:
        _emit_record_csv([rec], out)
    else:
        _emit_record_human(rec, out, args.quiet)
    return EXIT_OK


def cmd_family(args: argparse.Namespace, out: io.TextIOBase) -> int:
    fam = Family(args.family)
    ks = _parse_k_spec(args.k)
    records = []
    disagreements = 0
    for k in ks:
        sig = families.family_signature(fam, k)
        start = time.perf_counter()
        h = families.family_h(fam, k)
        f = h.shift(1)
        ms = (time.perf_counter() - start) * 1000.0
        rec = _record({"kind": "family", "text": f"{fam.value} k={k}"}, sig, f, h, ms)
        rec["k"] = k
        if args.check:
            agrees = h_polynomial(sig) == h
            rec["engine_agrees"] = agrees
            if not agrees:
                disagreements += 1
        records.append(rec)
    if args.json:
        _emit_json(records if ":" in args.k else records[0], out)
    elif args.csv:
        _emit_record_csv(records, out, with_k=True)
    else:
        for rec in records:
            if not args.quiet:
                out.write(f"-- k={rec['k']}  {rec['gz']}  dim={rec['dimension']}\n")
            _emit_record_human(rec, out, quiet=True)
            if "engine_agrees" in rec:
                out.write(f"engine agrees: {rec['engine_agrees']}\n")
    if disagreements:
        print(f"gtfaces: {disagreements} closed-form value(s) disagree with the engine",
              file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_gf(args: argparse.Namespace, out: io.TextIOBase) -> int:
    fam = Family(args.family)
    kmax = parse_count(args.kmax, "--kmax")
    _check_k(kmax)
    coeffs = series_coeffs(families.generating_function(fam), kmax)
    mismatched = []
    records = []
    for k, h in enumerate(coeffs):
        closed = families.family_h(fam, k)
        ok = h == closed
        if not ok:
            mismatched.append(k)
        sig = families.family_signature(fam, k)
        dim = dimension(sig)
        records.append({
            "k": k,
            "dimension": dim,
            "h_vector": _vector_strings(h, dim + 1),
            "f_vector": _vector_strings(h.shift(1), dim + 1),
            "matches_formula": ok,
        })
    if args.json:
        _emit_json(records, out)
    elif args.csv:
        _emit_record_csv(records, out, with_k=True)
    else:
        for rec in records:
            flag = "" if rec["matches_formula"] else "   MISMATCH vs formula"
            out.write(f"k={rec['k']}: h = ({', '.join(rec['h_vector'])}){flag}\n")
    if mismatched:
        print(f"gtfaces: series coefficients at k={mismatched} disagree with the "
              "per-k formula", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, out: io.TextIOBase) -> int:
    max_s = parse_count(args.max_s, "--max-s")
    if max_s < 1:
        raise ParseError("--max-s must be >= 1")
    if max_s > lattice.MAX_S:
        raise ResourceLimitError(
            f"--max-s {max_s} exceeds oracle budget MAX_S={lattice.MAX_S}",
            "MAX_S", lattice.MAX_S, max_s)
    results: list[tuple[str, checks.CheckResult]] = []
    chatty = not args.json

    def record(name: str, result: checks.CheckResult) -> None:
        results.append((name, result))
        if chatty and (not args.quiet or not result.ok):
            mark = "ok  " if result.ok else "FAIL"
            out.write(f"{mark} {name}: {result.detail}\n")

    sweep = list(checks.signatures_up_to(max_s))
    record("oracle-vs-engine", checks.oracle_vs_engine(sweep))
    record("euler", checks.euler(sweep))
    record("reversal", checks.reversal(sweep))
    record("dimension-degree", checks.dimension_degree(sweep))
    record("simplex-shortcut", checks.simplex_shortcut(6))
    fiber_sigs = [Signature(m) for m in checks.FIBER_CHECK_SIGNATURES
                  if sum(m) <= max_s]
    record("fiber-decomposition", checks.fiber_decomposition(fiber_sigs))
    record("family-routes", checks.family_routes(checks.FAMILY_CHECK_KS))
    if args.adjudicate_223_k3:
        adj = checks.adjudicate_223_k3()
        if chatty and not args.quiet:
            out.write("adjudication for GZ(2^2 3^3), h-vectors:\n")
            out.write(f"  closed form : {adj.formula.coeffs}\n")
            out.write(f"  engine      : {adj.engine.coeffs}\n")
            out.write(f"  oracle      : {adj.oracle.coeffs}\n")
            out.write(f"  legacy value: {adj.legacy.coeffs}"
                      f"  (matches: {adj.matches_legacy})\n")
        record("adjudicate-223-k3", adj.result)

    failed = [name for name, result in results if not result.ok]
    if args.json:
        _emit_json({
            "checks": [{"name": n, "passed": r.ok, "detail": r.detail}
                       for n, r in results],
            "ok": not failed,
        }, out)
    else:
        out.write(f"{len(results) - len(failed)}/{len(results)} checks passed\n")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtfaces",
        description="Exact f- and h-vectors of Gelfand-Tsetlin polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser, with_csv: bool = True) -> None:
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="emit JSON")
        if with_csv:
            fmt.add_argument("--csv", action="store_true", help="emit CSV")
        p.add_argument("--out", metavar="FILE", help="write output to FILE")

    p_f = sub.add_parser("f", help="f-/h-vector of one polytope")
    group = p_f.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="levels", metavar="V1,V2,...",
                       help="nondecreasing levels, e.g. 1,2,2,3 or 1.5,2,2.5")
    group.add_argument("--signature", metavar="I1,I2,...",
                       help="multiplicities, e.g. 1,3,1 for GZ(1 2^3 3)")
    add_output_flags(p_f)
    p_f.set_defaults(func=cmd_f)

    p_fam = sub.add_parser("family", help="closed forms for one family")
    p_fam.add_argument("--family", required=True,
                       choices=[f.value for f in Family])
    p_fam.add_argument("--k", required=True, metavar="K or A:B",
                       help="single k or inclusive range")
    p_fam.add_argument("--check", action="store_true",
                       help="also run the recurrence engine and compare")
    add_output_flags(p_fam)
    p_fam.set_defaults(func=cmd_family)

    p_gf = sub.add_parser("gf", help="expand a family's generating function")
    p_gf.add_argument("--family", required=True,
                      choices=[f.value for f in Family])
    p_gf.add_argument("--kmax", required=True)
    add_output_flags(p_gf)
    p_gf.set_defaults(func=cmd_gf)

    p_ver = sub.add_parser("verify", help="run cross-check sweeps")
    p_ver.add_argument("--max-s", default="4",
                       help="sweep all signatures with total length up to this")
    p_ver.add_argument("--adjudicate-223-k3", action="store_true",
                       help="settle the disputed h-vector of GZ(2^2 3^3)")
    add_output_flags(p_ver, with_csv=False)
    p_ver.set_defaults(func=cmd_verify)

    # gf prints one line per k and nothing else, so it has no --quiet
    for p in (p_f, p_fam, p_ver):
        p.add_argument("--quiet", action="store_true", help="suppress chatter")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # with --out, the output is collected first and the file is written only
    # once the command has run, so an error leaves an existing file as it was
    buffer = io.StringIO()
    out: io.TextIOBase = buffer if args.out is not None else sys.stdout
    try:
        code = args.func(args, out)
    except ParseError as exc:
        print(f"gtfaces: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"gtfaces: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(buffer.getvalue())
        except OSError as exc:
            print(f"gtfaces: error: cannot write {args.out!r}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_USAGE
    return code


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout goes to devnull so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)
