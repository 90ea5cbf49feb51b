"""Command-line front end.

Subcommands mirror the pipeline stages: ts, theta, count, enumerate,
identity, completeness, bijection.  Output is deterministic; --json emits
versioned machine-readable reports with rationals as "num/den" strings.
Each cmd_* only computes: given the string data, the chain (or None) and the
parsed arguments, it returns (JSON payload, text lines, verdict); main alone
parses, builds both inputs, prints, and maps the verdict to the exit code.
Exit codes: 0 ok, 1 identity/completeness/pairing mismatch, 2 parse error,
3 precondition violation.  A reader that closes stdout early (| head) ends
the output, not the run: the exit code is still the verdict's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bijection, configs, identities, oracle, spectral, tsdata
from .spectral import ChainSpec
from .util import ParseError, PreconditionError, parse_rational, rat_str, report_header

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


def _parse_chain(text: str):
    """Parse '2sxN[,2sxN...]' into species pairs, e.g. '3x5' or '1x2,2x1'."""
    species = []
    for part in text.split(","):
        part = part.strip()
        if "x" not in part:
            raise ParseError(f"species must look like 2sxN: {part!r}")
        s_txt, n_txt = part.split("x", 1)
        try:
            species.append((int(s_txt), int(n_txt)))
        except ValueError as exc:
            raise ParseError(f"species must look like 2sxN: {part!r}") from exc
    return tuple(species)


def _emit(payload: dict, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _matrix_rows(m: spectral.RationalMatrix):
    return [[rat_str(x) for x in row] for row in m.rows]


def cmd_ts(ts, chain, args):
    spectral.coupling_bands(ts)     # string data wider than MAX_DIM is rejected first
    table = tsdata.length_table(ts)
    payload = {
        **report_header(ts.p0),
        "alpha": ts.alpha,
        "quotients": list(ts.quotients),
        "remainders": [rat_str(p) for p in ts.remainders],
        "y": list(ts.ys[1:]),
        "z": list(ts.zs[1:]),
        "bounds": list(ts.bounds),
        "p0_bar": rat_str(ts.p0_bar) if ts.p0_bar is not None else None,
        "length_table": [
            {"j_lo": lo, "j_hi": hi, "value_at_lo": v, "slope": s}
            for lo, hi, v, s in table],
        "string_lengths": list(tsdata.string_weights(ts)),
    }
    lines = [
        f"p0 = {rat_str(ts.p0)} = {list(ts.quotients)}   alpha = {ts.alpha}",
        f"m = {list(ts.bounds)}",
        f"y = {list(ts.ys[1:])}",
        f"z = {list(ts.zs[1:])}",
        f"p = {[rat_str(p) for p in ts.remainders]}",
        f"p0_bar = {rat_str(ts.p0_bar) if ts.p0_bar is not None else '-'}",
        "length function:",
    ]
    for lo, hi, v, s in table:
        upper = f"{hi}" if hi is not None else "inf"
        lines.append(f"  [{lo}, {upper}): n_j = {v} + {s}*(j - {lo})")
    lines.append("string lengths n_1..n_dim: "
                 + " ".join(str(x) for x in payload["string_lengths"]))
    return payload, lines, True


def cmd_theta(ts, chain, args):
    cinv = spectral.coupling_inverse(ts)
    theta = spectral.coupling_matrix(ts)
    det_abs = spectral.scaled_form(ts).den
    payload = {
        **report_header(ts.p0),
        "dim": cinv.dim,
        "coupling_inverse": _matrix_rows(cinv),
        "theta": _matrix_rows(theta),
        "det_abs": rat_str(det_abs),
    }
    lines = [f"dim = {cinv.dim}, |det| = {rat_str(det_abs)}", "coupling inverse:"]
    lines += ["  " + " ".join(f"{rat_str(x):>4}" for x in row) for row in cinv.rows]
    lines.append("theta:")
    lines += ["  " + " ".join(f"{rat_str(x):>8}" for x in row) for row in theta.rows]
    return payload, lines, True


def cmd_count(ts, chain, args):
    detail = configs.count_xxz_general_detailed(ts, chain, args.l)
    payload = {
        **report_header(ts.p0, chain),
        "l": args.l,
        "total": detail.total,
        "summands": detail.admissible,
        "skipped_fractional": detail.skipped_fractional,
    }
    lines = [f"Z(l={args.l}) = {detail.total} with {detail.admissible} summands"]
    return payload, lines, True


def cmd_enumerate(ts, chain, args):
    records = configs.enumerate_xxz_int(ts, chain, args.l)
    payload = {
        **report_header(ts.p0, chain),
        "l": args.l,
        "total": sum(r.count for r in records),
        "configs": [
            {"parts": list(r.cfg.partition().parts), "clubs": r.cfg.clubs,
             "vacancies": list(r.vacancies), "count": r.count}
            for r in records],
    }
    lines = [f"{len(records)} configurations, total {payload['total']}"]
    for r in records:
        lines.append(f"  parts={list(r.cfg.partition().parts)} clubs={r.cfg.clubs} "
                     f"P={list(r.vacancies)} count={r.count}")
        if args.diagrams:
            lines.extend("    " + row for row in configs.render_xxz(r).splitlines())
    return payload, lines, True


def cmd_identity(ts, chain, args):
    report = identities.check_identity(ts, args.cutoff)
    collapsed = identities.bosonic_sum_collapsed(ts, args.cutoff)
    collapsed_ok = report.lhs.first_discrepancy(collapsed) is None
    payload = report.to_json_dict()
    payload["collapsed_agrees"] = collapsed_ok
    lines = [f"agree={report.agree} collapsed_agrees={collapsed_ok} "
             f"cutoff={rat_str(report.cutoff)}"]
    if report.first_discrepancy:
        e, a, b = report.first_discrepancy
        lines.append(f"first discrepancy at q^{rat_str(e)}: lhs={a} rhs={b}")
    return payload, lines, report.agree and collapsed_ok


def cmd_completeness(ts, chain, args):
    report = oracle.check_completeness_xxz(ts, chain)
    payload = report.to_json_dict()
    lines = [f"dimension {report.lhs_total} vs level sum {report.rhs_total}: "
             f"matched={report.matched}"]
    lines += [f"  l={l}: {c}" for l, c, _ in report.per_l]
    return payload, lines, report.matched


def cmd_bijection(ts, chain, args):
    report = bijection.verify_pairing(ts, chain)
    payload = report.to_json_dict()
    lines = [f"all_passed={report.all_passed}"]
    lines += [f"  {c.name}: {'pass' if c.passed else 'FAIL'}" for c in report.checks]
    lines += [f"  note: {note}" for note in report.range_notes]
    return payload, lines, report.all_passed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bethestates",
        description="Exact Bethe-state counting and q-series identity checks "
                    "for generalized XXX/XXZ spin chains.")
    sub = parser.add_subparsers(dest="command", required=True)
    chain = ("--chain", {"required": True, "help": "species list 2sxN[,2sxN...], e.g. 3x5"})
    level = ("--l", {"type": int, "required": True, "help": "level (weight)"})
    cutoff = ("--cutoff", {"required": True, "help": "nonnegative truncation order, A or A/B"})
    diagrams = ("--diagrams", {"action": "store_true", "help": "render configurations as diagrams"})
    # command -> (function, help, options between --p0 and --json); built per
    # call, so a cmd_* rebound in this module is the one dispatched
    table = {
        "ts": (cmd_ts, "continued-fraction string data", ()),
        "theta": (cmd_theta, "coupling matrix and its exact inverse", ()),
        "count": (cmd_count, "state count at one level", (chain, level)),
        "enumerate": (cmd_enumerate, "configurations at one level (integer p0)",
                      (chain, level, diagrams)),
        "identity": (cmd_identity, "fermionic vs bosonic series check", (cutoff,)),
        "completeness": (cmd_completeness,
                         "level counts against the weight-space dimensions", (chain,)),
        "bijection": (cmd_bijection, "pairing checks (integer p0 > sum of spins)", (chain,)),
    }
    for name, (fn, help_text, options) in table.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--p0", required=True, help="rational anisotropy, A or A/B")
        for flag, spec in options:
            p.add_argument(flag, **spec)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        p0 = parse_rational(args.p0)
        if hasattr(args, "cutoff"):
            args.cutoff = parse_rational(args.cutoff)
        if hasattr(args, "l") and args.l < 0:
            raise PreconditionError("level must be nonnegative")
        ts = tsdata.compute_ts(p0)
        chain = ChainSpec(ts.p0, _parse_chain(args.chain)) if hasattr(args, "chain") else None
        payload, lines, verdict = args.fn(ts, chain, args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        _emit(payload, args.json, lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; the interpreter's last flush writes to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK if verdict else EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
