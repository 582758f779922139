"""Command-line front end: coefficient tables, identity verification by
catalog id, congruence suites and prospecting.

Exit codes: 0 every requested check passed, 1 a refutation or mismatch was
found, 2 usage or configuration error.  Standard output stays machine
parseable; progress notes go to standard error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import congruences as cong
from . import macmahon as mac
from . import registry
from .reports import REFUTED, CongruenceClaim

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


def parse_range(text):
    """Accept '3', '1..4' or '1,3,5' and return a list of ints; other text is a UsageError."""
    if text is None:
        return None
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise UsageError(f"{text!r} is not an integer, a range a..b or a list a,b,c") from None


def _at_least(low, **values):
    for name, value in values.items():
        if value < low:
            raise UsageError(f"{name} must be >= {low}, got {value}")


def _check_family(family):
    if family not in ("M", "MO"):
        raise UsageError(f"family must be M or MO, got {family!r}")


def _is_odd_prime(p):
    if p < 3 or p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _check_prime(p):
    if not (p < 1 << 31 and _is_odd_prime(p)):
        raise UsageError(f"modulus must be an odd prime below 2^31, got {p}")


_CLAIM_INTS = ("t", "p", "step", "offset")


def _checked_claim(family, t, p, step, offset, **rest):
    """A CongruenceClaim whose fields satisfy the --claim contract, or a UsageError."""
    if any(type(v) is not int for v in (t, p, step, offset)):
        raise UsageError(f"claim fields {', '.join(_CLAIM_INTS)} must be integers")
    _check_family(family)
    _at_least(1, t=t, step=step)
    _check_prime(p)
    if not 0 <= offset < step:
        raise UsageError(f"offset must satisfy 0 <= offset < step, got {offset} with step {step}")
    return CongruenceClaim(family=family, t=t, p=p, step=step, offset=offset, **rest)


def _emit(text_rows, json_payload, csv_rows, csv_header, args):
    fmt = args.format
    if fmt == "text":
        body = "\n".join(text_rows) + "\n"
    elif fmt == "json":
        body = json.dumps(json_payload, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(csv_header)
        w.writerows(csv_rows)
        body = buf.getvalue()
    else:
        raise UsageError(f"unknown format {fmt!r}")
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(body)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(body)


def cmd_coeffs(args):
    family = args.family
    _check_family(family)
    _at_least(1, t=args.t)
    _at_least(0, n=args.n)
    if args.mod is not None:
        _at_least(2, mod=args.mod)
    formulas = mac.M_FORMULAS if family == "M" else mac.MO_FORMULAS
    formula = args.formula or mac.DEFAULT_FORMULA[family]
    if formula not in formulas:
        raise UsageError(f"unknown formula {formula!r}; known: {', '.join(sorted(formulas))}")
    table = mac.coefficient_table(family, args.t, args.n, formula)
    mod = args.mod
    text = [f"# family={family} t={args.t} formula={formula} order={args.n}"
            + (f" mod={mod}" if mod else "")]
    rows = []
    for n, v in enumerate(table.values):
        if mod:
            rows.append([family, args.t, n, v, mod, v % mod])
            text.append(f"{n}\t{v}\t{v % mod}")
        else:
            rows.append([family, args.t, n, v])
            text.append(f"{n}\t{v}")
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "coeffs",
        "family": family,
        "t": args.t,
        "order": args.n,
        "formula": formula,
        "modulus": mod,
        "values": [
            {"n": n, "value": v, **({"residue": v % mod} if mod else {})}
            for n, v in enumerate(table.values)
        ],
    }
    header = ["family", "t", "n", "value"] + (["modulus", "residue"] if mod else [])
    _emit(text, payload, rows, header, args)
    return 0


def cmd_verify(args):
    if args.id not in registry.REGISTRY:
        raise UsageError(
            f"unknown identity id {args.id!r}; known ids:\n  " + "\n  ".join(registry.known_ids())
        )
    grids = {
        name: parse_range(getattr(args, name))
        for name in registry.GRID_DOMAINS
        if getattr(args, name) is not None
    }
    try:
        reports = registry.run_identity(args.id, grids, args.order)
    except registry.GridError as exc:
        raise UsageError(str(exc)) from None
    ok = all(r.passed for r in reports)
    text = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        extra = "" if r.passed else f"  first mismatch at q^{r.mismatch_at}: {r.lhs} vs {r.rhs}"
        note = f"  ({r.note})" if r.note else ""
        text.append(f"{status}  {r.ident} {r.params}{note}{extra}")
    text.append(f"# {sum(r.passed for r in reports)}/{len(reports)} cases passed")
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "id": args.id,
        "order": args.order,
        "results": [r.as_dict() for r in reports],
    }
    rows = [
        [r.ident, json.dumps(r.params, default=str), r.order, r.passed, r.mismatch_at]
        for r in reports
    ]
    _emit(text, payload, rows, ["id", "params", "order", "passed", "mismatch_at"], args)
    return 0 if ok else 1


def _claims_output(claims, args, extra=None):
    text = []
    for c in claims:
        tag = {"verified-to-depth": "PASS", "evidence-to-depth": "EVIDENCE", "refuted": "FAIL"}.get(
            c.status, c.status
        )
        viol = "" if c.first_violation is None else f"  first violation at coefficient {c.first_violation}"
        text.append(
            f"{tag}  {c.family} t={c.t} p={c.p} progression {c.step}n+{c.offset}"
            f"  [{c.kind}] depth={c.depth}{viol}  {c.label}"
        )
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "scan",
        "order": args.order,
        "results": [c.as_dict() for c in claims],
    }
    if extra:
        payload.update(extra)
    rows = [
        [c.family, c.t, c.p, c.step, c.offset, c.kind, c.depth, c.status, c.first_violation]
        for c in claims
    ]
    header = ["family", "t", "p", "step", "offset", "kind", "depth", "status", "first_violation"]
    _emit(text, payload, rows, header, args)


def _require_checked(claims, order):
    """A claim checked on no coefficient at this order is a UsageError."""
    try:
        cong.require_checked(claims, order)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_scan(args):
    modes = [args.input, args.claim, args.prospect, args.suite is not None]
    if sum(map(bool, modes)) > 1:
        raise UsageError("give only one of --input, --claim, --prospect and --suite")
    if args.input:
        return _recheck(args)
    if args.claim:
        parts = args.claim.split(",")
        try:
            family, t, p, step, offset = parts[0].strip(), *map(int, parts[1:])
        except ValueError:
            raise UsageError('claim must be "family,t,p,step,offset", integers after the family') from None
        claim = _checked_claim(family, t, p, step, offset, kind="ad-hoc")
        _require_checked([claim], args.order)
        checked = cong.check_claim(claim, args.order)
        _claims_output([checked], args)
        return 0 if checked.status != REFUTED else 1
    if args.prospect:
        family = args.family or "MO"
        _check_family(family)
        t_values = [1, 2, 3, 4] if args.t is None else parse_range(args.t)
        primes = [3, 5, 7, 11] if args.p is None else parse_range(args.p)
        if not t_values or not primes:
            raise UsageError("--t and --p must not be empty")
        _at_least(1, t=min(t_values))
        for p in primes:
            _check_prime(p)
        try:
            cong.require_distinct(t_values, primes)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        print(f"prospecting family={family} t={t_values} p={primes} order={args.order}", file=sys.stderr)
        result = cong.prospect(family, t_values, primes, args.order)
        _claims_output(
            result.claims, args,
            extra={"chance_level": result.chance_level, "note": result.note},
        )
        return 0
    # default: the fixed suite of stated congruence claims
    if args.suite not in (None, "paper"):
        raise UsageError(f"unknown suite {args.suite!r}; available: paper")
    _require_checked(cong.paper_claims(), args.order)
    print(f"running congruence suite at order {args.order}", file=sys.stderr)
    claims = cong.verify_paper_suite(args.order)
    _claims_output(claims, args)
    return 0 if all(c.status != REFUTED for c in claims) else 1


def _recheck(args):
    try:
        with open(args.input) as fh:
            previous = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {args.input}: {exc}") from None
    if not isinstance(previous, dict):
        raise UsageError("the report must be a JSON object")
    if previous.get("schema") != SCHEMA_VERSION:
        raise UsageError(f"unsupported schema {previous.get('schema')!r}")
    if previous.get("command") != "scan":
        raise UsageError("recheck expects a scan report")
    recorded = previous.get("order")
    if args.recheck and args.order is not None:
        raise UsageError(f"give --recheck or --order, not both; the report records order {recorded}")
    order = recorded if args.recheck else args.order
    if order is None:
        if recorded is None:
            raise UsageError("no order recorded in the report; pass --order")
        raise UsageError(f"the report records order {recorded}; pass --order, or --recheck to rerun at it")
    if type(order) is not int:
        raise UsageError(f"order must be an integer, got {order!r}")
    _at_least(0, order=order)
    results = previous.get("results")
    if not isinstance(results, list):
        raise UsageError("the report has no results list")
    fields = ("family", *_CLAIM_INTS)
    claims = []
    for d in results:
        if not isinstance(d, dict) or any(name not in d for name in fields):
            raise UsageError(f"each result needs the fields {', '.join(fields)}")
        claims.append(_checked_claim(
            *(d[name] for name in fields), kind=d.get("kind", "theorem"), label=d.get("label", ""),
        ))
    _require_checked(claims, order)
    rechecked = cong.check_claims(claims, order)
    identical = True
    for d, fresh in zip(results, rechecked):
        status = d.get("status", "")
        if fresh.status != status:
            identical = False
            print(f"status changed for {fresh.key()}: {status} -> {fresh.status}", file=sys.stderr)
    args.order = order
    _claims_output(rechecked, args)
    if not identical:
        return 1
    return 0 if all(c.status != REFUTED for c in rechecked) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="macsums",
        description="exact generalized divisor sums: coefficients, identities, congruences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeffs = sub.add_parser("coeffs", help="print a coefficient table")
    p_coeffs.add_argument("--family", required=True, help="M or MO")
    p_coeffs.add_argument("--t", type=int, required=True)
    p_coeffs.add_argument("--n", type=int, required=True, help="largest index to print")
    p_coeffs.add_argument("--mod", type=int, default=None, help="also reduce modulo this integer (>= 2)")
    p_coeffs.add_argument("--formula", default=None, help="which formula backs the table")

    p_verify = sub.add_parser("verify", help="verify a catalogued identity over a grid")
    p_verify.add_argument("--id", required=True)
    p_verify.add_argument("--order", type=int, required=True)
    for name, (domain, _) in registry.GRID_DOMAINS.items():
        p_verify.add_argument(f"--{name}", default=None, help=f"grid, e.g. 1..4 or 1,3; each value {domain}")

    p_scan = sub.add_parser("scan", help="congruence suite, single claims, or prospecting")
    p_scan.add_argument("--order", type=int, default=None)
    p_scan.add_argument("--suite", default=None, help="named suite (paper)")
    p_scan.add_argument("--claim", default=None, help='single claim "family,t,p,step,offset"')
    p_scan.add_argument("--prospect", action="store_true")
    p_scan.add_argument("--family", default=None)
    p_scan.add_argument("--t", default=None, help="t grid for prospecting")
    p_scan.add_argument("--p", default=None, help="prime list for prospecting")
    p_scan.add_argument("--input", default=None, help="previous JSON report")
    p_scan.add_argument("--recheck", action="store_true", help="re-run claims from --input")

    for p in (p_coeffs, p_verify, p_scan):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "coeffs":
            return cmd_coeffs(args)
        if getattr(args, "order", None) is not None:
            _at_least(0, order=args.order)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "scan":
            if args.recheck and not args.input:
                raise UsageError("--recheck applies only to --input")
            if args.order is None and not args.input:
                raise UsageError("scan needs an explicit --order")
            if not args.prospect and (args.t, args.p, args.family) != (None, None, None):
                raise UsageError("--t, --p and --family apply only to --prospect")
            return cmd_scan(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
