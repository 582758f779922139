"""Command-line front end: coefficient tables, identity verification by
catalog id, congruence suites and prospecting.

Exit codes: 0 every requested check passed, 1 a refutation or mismatch was
found, 2 usage or configuration error.  Standard output stays machine
parseable; progress notes go to standard error.  A route whose exact
division leaves a remainder is not what it claims: `verify` fails that
case, and `coeffs` and `scan` print one `error:` line and exit 1.

The command line is read from one option table, COMMANDS.  Each option is
spelled in full, as `--name value` or `--name=value`, and any parse error is
one `error:` line and exit 2.  `argparse` loads only to print `-h`/`--help`,
from the same table; its import and set-up cost more than a short command's
own work.  A command loads only what it prints: `json` for the json format
and for reading a report, `csv` for the csv format.
"""

import sys
from types import SimpleNamespace

from . import congruences as cong
from . import macmahon as mac
from . import registry
from .reports import REFUTED, CongruenceClaim, InputError

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


def parse_range(text):
    """Accept '3', '1..4' or '1,3,5' and return a list of ints, or for a..b
    a range, which is never built; other text is a UsageError."""
    if text is None:
        return None
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return range(int(lo), int(hi) + 1)
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise UsageError(f"{text!r} is not an integer, a range a..b or a list a,b,c") from None


def _parse_grid(option, text):
    """parse_range, rejecting a reversed range a..b (a > b), which is empty."""
    values = parse_range(text)
    if isinstance(values, range) and not values:
        raise UsageError(f"{option} {text.strip()} is a reversed range, so it is empty: a..b needs a <= b")
    return values


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


def _power_of_ten_bound(x):
    """'< 10^e' for the least integer e with x < 10^e, for a positive
    Fraction x: e is seeded from the bit lengths (log10(2) ~ 30103/100000)
    and settled by exact integer comparisons, so no float and no decimal
    expansion of x is made."""
    n, d = x.numerator, x.denominator

    def below(e):
        return n * 10 ** max(-e, 0) < d * 10 ** max(e, 0)

    e = (n.bit_length() - d.bit_length()) * 30103 // 100000
    while not below(e):
        e += 1
    while below(e - 1):
        e -= 1
    return f"< 10^{e}"


def _text(lines):
    return "\n".join(lines) + "\n"


def _json(payload):
    import json

    return json.dumps(payload, indent=2) + "\n"


def _csv(header, rows):
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _write(body, args):
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
    table = mac.coefficient_table(family, args.t, args.n, args.formula)
    mod = args.mod
    if args.format == "json":
        body = _json({
            "schema": SCHEMA_VERSION,
            "command": "coeffs",
            "family": family,
            "t": args.t,
            "order": args.n,
            "formula": table.provenance,
            "modulus": mod,
            "values": [
                {"n": n, "value": v, **({"residue": v % mod} if mod else {})}
                for n, v in enumerate(table.values)
            ],
        })
    elif args.format == "csv":
        header = ["family", "t", "n", "value"] + (["modulus", "residue"] if mod else [])
        if mod:
            rows = ([family, args.t, n, v, mod, v % mod] for n, v in enumerate(table.values))
        else:
            rows = ([family, args.t, n, v] for n, v in enumerate(table.values))
        body = _csv(header, rows)
    else:
        head = f"# family={family} t={args.t} formula={table.provenance} order={args.n}{f' mod={mod}' if mod else ''}"
        if mod:
            lines = [f"{n}\t{v}\t{v % mod}" for n, v in enumerate(table.values)]
        else:
            lines = [f"{n}\t{v}" for n, v in enumerate(table.values)]
        body = _text([head, *lines])
    _write(body, args)
    return 0


def cmd_verify(args):
    if args.id not in registry.REGISTRY:
        raise UsageError(f"unknown identity id {args.id!r}; known ids: {', '.join(registry.known_ids())}")
    grids = {
        name: _parse_grid(f"--{name}", getattr(args, name))
        for name in registry.GRID_DOMAINS
        if getattr(args, name) is not None
    }
    reports = registry.run_identity(args.id, grids, args.order)
    if args.format == "json":
        body = _json({
            "schema": SCHEMA_VERSION,
            "command": "verify",
            "id": args.id,
            "order": args.order,
            "results": [r.as_dict() for r in reports],
        })
    elif args.format == "csv":
        import json

        body = _csv(
            ["id", "params", "order", "passed", "mismatch_at"],
            ([r.ident, json.dumps(r.params, default=str), r.order, r.passed, r.mismatch_at] for r in reports),
        )
    else:
        lines = []
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            # a failed WZ walk or inexact division has only its note; a scalar pair has no index
            if r.passed or r.lhs is None:
                extra = ""
            elif r.mismatch_at is None:
                extra = f"  {r.lhs} vs {r.rhs}"
            else:
                extra = f"  first mismatch at q^{r.mismatch_at}: {r.lhs} vs {r.rhs}"
            note = f"  ({r.note})" if r.note else ""
            lines.append(f"{status}  {r.ident} {r.params}{note}{extra}")
        lines.append(f"# {sum(r.passed for r in reports)}/{len(reports)} cases passed")
        body = _text(lines)
    _write(body, args)
    return 0 if all(r.passed for r in reports) else 1


_TAGS = {"verified-to-depth": "PASS", "evidence-to-depth": "EVIDENCE", "refuted": "FAIL"}


def _claims_output(claims, args, extra=None):
    if args.format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "scan",
            "order": args.order,
            "results": [c.as_dict() for c in claims],
        }
        if extra:
            payload.update(extra)
        body = _json(payload)
    elif args.format == "csv":
        body = _csv(
            ["family", "t", "p", "step", "offset", "kind", "depth", "status", "first_violation"],
            ([c.family, c.t, c.p, c.step, c.offset, c.kind, c.depth, c.status, c.first_violation]
             for c in claims),
        )
    else:
        lines = []
        for c in claims:
            viol = "" if c.first_violation is None else f"  first violation at coefficient {c.first_violation}"
            lines.append(
                f"{_TAGS.get(c.status, c.status)}  {c.family} t={c.t} p={c.p} progression {c.step}n+{c.offset}"
                f"  [{c.kind}] depth={c.depth}{viol}" + (f"  {c.label}" if c.label else "")
            )
        body = _text(lines)
    _write(body, args)


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
        checked = cong.check_claim(claim, args.order)
        _claims_output([checked], args)
        return 0 if checked.status != REFUTED else 1
    if args.prospect:
        family = args.family or "MO"
        _check_family(family)
        t_values = [1, 2, 3, 4] if args.t is None else _parse_grid("--t", args.t)
        primes = [3, 5, 7, 11] if args.p is None else _parse_grid("--p", args.p)
        if not t_values or not primes:
            raise UsageError("--t and --p must not be empty")
        for p in primes:  # p by p, so a huge range stops at its first bad p
            _check_prime(p)
        t_values, primes = cong.prospect_grid(family, t_values, primes, args.order)
        print(f"prospecting family={family} t={t_values} p={primes} order={args.order}", file=sys.stderr)
        result = cong.prospect(family, t_values, primes, args.order)
        _claims_output(
            result.claims, args,
            extra={"chance_level": _power_of_ten_bound(result.chance_level), "note": result.note},
        )
        return 0
    # default: the fixed suite of stated congruence claims
    if args.suite not in (None, "paper"):
        raise UsageError(f"unknown suite {args.suite!r}; available: paper")
    cong.require_checked(cong.paper_claims(), args.order)
    print(f"running congruence suite at order {args.order}", file=sys.stderr)
    claims = cong.verify_paper_suite(args.order)
    _claims_output(claims, args)
    return 0 if all(c.status != REFUTED for c in claims) else 1


def _recheck(args):
    import json

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
    paper = {c.key() for c in cong.paper_claims()}
    claims = []
    for d in results:
        if not isinstance(d, dict) or any(name not in d for name in fields):
            raise UsageError(f"each result needs the fields {', '.join(fields)}")
        claim = _checked_claim(*(d[name] for name in fields), kind=d.get("kind", "ad-hoc"), label=d.get("label", ""))
        # a paper claim takes the paper's kind and label when checked; no other claim is a theorem or conjecture
        kinds = ("theorem", "conjecture", "ad-hoc", "prospect") if claim.key() in paper else ("ad-hoc", "prospect")
        if claim.kind not in kinds:
            raise UsageError(f"claim {claim.key()} must have one of the kinds {', '.join(kinds)}, got {claim.kind!r}")
        if type(claim.label) is not str or claim.label.splitlines() not in ([], [claim.label]):
            raise UsageError(f"claim label must be a one-line string, got {claim.label!r}")
        claims.append(claim)
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


_OUTPUT_OPTIONS = {
    "format": (("text", "json", "csv"), False, "text", None),
    "output": (str, False, None, None),
}

# command -> (help line, options); an option is name -> (kind, required,
# default, help line), where the kind is int, str, bool for a flag that
# takes no value, or the tuple of the values allowed
COMMANDS = {
    "coeffs": ("print a coefficient table", {
        "family": (str, True, None, "M or MO"),
        "t": (int, True, None, None),
        "n": (int, True, None, "largest index to print"),
        "mod": (int, False, None, "also reduce modulo this integer (>= 2)"),
        "formula": (str, False, None, "which formula backs the table"),
        **_OUTPUT_OPTIONS,
    }),
    "verify": ("verify a catalogued identity over a grid", {
        "id": (str, True, None, None),
        "order": (int, True, None, None),
        **{name: (str, False, None, f"grid, e.g. 1..4 or 1,3; each value {domain}")
           for name, (domain, _) in registry.GRID_DOMAINS.items()},
        **_OUTPUT_OPTIONS,
    }),
    "scan": ("congruence suite, single claims, or prospecting", {
        "order": (int, False, None, None),
        "suite": (str, False, None, "named suite (paper)"),
        "claim": (str, False, None, 'single claim "family,t,p,step,offset"'),
        "prospect": (bool, False, False, None),
        "family": (str, False, None, None),
        "t": (str, False, None, "t grid for prospecting"),
        "p": (str, False, None, "prime list for prospecting"),
        "input": (str, False, None, "previous JSON report"),
        "recheck": (bool, False, False, "re-run claims from --input"),
        **_OUTPUT_OPTIONS,
    }),
}

_HELP = ("-h", "--help")


def parse_args(argv):
    """The command named by argv[0] and its options, one attribute per
    option, or None once `-h`/`--help` has printed help.

    An option is spelled in full, as `--name value` or `--name=value`; a flag
    takes no value.  A repeated option keeps its last value, and a separate
    value that starts with `--` counts as missing, while `-5` is a value.
    argv is read from left to right, so help or an error comes from the
    first word that asks for it, as with argparse."""
    command = argv[0] if argv else None
    if command in _HELP:
        build_parser().print_help()
        return None
    if command not in COMMANDS:
        given = "no command given" if command is None else f"unknown command {command!r}"
        raise UsageError(f"{given}; choose from {', '.join(COMMANDS)}")
    options = COMMANDS[command][1]
    values = {name: default for name, (_, _, default, _) in options.items()}
    missing = [name for name, (_, required, _, _) in options.items() if required]
    words = iter(argv[1:])
    for word in words:
        if word in _HELP:
            build_parser(command).print_help()
            return None
        name, eq, value = word[2:].partition("=")
        if not word.startswith("--") or name not in options:
            known = ", ".join(f"--{option}" for option in options)
            raise UsageError(f"unknown argument {word!r} to {command}; its options are {known}")
        kind = options[name][0]
        if kind is bool:
            if eq:
                raise UsageError(f"--{name} takes no value, got {word!r}")
            values[name] = True
            continue
        if not eq:
            value = next(words, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"--{name} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"--{name} needs an integer, got {value!r}") from None
        elif kind is not str and value not in kind:
            raise UsageError(f"--{name} must be one of {', '.join(kind)}, got {value!r}")
        values[name] = value
        if name in missing:
            missing.remove(name)
    if missing:
        raise UsageError(f"{command} needs {', '.join(f'--{name}' for name in missing)}")
    return SimpleNamespace(command=command, **values)


def build_parser(command=None):
    """The argparse parser that prints help, built from COMMANDS: with no
    command the top-level parser, which lists the commands and their help
    lines, otherwise that command's own."""
    import argparse

    if command is None:
        parser = argparse.ArgumentParser(
            prog="macsums",
            description="exact generalized divisor sums: coefficients, identities, congruences",
        )
        sub = parser.add_subparsers(dest="command", required=True)
        for name, (help_line, _) in COMMANDS.items():
            sub.add_parser(name, help=help_line)
        return parser
    parser = argparse.ArgumentParser(prog=f"macsums {command}")
    for name, (kind, required, default, help_line) in COMMANDS[command][1].items():
        if kind is bool:
            parser.add_argument(f"--{name}", action="store_true", help=help_line)
        else:
            typed = {"type": kind} if kind in (int, str) else {"choices": kind}
            parser.add_argument(f"--{name}", required=required, default=default, help=help_line, **typed)
    return parser


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            return 0  # help was printed
        if args.command == "coeffs":
            return cmd_coeffs(args)
        if args.order is not None:
            _at_least(0, order=args.order)
        if args.command == "verify":
            return cmd_verify(args)
        # scan
        if args.recheck and not args.input:
            raise UsageError("--recheck applies only to --input")
        if args.order is None and not args.input:
            raise UsageError("scan needs an explicit --order")
        if not args.prospect and (args.t, args.p, args.family) != (None, None, None):
            raise UsageError("--t, --p and --family apply only to --prospect")
        return cmd_scan(args)
    except (UsageError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # every command builds its whole output before writing it, so none was written
        print("error: out of memory; try a smaller order or grid", file=sys.stderr)
        return 2
    except (ZeroDivisionError, OverflowError):
        raise
    except ArithmeticError as exc:
        # a route's exact division left a remainder (as in registry.run_identity); nothing was written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
