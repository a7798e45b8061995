"""Command line interface: evaluate, classify, tabulate, verify, simulate.

Each command returns its result payload and exit code, and `main` alone
wraps the payload in the one JSON envelope it prints: the command, the
inputs, the result and the tool version.  The inputs echo every parsed
argument of the command, defaults included, in `--help` order.  Only
`table --format csv` prints rows in place of an envelope.  main may be
called any number of times in one process, and builds its parser on the
first call.

Exit codes: 0 success, 2 usage or parse error, 3 cross check mismatch,
4 verification failure, 5 internal invariant violated (a defect in the
package, reported without a traceback).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .config import classify, max_weakly_shift, parse_config, shifted_config
from .engine import SWEEP_MAX_N, exact_sweep, remixed_exact, remixed_induction, success_probability
from .formulas import (
    EvalReport,
    a_connected,
    a_one_hole,
    a_weakly_lukasiewicz,
    carlitz_scoville_q,
    dispatch,
    q_hits,
)
from .qcalc import InvariantViolation
from .simulate import estimate_success
from .verify import SUITES


def _parse_rational(text: str) -> Fraction:
    """Exact rational for --q from 'a/b' or an integer literal; decimals rejected."""
    text = text.strip()
    num, slash, den = text.partition("/")
    if not slash and "." in text:
        raise ValueError(f"decimal {text!r} rejected, use an integer or a/b")
    try:
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    except ValueError:
        raise ValueError(f"--q takes an integer or a/b with integers a and b, got {text!r}") from None
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_tuple(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))  # int() strips the spaces
    except ValueError as exc:
        raise ValueError(f"{what} must be comma separated integers, got {text!r}") from exc


def cmd_eval(args: argparse.Namespace) -> tuple[dict, int]:
    c = parse_config(args.config)
    q = None if args.q is None else _parse_rational(args.q)
    if args.method == "exact":
        rep = EvalReport("exact", remixed_exact(c), classify(c))
    elif args.method == "induction":
        rep = EvalReport("induction", remixed_induction(c), classify(c))
    else:
        rep = dispatch(c)
        if args.method == "formula" and rep.method == "induction":
            raise ValueError(f"no closed formula applies to {c}")
    check = "skip"
    oracle = None
    if args.crosscheck:
        oracle = remixed_induction(c) if rep.method == "exact" else remixed_exact(c)
        check = "pass" if oracle == rep.poly else "fail"
    result: dict = {"config": list(c.c), "method": rep.method}
    if q is not None:
        result["value"] = str(rep.poly.evaluate(q))
    else:
        result["poly"] = rep.poly.to_json()
    result["flags"] = rep.flags.to_json()
    result["crosscheck"] = check
    if args.pretty and (pretty := rep.pretty) is not None:
        result["pretty"] = pretty
    if check == "fail":
        result["oracle"] = oracle.to_json()
    return result, 3 if check == "fail" else 0


def cmd_classify(args: argparse.Namespace) -> tuple[dict, int]:
    c = parse_config(args.config)
    return {"config": list(c.c), "flags": classify(c).to_json()}, 0


def _require(value, name: str):
    if value is None:
        raise ValueError(f"table kind requires --{name}")
    return value


def _sites(args: argparse.Namespace) -> int:
    """--n of a table kind that reads it, at least one site."""
    n = _require(args.n, "n")
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    return n


def cmd_table(args: argparse.Namespace) -> tuple[dict | None, int]:
    rows: list[tuple[str, object]] = []
    if args.kind in ("connected", "weakly", "one-hole"):
        gamma = _parse_tuple(_require(args.gamma, "gamma"), "gamma")
        want = None if args.n is None else _sites(args)
        n = shifted_config(gamma, 0).n  # a bad core fails here, before the first row
        if want not in (None, n):
            raise ValueError(f"core holds {n} balls, configuration needs {want}")
    if args.kind == "connected":
        for i in range(n - len(gamma) + 1):
            rows.append((str(i), a_connected(gamma, i)))
    elif args.kind == "weakly":
        for i in range(max_weakly_shift(gamma) + 1):
            rows.append((str(i), a_weakly_lukasiewicz(gamma, i)))
    elif args.kind == "one-hole":
        for i in range(n - len(gamma) + 1):
            rows.append((str(i), a_one_hole(shifted_config(gamma, i))))
    elif args.kind == "cs":
        x, y = _require(args.x, "x"), _require(args.y, "y")
        rsmax = _require(args.rsmax, "rsmax")
        if rsmax < 0:
            raise ValueError("rsmax must be nonnegative")
        for total in range(rsmax + 1):
            for r in range(total + 1):
                p = carlitz_scoville_q(r, total - r, x, y)
                rows.append((f"{r}:{total - r}", p))
    elif args.kind == "hit":
        lam = _parse_tuple(_require(getattr(args, "lambda"), "lambda"), "lambda")
        n = _sites(args)
        for i, p in enumerate(q_hits(lam, n)):
            rows.append((str(i), p))
    if args.format == "csv":
        width = max((len(p.coeffs) for _, p in rows), default=0)
        width = max(width, 1)
        lines = ["index," + ",".join(f"coeff{i}" for i in range(width))]
        for idx, p in rows:
            lines.append(idx + "," + ",".join(str(p.coeff(i)) for i in range(width)))
        sys.stdout.write("\n".join(lines) + "\n")
        return None, 0
    return {"rows": [{"index": idx, "poly": p.to_json()} for idx, p in rows]}, 0


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    if not 1 <= args.nmax <= SWEEP_MAX_N:
        raise ValueError(f"nmax must be between 1 and {SWEEP_MAX_N}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    # one cache per command: a table is built on a suite's first read of it,
    # shared by the suites after it, and dropped when the command ends
    table = lru_cache(maxsize=None)(exact_sweep)
    suites = [SUITES[name](args.nmax, table) for name in names]
    return {"suites": suites}, 0 if all(s["passed"] for s in suites) else 4


def cmd_simulate(args: argparse.Namespace) -> tuple[dict, int]:
    c = parse_config(args.config)
    q0 = _parse_rational(args.q)
    if q0 < 0:
        raise ValueError(f"--q must be nonnegative, got {args.q!r}")
    res = estimate_success(c, q0, args.trials, args.seed)
    exact = success_probability(c, q0)
    p = float(exact)
    sigma = math.sqrt(p * (1 - p) / res.trials)
    if sigma == 0 and 0 < exact < 1:
        # p underflowed to 0 or rounded to 1: the squared deviation, exactly
        n = res.trials
        try:
            dev = f"{math.sqrt((res.successes - n * exact) ** 2 / (n * exact * (1 - exact))):.4f}"
        except OverflowError:
            dev = "inf"
    elif sigma == 0:
        dev = "0.0000" if res.estimate == exact else "inf"
    else:
        dev = f"{abs(res.successes / res.trials - p) / sigma:.4f}"
    return {"sim": res.to_json(), "exact": str(exact), "sigma_deviation": dev}, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remixed",
        description="Exact remixed Eulerian number computations and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the polynomial of a configuration")
    p.add_argument("config")
    p.add_argument("--method", choices=["auto", "exact", "induction", "formula"], default="auto")
    p.add_argument("--crosscheck", action="store_true")
    p.add_argument(
        "--q",
        default=None,
        help="evaluate at an exact rational, a/b or integer; write a negative fraction as --q=-1/2",
    )
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("classify", help="family flags of a configuration")
    p.add_argument("config")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("table", help="tabulate a family of polynomials")
    p.add_argument("kind", choices=["connected", "weakly", "one-hole", "cs", "hit"])
    p.add_argument("--gamma", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--y", type=int, default=None)
    p.add_argument("--rsmax", type=int, default=None)
    p.add_argument("--lambda", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run exhaustive identity suites")
    p.add_argument("suite", choices=[*SUITES, "all"])
    p.add_argument(
        "--nmax",
        type=int,
        default=6,
        help=f"check every configuration with n <= NMAX, at most {SWEEP_MAX_N} (default 6)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo check of the drop dynamics")
    p.add_argument("config")
    p.add_argument("--q", default="1")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)
    return parser


# The one parser of the process, built on the first main call rather than
# at import.  parse_args keeps no state on the parser (each call fills a new
# Namespace), so every later call parses with it as with a fresh one.  The
# build binds the cmd_* functions and the suite choices as they are then: code
# that replaces either must call _parser.cache_clear() before main sees it.
_parser = lru_cache(maxsize=1)(build_parser)

_quote = json.encoder.encode_basestring_ascii


def _indented(obj: object, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, for dicts with str keys, lists, tuples and scalars.

    An indent sends json.dumps down its pure-Python encoder; here strings,
    lists of strings included, are quoted in C.  pad is the newline and
    indent obj's line starts with.  A scalar's text does not depend on the
    indent, so any scalar but str, int, bool and None goes to json.dumps.
    """
    if obj.__class__ is str:
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if obj.__class__ is int:
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [_quote(k) + ": " + _indented(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = map(_quote, obj) if set(map(type, obj)) == {str} else [_indented(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if obj else "[]"
    return json.dumps(obj)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        result, code = args.func(args)
    except InvariantViolation as exc:
        print(f"internal error: invariant violated: {exc}", file=sys.stderr)
        return 5
    except (ValueError, ArithmeticError, RecursionError, MemoryError, ImportError) as exc:
        # RecursionError: the last ball recursion takes one frame per site;
        # MemoryError: simulate keeps a byte of flags a trial; ImportError:
        # simulate imports numpy on its first call, the exact routes never do
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    if result is not None:
        inputs = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
        env = {"command": args.command, "inputs": inputs, "result": result, "version": __version__}
        sys.stdout.write(_indented(env) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
