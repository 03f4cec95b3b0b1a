"""Command-line front end.

Series travel as two-line sparse text (see Series.to_text): a header
`p=<p> N=<N>` and one line of ascending `exponent:coefficient` pairs.
Every construction subcommand emits exactly one such block on stdout, so
outputs feed straight back into `compose`, `power`, `order`, etc.

Exit codes: 0 success, 1 verification or route-disagreement failure,
2 usage error (bad flags, malformed files, contract violations).  Nothing
is written to stdout on a failure path.
"""

import argparse
import sys

from .errors import NottinghamError
from .field import PRIME_CAP
from .group import DEFAULT_CAP_EXP, INFINITE_DEPTH, GroupElement, klopsch_rep, order_mod_truncation
from .order4 import (_first_difference, run_checks, sigma_algebraic, sigma_bundle, sigma_closed,
                     sigma_relation)
from .series import MAX_TRUNC, Series, _number

_SIGMA_ROUTES = {
    "closed": sigma_closed,
    "algebraic": sigma_algebraic,
    "relation": sigma_relation,
}
# Integer flags by dest: (name, cap).  argparse keeps them as strings; run reads
# them by the file grammar's _number, so a bad one is one error: line.
_INT_FLAGS = {"trunc": ("truncation order", MAX_TRUNC), "p": ("characteristic", PRIME_CAP),
              "m": ("depth index", None), "a": ("parameter", None),
              "k": ("exponent", None), "cap": ("cap", None)}


class _Parser(argparse.ArgumentParser):
    """Usage errors go to run as ValueError, cut so that its error: line stays under 150."""

    def error(self, message):
        raise ValueError(message if len(message) <= 141 else message[:138] + "...")


def _load_group_element(path):
    with open(path, "r", encoding="ascii") as fh:
        return GroupElement(Series.from_text(fh.read()))


def _cmd_sigma(ns):
    if ns.method is not None:
        return _SIGMA_ROUTES[ns.method](ns.trunc)
    # no method chosen: build every route and insist they agree, so a
    # plain `sigma` invocation doubles as a self-check
    closed = _SIGMA_ROUTES["closed"](ns.trunc)
    for name, fn in list(_SIGMA_ROUTES.items())[1:]:
        if (e := _first_difference(fn(ns.trunc).series, closed.series)) is not None:
            print(f"route disagreement: closed vs {name} at exponent {e}", file=sys.stderr)
            return 1
    return closed


def _cmd_verify(ns):
    if ns.sigma is not None:
        candidate = _load_group_element(ns.sigma)
        # before the bundle: a p = 3 candidate would first cost a full p = 2 bundle
        if candidate.p != 2:
            raise ValueError("candidate must live over p = 2")
        if ns.trunc is not None and ns.trunc != candidate.trunc:
            raise ValueError(
                f"--trunc {ns.trunc} does not match candidate N={candidate.trunc}")
        bundle = sigma_bundle(candidate.trunc).with_candidate(candidate)
    else:
        if ns.trunc is None:
            raise ValueError("verify needs --trunc (or --sigma FILE)")
        bundle = sigma_bundle(ns.trunc)
    report = run_checks(bundle)
    sys.stdout.write(report.render())
    return 0 if report.passed else 1


def _cmd_order(ns):
    elem = _load_group_element(ns.infile)
    order = order_mod_truncation(elem, ns.cap)
    if order is None:
        cap = ns.cap if ns.cap is not None else elem.p ** DEFAULT_CAP_EXP
        print(f"no p-power order <= {cap} at precision N={elem.trunc}", file=sys.stderr)
        return 1
    print(order)
    return 0


def _cmd_depth(ns):
    d = _load_group_element(ns.infile).depth()
    print("inf" if d is INFINITE_DEPTH else d)
    return 0


_IN = ("--in", dict(dest="infile", required=True, metavar="FILE"))
_TRUNC = ("--trunc", dict(required=True, metavar="N"))
# Subcommand: (help, flags as (name, add_argument keywords), handler).  A handler
# returns a GroupElement for run to print, or an exit code after printing itself.
_COMMANDS = {
    "sigma": ("emit the order-4 element at p=2 (all routes must agree)",
              [_TRUNC, ("--method", dict(choices=sorted(_SIGMA_ROUTES)))], _cmd_sigma),
    "verify": ("run the order-4 identity suite at a chosen precision",
               [("--trunc", dict(metavar="N")),
                ("--sigma", dict(metavar="FILE",
                                 help="check this candidate series instead of the built-in one"))],
               _cmd_verify),
    "compose": ("compose two group elements",
                [("--lhs", dict(required=True, metavar="FILE")),
                 ("--rhs", dict(required=True, metavar="FILE"))],
                lambda ns: _load_group_element(ns.lhs) * _load_group_element(ns.rhs)),
    "inverse": ("compositional inverse of a group element", [_IN],
                lambda ns: _load_group_element(ns.infile).inverse()),
    "power": ("k-th compositional power", [_IN, ("-k", dict(required=True))],
              lambda ns: _load_group_element(ns.infile) ** ns.k),
    "order": ("least p-power k <= cap with f^k = id at this precision",
              [_IN, ("--cap", dict(default=None, help=f"default p^{DEFAULT_CAP_EXP}"))], _cmd_order),
    "depth": ("congruence-filtration depth", [_IN], _cmd_depth),
    "klopsch": ("order-p representative t*(1 - a*t^m)^(-1/m)",
                [("-p", dict(required=True)), ("-m", dict(required=True)),
                 ("-a", dict(required=True)), _TRUNC],
                lambda ns: klopsch_rep(ns.p, ns.m, ns.a, ns.trunc)),
}


def _build_parser(argv):
    """Every subcommand's subparser, which the top-level help and choice
    check read, but flags only on the one argv names, the only one that
    parses: its first token that names one, as no top-level option takes a value."""
    parser = _Parser(prog="nottingham",
                     description="Exact Nottingham-group computations over small prime fields.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    named = next((a for a in argv if a in _COMMANDS), None)
    for name, (text, flags, handler) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        for flag, kw in flags if name == named else ():
            cmd.add_argument(flag, **kw)
        cmd.set_defaults(func=handler)
    return parser


def run(argv):
    """Parse argv and dispatch; returns the process exit code."""
    try:
        ns = _build_parser(argv).parse_args(argv)
        for dest, (what, cap) in _INT_FLAGS.items():
            if getattr(ns, dest, None) is not None:
                setattr(ns, dest, _number(getattr(ns, dest), what, cap))
        out = ns.func(ns)
    except SystemExit as exc:   # --help
        return exc.code
    except (NottinghamError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(out, int):
        return out
    sys.stdout.write(out.series.to_text())
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
