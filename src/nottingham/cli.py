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
from .group import (
    INFINITE_DEPTH,
    GroupElement,
    klopsch_rep,
    order_mod_truncation,
)
from .order4 import run_checks, sigma_algebraic, sigma_bundle, sigma_closed, sigma_relation
from .series import MAX_TRUNC, Series

_SIGMA_ROUTES = {
    "closed": sigma_closed,
    "algebraic": sigma_algebraic,
    "relation": sigma_relation,
}


def _load_group_element(path):
    with open(path, "r", encoding="ascii") as fh:
        return GroupElement(Series.from_text(fh.read()))


def _cmd_sigma(ns):
    if ns.method is not None:
        elem = _SIGMA_ROUTES[ns.method](ns.trunc)
    else:
        # no method chosen: build every route and insist they agree, so a
        # plain `sigma` invocation doubles as a self-check
        routes = [(name, fn(ns.trunc)) for name, fn in _SIGMA_ROUTES.items()]
        elem = routes[0][1]
        for name, other in routes[1:]:
            if other != elem:
                e = (other.series - elem.series).valuation()
                print(f"route disagreement: closed vs {name} at exponent {e}",
                      file=sys.stderr)
                return 1
    sys.stdout.write(elem.series.to_text())
    return 0


def _cmd_verify(ns):
    if ns.sigma is not None:
        candidate = _load_group_element(ns.sigma)
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


def _cmd_compose(ns):
    lhs = _load_group_element(ns.lhs)
    rhs = _load_group_element(ns.rhs)
    sys.stdout.write((lhs * rhs).series.to_text())
    return 0


def _cmd_inverse(ns):
    sys.stdout.write(_load_group_element(ns.infile).inverse().series.to_text())
    return 0


def _cmd_power(ns):
    if ns.k < 0:
        raise ValueError("exponent must be non-negative")
    sys.stdout.write((_load_group_element(ns.infile) ** ns.k).series.to_text())
    return 0


def _cmd_order(ns):
    elem = _load_group_element(ns.infile)
    order = order_mod_truncation(elem, ns.cap)
    if order is None:
        cap = ns.cap if ns.cap is not None else elem.p ** 6
        print(f"no p-power order <= {cap} at precision N={elem.trunc}",
              file=sys.stderr)
        return 1
    print(order)
    return 0


def _cmd_depth(ns):
    d = _load_group_element(ns.infile).depth()
    print("inf" if d is INFINITE_DEPTH else d)
    return 0


def _cmd_klopsch(ns):
    elem = klopsch_rep(ns.p, ns.m, ns.a, ns.trunc)
    sys.stdout.write(elem.series.to_text())
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nottingham",
        description="Exact Nottingham-group computations over small prime fields.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sigma = sub.add_parser(
        "sigma", help="emit the order-4 element at p=2 (all routes must agree)")
    p_sigma.add_argument("--trunc", type=int, required=True, metavar="N")
    p_sigma.add_argument("--method", choices=sorted(_SIGMA_ROUTES))
    p_sigma.set_defaults(func=_cmd_sigma)

    p_verify = sub.add_parser(
        "verify", help="run the order-4 identity suite at a chosen precision")
    p_verify.add_argument("--trunc", type=int, metavar="N")
    p_verify.add_argument("--sigma", metavar="FILE",
                          help="check this candidate series instead of the built-in one")
    p_verify.set_defaults(func=_cmd_verify)

    p_compose = sub.add_parser("compose", help="compose two group elements")
    p_compose.add_argument("--lhs", required=True, metavar="FILE")
    p_compose.add_argument("--rhs", required=True, metavar="FILE")
    p_compose.set_defaults(func=_cmd_compose)

    p_inverse = sub.add_parser("inverse", help="compositional inverse of a group element")
    p_inverse.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_inverse.set_defaults(func=_cmd_inverse)

    p_power = sub.add_parser("power", help="k-th compositional power")
    p_power.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_power.add_argument("-k", type=int, required=True)
    p_power.set_defaults(func=_cmd_power)

    p_order = sub.add_parser(
        "order", help="least p-power k <= cap with f^k = id at this precision")
    p_order.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_order.add_argument("--cap", type=int, default=None, help="default p^6")
    p_order.set_defaults(func=_cmd_order)

    p_depth = sub.add_parser("depth", help="congruence-filtration depth")
    p_depth.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_depth.set_defaults(func=_cmd_depth)

    p_klopsch = sub.add_parser(
        "klopsch", help="order-p representative t*(1 - a*t^m)^(-1/m)")
    p_klopsch.add_argument("-p", type=int, required=True)
    p_klopsch.add_argument("-m", type=int, required=True)
    p_klopsch.add_argument("-a", type=int, required=True)
    p_klopsch.add_argument("--trunc", type=int, required=True, metavar="N")
    p_klopsch.set_defaults(func=_cmd_klopsch)

    return parser


def run(argv):
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(ns, "trunc", None) is not None and ns.trunc > MAX_TRUNC:
            raise ValueError(f"--trunc {ns.trunc} exceeds the precision cap {MAX_TRUNC}")
        return ns.func(ns)
    except (NottinghamError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
