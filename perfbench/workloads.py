"""The benchmark's workloads: seeded inputs, timed operations, output checks.

Each workload turns a seed into a pool of operation specs (plain data, so
the same seed gives the same specs).  The pool is stratified: its multiset
of operation kinds, primes and sizes is fixed, and the seed draws the
coefficients, parameters and the order in which one round visits the pool.
A run repeats whole rounds, so every run does the same mix of work and
only the inputs move with the seed.  Spec 0 is the warm-up operation; its
kind and size do not depend on the seed, so set-up cost does not either.

`bind` turns specs into zero-argument callables against a freshly imported
library, `finish` turns a result into the bytes that are compared across
rounds and hashed, and `check` verifies those bytes with `oracle`.
"""

import contextlib
import io
import random
from dataclasses import dataclass

import numpy as np

import oracle

DEFAULT_SEED = 0
HUGE_N = 10 ** 15

NAMES = ("certify", "klopsch", "group_ops", "cli_small")   # why each: BENCHMARK.json

CERTIFY_OUT = "".join(f"{name}: PASS\n" for name in (
    "artin_schreier", "factorization", "ring_relation",
    "equivariance", "order_four", "route_agreement"))

KLOPSCH_STRATA = [(p, m) for p in (2, 3, 5) for m in range(1, 13) if m % p]
SIGMA_METHODS = (None, "closed", "algebraic", "relation")
CLI_COMMANDS = ("sigma", "verify", "compose", "inverse", "power", "order", "depth", "klopsch")


@dataclass
class Record:
    """What one operation produced: bytes compared across rounds and hashed,
    and stderr, which only the hostile-input check reads.  An operation that
    raised has `raised` set and no output."""

    data: bytes
    err: str = ""
    raised: bool = False


def sizes(name, tiny):
    """The fixed size parameters of a workload."""
    return {
        "certify": {"N": 64 if tiny else 2048},
        "klopsch": {"N": 32 if tiny else 256},
        "group_ops": {"N": 24 if tiny else 384},
        "cli_small": {"N_max": 16 if tiny else 64, "per_command": 2 if tiny else 24},
    }[name]


def _cell(i, count, lo, hi, rng):
    """A seeded draw from the i-th of `count` equal cells of [lo, hi]."""
    a = lo + (hi - lo + 1) * i // count
    b = lo + (hi - lo + 1) * (i + 1) // count - 1
    return rng.randint(a, max(a, b))


def _element(rng, p, n, kind):
    """Coefficients of a group element t + ...: dense, sparse or the identity."""
    coeffs = [0, 1] + [0] * (n - 1)
    if kind == "dense":
        coeffs[2:] = [rng.randrange(p) for _ in range(n - 1)]
    elif kind == "sparse" and n >= 2:
        d = rng.randint(1, n - 1)
        coeffs[d + 1] = rng.randrange(1, p)
        for _ in range(2):
            coeffs[rng.randint(d + 1, n)] = rng.randrange(p)
    return coeffs


def _text(p, n, coeffs):
    return oracle.emit(p, n, np.array(coeffs)).decode()


def generate(name, seed, tiny=False):
    """(pool, order): the operation specs and one round's visiting order."""
    rng = random.Random(f"{name}:{seed}")
    size = sizes(name, tiny)
    pool = _GENERATORS[name](rng, **size)
    order = list(range(len(pool)))
    rng.shuffle(order)
    return pool, order


def _gen_certify(rng, N):
    return [{"kind": "verify", "argv": ["verify", "--trunc", str(N)]}]


def _gen_klopsch(rng, N):
    # two draws of a per stratum, so that the median of the mix moves less
    # with the seed: the cost of an operation depends on a
    return [{"kind": "klopsch", "p": p, "m": m, "a": rng.randrange(1, p), "N": N}
            for p, m in KLOPSCH_STRATA for _ in range(2)]


def _gen_group_ops(rng, N):
    pool = []
    for _ in range(2):              # two sets, as for klopsch
        pool += _group_set(rng, N)
    return pool


def _group_set(rng, N):
    ks = [5, 6, 7, 9]
    rng.shuffle(ks)
    pool = []
    for p, k in zip((2, 3, 5, 7), ks):
        def el():
            return _element(rng, p, N, "dense")
        pool += [
            {"kind": "mul", "p": p, "N": N, "f": el(), "g": el()},
            {"kind": "mul", "p": p, "N": N, "f": el(), "g": el()},
            {"kind": "inverse", "p": p, "N": N, "f": el()},
            {"kind": "pow", "p": p, "N": N, "f": el(), "k": k},
            {"kind": "order", "p": p, "N": N, "f": el(), "cap": p ** 3},
        ]
    return pool


def _gen_cli_small(rng, N_max, per_command):
    pool = []
    for cmd in CLI_COMMANDS:
        for i in range(per_command):
            pool.append(_cli_spec(rng, cmd, i, per_command, N_max))
    # The lowest precisions the order-4 routes accept, kept out of the random
    # draws so that every round has each once: at the seed commit the
    # algebraic and relation routes reject N=3, a defect this makes visible.
    pool += [{"kind": "sigma", "edge": f"N={n}", "argv": ["sigma", "--trunc", str(n)]}
             for n in (2, 3)]
    return pool + _hostile_specs(rng)


def _cli_spec(rng, cmd, i, count, n_max):
    spec = {"kind": cmd, "files": {}}
    if cmd == "sigma":
        method = SIGMA_METHODS[i % len(SIGMA_METHODS)]
        spec["argv"] = ["sigma", "--trunc", str(_cell(i, count, 4, n_max, rng))]
        spec["argv"] += ["--method", method] if method else []
        return spec
    if cmd == "verify":
        spec["argv"] = ["verify", "--trunc", str(_cell(i, count, 8, n_max, rng))]
        return spec
    if cmd == "klopsch":
        p, m = KLOPSCH_STRATA[i % len(KLOPSCH_STRATA)]
        n = rng.randint(m + 1, max(m + 1, n_max))
        spec.update(p=p, m=m, a=rng.randrange(1, p), N=n)
        spec["argv"] = ["klopsch", "-p", str(p), "-m", str(m), "-a", str(spec["a"]),
                        "--trunc", str(n)]
        return spec
    p = (2, 3, 5)[i % 3]
    n = _cell(i, count, 2, n_max, rng)
    spec["p"] = p
    kind = "identity" if cmd == "depth" and i % 8 == 7 else ("dense", "sparse")[i % 2]
    spec["files"]["f"] = _text(p, n, _element(rng, p, n, kind))
    if cmd == "compose":
        spec["files"]["g"] = _text(p, n, _element(rng, p, n, ("sparse", "dense")[i % 2]))
        spec["argv"] = ["compose", "--lhs", "@f", "--rhs", "@g"]
    elif cmd == "power":
        spec["argv"] = ["power", "--in", "@f", "-k", str(i % 10)]
    elif cmd == "order":
        spec["cap"] = p ** rng.randint(1, 6) if i % 2 else None
        spec["argv"] = ["order", "--in", "@f"]
        spec["argv"] += ["--cap", str(spec["cap"])] if spec["cap"] else []
    else:
        spec["argv"] = [cmd, "--in", "@f"]
    return spec


def _hostile_specs(rng):
    """Inputs whose only correct result is exit 2, empty stdout and one
    `error:` line.  The two huge-N headers escape the CLI as MemoryError at
    the seed commit; they stay in the pool so that the defect shows."""
    n = rng.randint(8, 16)
    bad_files = [
        ("depth", "huge_n", f"p=2 N={HUGE_N}\n1:1 {rng.randint(2, 9)}:1\n"),
        ("order", "huge_n", f"p=3 N={HUGE_N}\n1:1 2:{rng.randint(1, 2)}\n"),
        ("depth", "bad_header", f"p=2 M={n}\n1:1\n"),
        ("inverse", "composite_p", f"p=4 N={n}\n1:1 2:1\n"),
        ("power", "not_normalized", f"p=3 N={n}\n1:2 3:1\n"),
        ("depth", "not_ascending", f"p=2 N={n}\n1:1 5:1 3:1\n"),
        ("inverse", "exponent_above_n", f"p=5 N={n}\n1:1 {n + 1}:2\n"),
    ]
    pool = []
    for cmd, why, text in bad_files:
        argv = [cmd, "--in", "@f"] + (["-k", "2"] if cmd == "power" else [])
        pool.append({"kind": cmd, "hostile": why, "files": {"f": text}, "argv": argv})
    pool.append({"kind": "compose", "hostile": "mismatched_p", "argv":
                 ["compose", "--lhs", "@f", "--rhs", "@g"], "files": {
                     "f": _text(2, n, _element(rng, 2, n, "dense")),
                     "g": _text(3, n, _element(rng, 3, n, "dense"))}})
    pool.append({"kind": "klopsch", "hostile": "m_divisible_by_p", "files": {}, "argv":
                 ["klopsch", "-p", "3", "-m", str(3 * rng.randint(1, 4)), "-a", "1",
                  "--trunc", str(n)]})
    pool.append({"kind": "verify", "hostile": "trunc_below_8", "files": {},
                 "argv": ["verify", "--trunc", str(rng.randint(2, 7))]})
    return pool


_GENERATORS = {"certify": _gen_certify, "klopsch": _gen_klopsch,
               "group_ops": _gen_group_ops, "cli_small": _gen_cli_small}


# ----------------------------------------------------------------------
# binding specs to the library


def write_files(pool, workdir):
    """Write each spec's input files under workdir; returns resolved argvs."""
    argvs = []
    for idx, spec in enumerate(pool):
        paths = {}
        for key, text in spec.get("files", {}).items():
            path = workdir / f"{idx:03d}{key}.txt"
            path.write_text(text, encoding="ascii")
            paths["@" + key] = str(path)
        argvs.append([paths.get(a, a) for a in spec["argv"]] if "argv" in spec else None)
    return argvs


def _cli_call(cli, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue(), err.getvalue()
    return call


def bind(name, pool, argvs, nt):
    """Zero-argument callables, one per spec.  `nt` is the imported package;
    functions are looked up on it at call time, so wrappers installed later
    are seen."""
    if name in ("certify", "cli_small"):
        return [_cli_call(nt.cli, argv) for argv in argvs]
    if name == "klopsch":
        return [lambda s=s: nt.klopsch_rep(s["p"], s["m"], s["a"], s["N"]) for s in pool]
    calls = []
    for s in pool:
        f = nt.GroupElement(nt.Series(s["p"], s["N"], s["f"]))
        if s["kind"] == "mul":
            g = nt.GroupElement(nt.Series(s["p"], s["N"], s["g"]))
            calls.append(lambda f=f, g=g: f * g)
        elif s["kind"] == "inverse":
            calls.append(lambda f=f: f.inverse())
        elif s["kind"] == "pow":
            calls.append(lambda f=f, k=s["k"]: f ** k)
        else:
            calls.append(lambda f=f, cap=s["cap"]: nt.order_mod_truncation(f, cap))
    return calls


def finish(spec, result):
    """Record for a returned result.  Library results are serialized here,
    outside the timed interval and without calling the library."""
    if isinstance(result, tuple):
        code, out, err = result
        return Record(f"exit={code}\n{out}".encode(), err)
    if result is None or isinstance(result, int):
        return Record(repr(result).encode())
    return Record(oracle.emit(spec["p"], spec["N"], result.series.coeffs))


# ----------------------------------------------------------------------
# output checks


def _arr(coeffs):
    return np.array(coeffs, dtype=np.int64)


def is_error(spec, rec):
    """True when the operation raised, or the CLI refused a valid input
    with exit 2: a failed operation, but not a wrong result."""
    return rec.raised or ("hostile" not in spec and rec.data.startswith(b"exit=2\n"))


def check(name, spec, rec):
    """True when the record is the correct output for the spec."""
    if rec.raised:
        return False
    if name == "certify":
        return rec.data == f"exit=0\n{CERTIFY_OUT}".encode()
    if name == "klopsch":
        p, n, rep = oracle.parse(rec.data.decode())
        return (p, n) == (spec["p"], spec["N"]) and oracle.is_klopsch_rep(
            rep, p, spec["m"], spec["a"])
    if name == "group_ops":
        return _check_group(spec, rec)
    return _check_cli(spec, rec)


def _check_group(s, rec):
    p, f = s["p"], _arr(s["f"])
    if s["kind"] == "order":
        return rec.data == repr(oracle.order(f, p, s["cap"])).encode()
    if s["kind"] == "inverse":
        q, n, inv = oracle.parse(rec.data.decode())
        return (q, n) == (p, s["N"]) and np.array_equal(
            oracle.compose(f, inv, p), oracle.gen(p, n))
    want = (oracle.compose(f, _arr(s["g"]), p) if s["kind"] == "mul"
            else oracle.power(f, s["k"], p))
    return rec.data == oracle.emit(p, s["N"], want)


def _check_cli(s, rec):
    head, _, out = rec.data.decode().partition("\n")
    if not head.startswith("exit="):
        return False
    code = int(head[5:])
    if "hostile" in s:
        lines = rec.err.splitlines()
        return code == 2 and out == "" and len(lines) == 1 and lines[0].startswith("error:")
    cmd, argv = s["kind"], s["argv"]
    if cmd == "sigma":
        n = int(argv[2])
        coeffs = np.zeros(n + 1, dtype=np.int64)
        coeffs[oracle.sigma_support(n)] = 1
        return code == 0 and out.encode() == oracle.emit(2, n, coeffs)
    if cmd == "verify":
        return code == 0 and out == CERTIFY_OUT
    if cmd == "klopsch":
        if code != 0:
            return False
        p, n, rep = oracle.parse(out)
        return (p, n) == (s["p"], s["N"]) and oracle.is_klopsch_rep(rep, p, s["m"], s["a"])
    p, n, f = oracle.parse(s["files"]["f"])
    if cmd == "depth":
        d = oracle.depth(f, p)
        return code == 0 and out == ("inf" if d is None else str(d)) + "\n"
    if cmd == "order":
        r = oracle.order(f, p, s["cap"] or p ** 6)
        return (code, out) == ((1, "") if r is None else (0, f"{r}\n"))
    if code != 0:
        return False
    if cmd == "inverse":
        q, m, inv = oracle.parse(out)
        return (q, m) == (p, n) and np.array_equal(oracle.compose(f, inv, p), oracle.gen(p, n))
    if cmd == "compose":
        want = oracle.compose(f, oracle.parse(s["files"]["g"])[2], p)
    else:
        want = oracle.power(f, int(argv[4]), p)
    return out.encode() == oracle.emit(p, n, want)


def describe(name, pool, tiny):
    """The settings a result file records for this workload."""
    mix = {}
    for s in pool:
        key = s["kind"] + (":hostile" if "hostile" in s else "")
        mix[key] = mix.get(key, 0) + 1
    primes = sorted({s["p"] for s in pool if "p" in s} or {2})
    return {"sizes": sizes(name, tiny), "primes": primes, "op_mix": mix,
            "pool_size": len(pool),
            "huge_n_ops": sum(s.get("hostile") == "huge_n" for s in pool)}
