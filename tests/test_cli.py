import sys

import pytest

from nottingham import GroupElement, cli, identity, sigma_closed
from nottingham.series import MAX_TRUNC, Series

from support import run_cli

SIGMA62_TEXT = (
    "p=2 N=62\n"
    "1:1 2:1 6:1 12:1 14:1 24:1 26:1 28:1 30:1 "
    "48:1 50:1 52:1 54:1 56:1 58:1 60:1 62:1\n"
)


def write(path, text):
    path.write_text(text, encoding="ascii")
    return str(path)


# ----------------------------------------------------------------------
# construction subcommands

def test_sigma_byte_exact():
    code, out, err = run_cli(["sigma", "--trunc", "62"])
    assert (code, err) == (0, "")
    assert out == SIGMA62_TEXT


def test_sigma_is_deterministic():
    out1 = run_cli(["sigma", "--trunc", "100"])
    out2 = run_cli(["sigma", "--trunc", "100"])
    assert out1 == out2


def test_sigma_methods_agree():
    outs = {run_cli(["sigma", "--trunc", "40", "--method", m])[1]
            for m in ("closed", "algebraic", "relation")}
    assert len(outs) == 1
    assert outs == {run_cli(["sigma", "--trunc", "40"])[1]}


def test_sigma_usage_errors():
    assert run_cli(["sigma"])[0] == 2
    assert run_cli(["sigma", "--trunc", "1"])[0] == 2
    assert run_cli(["sigma", "--trunc", "62", "--method", "bogus"])[0] == 2


@pytest.mark.parametrize("name", ["algebraic", "relation"])
def test_sigma_route_disagreement_exits_one(monkeypatch, name):
    def flipped(n):
        return GroupElement(sigma_closed(n).series + Series.from_terms(2, n, {17: 1}))
    monkeypatch.setitem(cli._SIGMA_ROUTES, name, flipped)
    assert run_cli(["sigma", "--trunc", "40"]) == (
        1, "", f"route disagreement: closed vs {name} at exponent 17\n")


def test_sigma_at_lowest_precisions():
    for n in ("2", "3"):
        code, out, err = run_cli(["sigma", "--trunc", n])
        assert (code, err) == (0, "")
        assert Series.from_text(out) == sigma_closed(int(n)).series


def test_precision_cap_is_a_usage_error(tmp_path):
    huge = write(tmp_path / "huge.txt", f"p=2 N={10 ** 15}\n1:1 3:1\n")
    for argv in (
        ["depth", "--in", huge],
        ["order", "--in", huge],
        ["sigma", "--trunc", str(10 ** 15)],
        ["verify", "--trunc", str(MAX_TRUNC + 1)],
        ["klopsch", "-p", "3", "-m", "1", "-a", "1", "--trunc", str(10 ** 15)],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("error:"), argv


def test_oversized_coefficients_are_reduced(tmp_path):
    f = write(tmp_path / "f.txt", f"p=3 N=4\n1:1 2:{10 ** 30}\n")
    assert run_cli(["depth", "--in", f]) == (0, "1\n", "")


def test_klopsch_byte_exact():
    code, out, err = run_cli(["klopsch", "-p", "3", "-m", "1", "-a", "1", "--trunc", "5"])
    assert (code, err) == (0, "")
    assert out == "p=3 N=5\n1:1 2:1 3:1 4:1 5:1\n"


def test_klopsch_usage_errors():
    assert run_cli(["klopsch", "-p", "4", "-m", "1", "-a", "1", "--trunc", "5"])[0] == 2
    assert run_cli(["klopsch", "-p", "3", "-m", "3", "-a", "1", "--trunc", "5"])[0] == 2
    assert run_cli(["klopsch", "-p", "3", "-m", "1", "-a", "0", "--trunc", "5"])[0] == 2
    assert run_cli(["klopsch", "-p", "3", "-m", "4", "-a", "1", "--trunc", "3"])[0] == 2


# ----------------------------------------------------------------------
# verify

def test_verify_1024_passes_byte_exact():
    code, out, err = run_cli(["verify", "--trunc", "1024"])
    assert (code, err) == (0, "")
    assert out == (
        "artin_schreier: PASS\n"
        "factorization: PASS\n"
        "ring_relation: PASS\n"
        "equivariance: PASS\n"
        "order_four: PASS\n"
        "route_agreement: PASS\n"
    )


def test_verify_requires_trunc_or_candidate():
    assert run_cli(["verify"])[0] == 2
    assert run_cli(["verify", "--trunc", "7"])[0] == 2


def test_verify_candidate_file_roundtrip(tmp_path):
    path = write(tmp_path / "sigma.txt", run_cli(["sigma", "--trunc", "64"])[1])
    code, out, _ = run_cli(["verify", "--sigma", path])
    assert code == 0
    assert out.count("PASS") == 6


def test_verify_corrupted_candidate_fails(tmp_path):
    honest = run_cli(["sigma", "--trunc", "64"])[1]
    corrupted = honest.replace(" 6:1", "")
    path = write(tmp_path / "bad.txt", corrupted)
    code, out, _ = run_cli(["verify", "--sigma", path])
    assert code == 1
    assert "equivariance: FAIL first_failure_exponent=8" in out
    assert "order_four: FAIL first_failure_exponent=16" in out
    assert "route_agreement: FAIL first_failure_exponent=6" in out
    assert "artin_schreier: PASS" in out


def test_verify_candidate_trunc_mismatch(tmp_path):
    path = write(tmp_path / "sigma.txt", run_cli(["sigma", "--trunc", "64"])[1])
    assert run_cli(["verify", "--sigma", path, "--trunc", "128"])[0] == 2
    assert run_cli(["verify", "--sigma", path, "--trunc", "64"])[0] == 0


def test_verify_candidate_wrong_characteristic(tmp_path):
    path = write(tmp_path / "odd.txt", "p=3 N=64\n1:1\n")
    assert run_cli(["verify", "--sigma", path])[0] == 2


# ----------------------------------------------------------------------
# file-based subcommands

def test_compose_power_inverse_consistency(tmp_path):
    sigma_path = write(tmp_path / "sigma.txt", run_cli(["sigma", "--trunc", "62"])[1])
    squared = run_cli(["compose", "--lhs", sigma_path, "--rhs", sigma_path])
    powered = run_cli(["power", "--in", sigma_path, "-k", "2"])
    assert squared == powered
    assert squared[0] == 0

    inv_out = run_cli(["inverse", "--in", sigma_path])[1]
    cubed = run_cli(["power", "--in", sigma_path, "-k", "3"])[1]
    assert inv_out == cubed  # order 4: inverse equals third power

    inv_path = write(tmp_path / "inv.txt", inv_out)
    code, out, _ = run_cli(["compose", "--lhs", sigma_path, "--rhs", inv_path])
    assert code == 0
    assert Series.from_text(out) == identity(2, 62).series


def test_power_zero_gives_identity(tmp_path):
    path = write(tmp_path / "sigma.txt", run_cli(["sigma", "--trunc", "10"])[1])
    code, out, _ = run_cli(["power", "--in", path, "-k", "0"])
    assert code == 0
    assert out == "p=2 N=10\n1:1\n"


def test_power_rejects_negative_exponent(tmp_path):
    path = write(tmp_path / "sigma.txt", run_cli(["sigma", "--trunc", "10"])[1])
    assert run_cli(["power", "--in", path, "-k", "-1"]) == (
        2, "", "error: negative powers: use inverse() first\n")


def test_power_with_a_4000_digit_exponent(tmp_path):
    # "1" * 4000 is 3 mod 4, so the power is sigma's inverse; k is reduced
    # mod the period 2^7 >= N + 1 before any composition
    path = write(tmp_path / "sigma.txt", run_cli(["sigma", "--trunc", "64"])[1])
    code, out, err = run_cli(["power", "--in", path, "-k", "1" * 4000])
    assert (code, err) == (0, "")
    assert out == run_cli(["inverse", "--in", path])[1]


def test_order_and_depth(tmp_path):
    sigma_path = write(tmp_path / "sigma.txt", run_cli(["sigma", "--trunc", "62"])[1])
    assert run_cli(["order", "--in", sigma_path]) == (0, "4\n", "")
    assert run_cli(["depth", "--in", sigma_path]) == (0, "1\n", "")

    ident_path = write(tmp_path / "id.txt", identity(2, 16).series.to_text())
    assert run_cli(["order", "--in", ident_path]) == (0, "1\n", "")
    assert run_cli(["depth", "--in", ident_path]) == (0, "inf\n", "")


def test_order_exit_one_when_cap_exhausted(tmp_path):
    path = write(tmp_path / "sigma.txt", run_cli(["sigma", "--trunc", "62"])[1])
    code, out, err = run_cli(["order", "--in", path, "--cap", "2"])
    assert code == 1
    assert out == ""
    assert "no p-power order" in err


def test_corrupting_input_file_flips_order(tmp_path):
    honest = run_cli(["sigma", "--trunc", "64"])[1]
    path = write(tmp_path / "sigma.txt", honest)
    assert run_cli(["order", "--in", path]) == (0, "4\n", "")

    corrupted_path = write(tmp_path / "bad.txt", honest.replace(" 6:1", ""))
    code, out, _ = run_cli(["order", "--in", corrupted_path])
    assert (code, out) == (0, "16\n")  # deterministic flip: 4 -> 16


def test_series_files_must_be_group_elements(tmp_path):
    not_normalized = write(tmp_path / "f.txt", "p=2 N=8\n0:1 1:1\n")
    assert run_cli(["depth", "--in", not_normalized])[0] == 2
    missing_linear = write(tmp_path / "g.txt", "p=2 N=8\n2:1\n")
    assert run_cli(["order", "--in", missing_linear])[0] == 2


def test_compose_context_mismatch(tmp_path):
    a = write(tmp_path / "a.txt", run_cli(["sigma", "--trunc", "16"])[1])
    b = write(tmp_path / "b.txt", run_cli(["sigma", "--trunc", "32"])[1])
    assert run_cli(["compose", "--lhs", a, "--rhs", b])[0] == 2


def test_malformed_or_missing_files(tmp_path):
    bad = write(tmp_path / "bad.txt", "not a series\n")
    assert run_cli(["depth", "--in", bad])[0] == 2
    assert run_cli(["depth", "--in", str(tmp_path / "absent.txt")])[0] == 2


@pytest.mark.parametrize("text", [
    "p=+2 N=10\n1:1\n",
    "p=2 N=1_0\n1:1\n",
    "p=2 N=10\n+1:+1\n",
    "p=2 N=10\n1:1 2:1_1\n",
    f"p=2 N=10\n1:1 {'9' * 5000}:1\n",
    f"p=2 N=10\n1:1 2:{'7' * 5000}\n",
    f"p=2 N=10\n1:1 2:{'1' * 4301}\n",
], ids=["plus-p", "underscore-N", "plus-term", "underscore-coefficient",
        "huge-exponent", "huge-coefficient", "coefficient-past-the-int-digit-limit"])
def test_loose_or_huge_numbers_are_one_short_error(tmp_path, text):
    path = write(tmp_path / "f.txt", text)
    code, out, err = run_cli(["depth", "--in", path])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:") and len(err) < 150


@pytest.mark.parametrize("argv", [
    ["sigma", "--trunc", "1_0", "--method", "closed"],
    ["sigma", "--trunc", "\u0663"],
    ["sigma", "--trunc", "9" * 3000],
    ["verify", "--trunc", "+64"],
    ["klopsch", "-p", "+3", "-m", "1", "-a", "1", "--trunc", "5"],
    ["klopsch", "-p", "3", "-m", "1_0", "-a", "1", "--trunc", "50"],
    ["klopsch", "-p", "3", "-m", "1", "-a", "1.0", "--trunc", "5"],
    ["power", "--in", "@f", "-k", "\u0663"],
    ["order", "--in", "@f", "--cap", "1e3"],
    ["klopsch", "-p", "3", "-m", "1" * 3000, "-a", "1", "--trunc", "10"],
    ["klopsch", "-p", "3", "-m", "1" * 3001, "-a", "1", "--trunc", "10"],
    ["power", "--in", "@f", "-k", "1" * 4301],
], ids=["underscore-trunc", "arabic-digit-trunc", "huge-trunc", "plus-trunc", "plus-p",
        "underscore-m", "float-a", "arabic-digit-k", "float-cap", "huge-m-divisible-by-p",
        "huge-m-prime-to-p", "k-past-the-int-digit-limit"])
def test_loose_or_huge_flags_are_one_short_error(tmp_path, argv):
    # integer flags read the file grammar: ASCII digits, capped for N and p
    path = write(tmp_path / "sigma.txt", SIGMA62_TEXT)
    code, out, err = run_cli([path if a == "@f" else a for a in argv])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:") and len(err) < 150


def test_digits_past_the_int_limit_are_named(tmp_path):
    """A token of ASCII digits that int() will not convert, past Python's
    limit on digits, reports that limit, not "need ASCII digits"."""
    sigma = write(tmp_path / "sigma.txt", SIGMA62_TEXT)
    path = write(tmp_path / "f.txt", f"p=2 N=10\n1:1 2:{'1' * 4301}\n")
    for argv in (["power", "--in", sigma, "-k", "1" * 4301], ["depth", "--in", path]):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "") and len(err.splitlines()) == 1 and len(err) < 150
        assert f"over {sys.get_int_max_str_digits()} digits" in err and "ASCII" not in err, err


# ----------------------------------------------------------------------
# top-level usage

USAGE_ERRORS = [
    [],
    ["frobnicate"],
    ["x" * 5000],
    ["sigma"],
    ["sigma", "--trunc", "8", "--method", "bogus"],
    ["sigma", "--trunc", "8", "--method", "y" * 5000],
    ["verify", "--trunc", "8", "--extra"],
    ["power", "--in", "F"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=[
    "no-subcommand", "unknown-subcommand", "huge-subcommand", "missing-flag",
    "bad-choice", "huge-choice", "extra-argument", "missing-k"])
def test_usage_errors(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:") and len(err) < 150


def test_help_exits_zero():
    assert run_cli(["--help"])[0] == 0


def test_output_reparses_to_library_value(tmp_path):
    out = run_cli(["sigma", "--trunc", "62"])[1]
    assert Series.from_text(out) == sigma_closed(62).series


# ----------------------------------------------------------------------
# flags only on the named subcommand's parser

def full_parser(argv):
    """The parser with every subcommand's flags, whatever argv names."""
    parser = cli._Parser(prog="nottingham",
                         description="Exact Nottingham-group computations over small prime fields.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, flags, handler) in cli._COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        for flag, kw in flags:
            cmd.add_argument(flag, **kw)
        cmd.set_defaults(func=handler)
    return parser


# The hostile inputs of perfbench's cli_small pool, at N = 12: (argv, files).
HOSTILE = [
    (["depth", "--in", "@f"], {"f": "p=2 N=1000000000000000\n1:1 5:1\n"}),
    (["order", "--in", "@f"], {"f": "p=3 N=1000000000000000\n1:1 2:2\n"}),
    (["depth", "--in", "@f"], {"f": "p=2 M=12\n1:1\n"}),
    (["inverse", "--in", "@f"], {"f": "p=4 N=12\n1:1 2:1\n"}),
    (["power", "--in", "@f", "-k", "2"], {"f": "p=3 N=12\n1:2 3:1\n"}),
    (["depth", "--in", "@f"], {"f": "p=2 N=12\n1:1 5:1 3:1\n"}),
    (["inverse", "--in", "@f"], {"f": "p=5 N=12\n1:1 13:2\n"}),
    (["compose", "--lhs", "@f", "--rhs", "@g"], {"f": "p=2 N=12\n1:1 2:1 7:1\n",
                                                 "g": "p=3 N=12\n1:1 4:2\n"}),
    (["klopsch", "-p", "3", "-m", "6", "-a", "1", "--trunc", "12"], {}),
    (["verify", "--trunc", "5"], {}),
]
IDENTITY_ARGVS = (
    [[], ["-h"], ["--help"], ["-h", "verify"], ["--", "verify", "--trunc", "8"]]
    + [[name, "--help"] for name in cli._COMMANDS] + USAGE_ERRORS
    + [["verify", "--trunc", "8"], ["sigma", "--trunc", "62", "--method", "closed"],
       ["klopsch", "-p", "5", "-m", "2", "-a", "3", "--trunc", "20"]])


@pytest.mark.parametrize("argv, files", [(argv, {}) for argv in IDENTITY_ARGVS] + HOSTILE)
def test_output_is_the_full_parsers(monkeypatch, tmp_path, argv, files):
    """stdout, stderr and exit code are those of a parser that gives every
    subcommand its flags: help, usage and error text included."""
    paths = {"@" + key: write(tmp_path / f"{key}.txt", text) for key, text in files.items()}
    resolved = [paths.get(a, a) for a in argv]
    got = run_cli(resolved)
    assert got[0] == 2 or (argv, files) not in HOSTILE
    monkeypatch.setattr(cli, "_build_parser", full_parser)
    assert got == run_cli(resolved)


def test_only_the_named_subcommand_gets_flags():
    """Every subparser is built; the named one alone carries flags (beyond -h)."""
    subs = cli._build_parser(["-h", "power", "verify"])._subparsers._group_actions[0].choices
    assert list(subs) == list(cli._COMMANDS)
    assert {name for name, p in subs.items() if len(p._actions) > 1} == {"power"}
