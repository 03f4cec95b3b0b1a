"""The console checks: each command runs as its own process, through the
installed `nottingham` script when it is on PATH and `python -m nottingham.cli`
otherwise.  Outputs are compared byte for byte, as `cmp` would compare them;
every command exits 0 except the hostile one, which exits 2 with one short
`error:` line and nothing on stdout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
SCRIPT = shutil.which("nottingham")
COMMAND = [SCRIPT] if SCRIPT else [sys.executable, "-m", "nottingham.cli"]


def console(*argv, code=0):
    """(stdout, stderr) bytes of one command, after asserting its exit code.
    The child gets an absolute src/ first on its path, so the source tree is
    what runs whatever the working directory."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run(COMMAND + list(argv), capture_output=True, env=env)
    assert proc.returncode == code, (argv[:6], proc.stderr[:300])
    return proc.stdout, proc.stderr


def saved(path, *argv):
    path.write_bytes(console(*argv)[0])
    return str(path)


@pytest.mark.parametrize("n", ["2048", "16384"])
def test_verify_prints_six_pass_lines(n):
    lines = console("verify", "--trunc", n)[0].decode().splitlines()
    assert len(lines) == 6 and all(ln.endswith(": PASS") for ln in lines), lines


def test_sigma_inverse_is_its_third_seventh_and_long_power(tmp_path):
    # sigma has order 4: 7 = 3 mod 4, and 4,000 ones = 11 = 3 mod 4, so the
    # long exponent is reduced mod 2^(N-1) before any composition
    s = saved(tmp_path / "s", "sigma", "--trunc", "200")
    inverse = console("inverse", "--in", s)[0]
    for k in ("3", "7", "1" * 4000):
        assert console("power", "--in", s, "-k", k)[0] == inverse, k[:8]


def test_order_7_inverse_is_its_sixth_and_13th_power(tmp_path):
    # order 7 at p = 7: the inverse runs Newton steps and elimination at odd p
    k7 = saved(tmp_path / "k7", "klopsch", "-p", "7", "-m", "2", "-a", "3", "--trunc", "200")
    inverse = console("inverse", "--in", k7)[0]
    for k in ("6", "13"):
        assert console("power", "--in", k7, "-k", k)[0] == inverse, k


def test_order_3_cube_is_t(tmp_path):
    # order 3 at p = 3, depth 4: the cube is exactly the identity t
    k3 = saved(tmp_path / "k3", "klopsch", "-p", "3", "-m", "4", "-a", "1", "--trunc", "200")
    assert console("order", "--in", k3)[0] == b"3\n"
    assert console("power", "--in", k3, "-k", "3")[0] == b"p=3 N=200\n1:1\n"


def test_hostile_m_is_one_short_error_line():
    out, err = console("klopsch", "-p", "3", "-m", "1" * 3000, "-a", "1", "--trunc", "10",
                       code=2)
    assert out == b""
    assert err.startswith(b"error:") and err.count(b"\n") == 1 and err.endswith(b"\n")
    assert len(err) < 150, err
