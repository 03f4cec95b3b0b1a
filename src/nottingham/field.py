"""The prime fields F_p for small p.

An element of F_p is a plain int, kept canonical in [0, p), so equality is
plain value comparison.  The supported characteristics are primes up to
257, which keeps every field small enough to test exhaustively.
"""

PRIME_CAP = 257


def _is_int(x):
    """True for a Python int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _echo(x):
    """A caller's value in error text: repr cut to 40 characters, a huge int's size."""
    r = f"<int of {x.bit_length()} bits>" if _is_int(x) and x.bit_length() > 128 else repr(x)
    return r[:40] + "..." * (len(r) > 40)


def check_prime(p):
    """Return p unchanged if it is a prime with 2 <= p <= 257.

    Raises TypeError for non-integers and ValueError for composites or
    primes outside the supported range.  Deterministic trial division is
    exact for every value this cap allows.
    """
    if not _is_int(p):
        raise TypeError(f"characteristic must be an int, got {type(p).__name__}")
    if p < 2 or p > PRIME_CAP:
        raise ValueError(f"characteristic {_echo(p)} outside supported range [2, {PRIME_CAP}]")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"characteristic {p} is not prime")
        d += 1
    return p
