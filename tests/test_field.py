import pytest

from nottingham import check_prime

PRIMES = [2, 3, 5, 7, 13, 257]


def test_check_prime_accepts_supported_primes():
    for p in PRIMES:
        assert check_prime(p) == p


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 100, 258, 263, -7])
def test_check_prime_rejects(bad):
    with pytest.raises(ValueError):
        check_prime(bad)


def test_check_prime_rejects_non_int():
    with pytest.raises(TypeError):
        check_prime(7.0)
    with pytest.raises(TypeError):
        check_prime(True)
