"""Primality: exact below psi_13, refused at and above it."""

import pytest

from psl2cert.modarith import OutOfRangeError, _MR_BASES, _PSI, is_prime, primes_in_range


def strong_probable_prime(n: int, a: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 1 << i, n) == n - 1 for i in range(1, r))


def test_is_prime_matches_the_sieve_below_a_million():
    primes = set(primes_in_range(0, 10**6))
    assert [n for n in range(10**6) if is_prime(n)] == sorted(primes)


@pytest.mark.parametrize("k", range(1, 13))
def test_each_psi_k_fools_k_bases_and_not_is_prime(k):
    psi = _PSI[k - 1]
    assert all(strong_probable_prime(psi, a) for a in _MR_BASES[:k])
    assert not is_prime(psi)


def test_known_factorizations_of_the_two_largest_psi():
    assert 399165290221 * 798330580441 == _PSI[11]
    assert 1287836182261 * 2575672364521 == _PSI[12]
    assert is_prime(399165290221) and is_prime(798330580441)


@pytest.mark.parametrize("n", [_PSI[12], _PSI[12] + 2, 10**30 + 57])
def test_is_prime_refuses_from_psi_13_on(n):
    with pytest.raises(OutOfRangeError, match="too large for exact primality"):
        is_prime(n)


def test_is_prime_just_below_psi_13():
    assert not is_prime(_PSI[12] - 1)  # even
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59) and not is_prime(2**64 + 1)
