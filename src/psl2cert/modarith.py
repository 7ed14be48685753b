"""Shared modular-arithmetic helpers: primality, a prime sieve, Legendre
symbols and square roots mod p.  Inverses mod p are `pow(a, -1, p)`."""

from __future__ import annotations

from bisect import bisect_right

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the least strong pseudoprime to the first k prime bases (OEIS A014233)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321, 341550071728321,
        3825123056546413051, 3825123056546413051, 3825123056546413051, 318665857834031151167461,
        3317044064679887385961981)


class OutOfRangeError(ValueError):
    """A request beyond a supported size: an integer too large for exact
    primality, a field larger than the character table (which also bounds
    Full mode), or l below the certifiable range."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first k prime bases, k the least
    with n < psi_k; exact below psi_13 ~ 3.3e24, OutOfRangeError above."""
    if n >= _PSI[-1]:
        raise OutOfRangeError(f"{n} is too large for exact primality testing, which needs n < {_PSI[-1]}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES[: bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, ascending."""
    if hi < 2:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(hi**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(max(lo, 2), hi + 1) if sieve[i]]


def legendre(a: int, p: int) -> int:
    """Quadratic-residue symbol of a mod an odd prime p: -1, 0 or +1."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo the odd prime p (Tonelli-Shanks).

    Raises ValueError if a is a non-residue.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise ValueError(f"{a} is not a square modulo {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r

