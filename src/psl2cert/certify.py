"""Maximal-subgroup elimination and machine-checkable surjectivity
certificates.

For a prime l >= 11 and a set of witness primes p with exact L-polynomial
data, three branches are eliminated by pure residue arithmetic:

  borel        some witness has P_p^(4)(eps * p^(4e)) nonzero mod l for all
               four choices of (eps, e) in {+-1} x {0, 1};
  cartan       some witness has P_p^(4) mod l equal to neither (1-T)^4 nor
               (1+T)^4 (the split case is subsumed by the borel branch);
  exceptional  some witness has u_p mod l outside {0, 1, 2, 4} with
               u_p^2 - 3 u_p + 1 nonzero.

u_p is `shape.u` from `lpoly`; `eliminate_exceptional` is the one place it
is reduced mod l.

A certificate records every residue it relied on together with the exact
rational witness data, so an independent checker can re-verify it without
recomputing any point counts.  The reduction from these residue conditions
to actual surjectivity onto PSL2(F_l) is external to this artifact.

Everything that does not depend on l is done once per distinct witness and
process: `WitnessData.from_lpolynomial` is memoised on its `LPolynomial`,
each witness holds its values as integers over one common denominator D
and its JSON strings, and the checker parses each distinct (p, a, b) once.
Only the residues are computed per l, in certifying and in checking alike.
Each of the three branches takes its own inverse of D mod l per witness, so
an l costs three inverses per witness, and a branch run alone still rejects
a D that l divides.

The recorded discriminant, and with it the cartan `separability` residue, is
0 for every witness p = 1 (mod 4): P_p is a square there, so that residue
asserts nothing for such witnesses.  Recording something meaningful instead
changes certificate bytes and needs a new certificate format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import NamedTuple

from .lpoly import LPolynomial, SquareShape, lpolynomial, shape_classify
from .modarith import OutOfRangeError, is_prime, primes_in_range
from .qpoly import DenominatorDivisibleError, Q, QPolynomial, frac_str, parse_frac

# Unused here; kept because perfbench's traced worker wraps these two names.
from .qpoly import discriminant, nth_power_poly  # noqa: F401

MIN_ELL = 11
MAX_RANGE_ELL = 10**6  # certify_range's bound on ell_max; see its docstring

# (eps, e) choices of the borel branch, in fixed order
BOREL_POINTS = ((1, 0), (-1, 0), (1, 1), (-1, 1))

EXCEPTIONAL_TRACE_SET = (0, 1, 2, 4)

WITNESS_MEMO_SIZE = 64  # distinct witnesses kept by each memo below


class CertificateError(ValueError):
    """A certificate failed independent re-verification."""


class _Scaled(NamedTuple):
    """A witness's values as integers over one common denominator."""

    den: int
    borel: tuple[int, ...]
    p4: tuple[int, ...]
    disc: int
    u: int


@dataclass(frozen=True)
class WitnessData:
    """Exact per-witness inputs: P_p, its fourth power transform, u_p,
    and the four borel evaluation values."""

    p: int
    lp: LPolynomial
    p4: QPolynomial
    u: Fraction
    borel_values: tuple[Fraction, ...]  # P4 at eps * p^(4e), BOREL_POINTS order
    disc: Fraction  # discriminant of P_p; 0 whenever p = 1 (mod 4)

    @staticmethod
    @lru_cache(maxsize=WITNESS_MEMO_SIZE)
    def from_lpolynomial(lp: LPolynomial) -> "WitnessData":
        """Closed form in s = shape.b, with no power sums or resultants;
        memoised on lp, so equal inputs share one (immutable) result.

        The squares of the inverse roots of P_p are beta, conj(beta), each
        twice, with beta conj(beta) = 1 and beta + conj(beta) = s^2 - 2
        (square shape, P_p = (1 + sT + T^2)^2) or 2 - s^2 (biquadratic,
        P_p = 1 + (s^2 - 2)T^2 + T^4).  So P_p^(4) = (1 - c4 T + T^2)^2 with
        c4 = beta^2 + conj(beta)^2 = (s^2 - 2)^2 - 2 in both classes.  A
        square has disc 0; the biquadratic P_p is (1 + rT + T^2)(1 - rT + T^2)
        with r^2 = 4 - s^2, so disc = (r^2 - 4)^2 (4 r^2)^2 = 16 s^4 (s^2 - 4)^2.
        """
        shape = shape_classify(lp)
        u = shape.u  # s^2
        c4 = (u - 2) ** 2 - 2
        p4 = QPolynomial([1, -2 * c4, c4 * c4 + 2, -2 * c4, 1])
        num, den = c4.numerator, c4.denominator  # (1 - c4 x + x^2)^2 in one Fraction
        points = (eps * lp.p ** (4 * e) for eps, e in BOREL_POINTS)
        values = tuple(Q((den * (1 + x * x) - num * x) ** 2, den * den) for x in points)
        disc = Q(0) if isinstance(shape, SquareShape) else 16 * u * u * (u - 4) ** 2
        return WitnessData(lp.p, lp, p4, u, values, disc)

    @staticmethod
    def from_prime(p: int) -> "WitnessData":
        return WitnessData.from_lpolynomial(lpolynomial(p))

    @cached_property
    def scaled(self) -> _Scaled:
        """Every value reduced by the eliminations, as an integer over the
        least common denominator D (a power of p for real witness data)."""
        values = (*self.borel_values, *self.p4.coeffs, self.disc, self.u)
        den = lcm(*(x.denominator for x in values))
        nums = tuple(x.numerator * (den // x.denominator) for x in values)
        return _Scaled(den, nums[:4], nums[4:-2], nums[-2], nums[-1])

    @cached_property
    def json_strings(self) -> tuple:
        """(p, a, b, p4, u, disc) as the certificate writes them; p4 is a
        tuple of five strings."""
        a, b, u, disc = (frac_str(x) for x in (self.lp.a, self.lp.b, self.u, self.disc))
        return str(self.p), a, b, tuple(frac_str(self.p4[i]) for i in range(5)), u, disc

    def den_inverse(self, ell: int) -> int:
        """D^-1 mod l, the one inverse each elimination takes per witness."""
        den = self.scaled.den
        if den % ell == 0:
            raise DenominatorDivisibleError(
                f"denominator {den} of witness {self.p} is divisible by {ell}; invalid witness/l pairing"
            )
        return pow(den, -1, ell)


@dataclass(frozen=True)
class _BranchRecord:
    eliminated_by: int | None  # the first witness that passes the branch test

    @property
    def eliminated(self) -> bool:
        return self.eliminated_by is not None


@dataclass(frozen=True)
class BorelRecord(_BranchRecord):
    witness_residues: tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]
    failed: tuple[int, ...]


@dataclass(frozen=True)
class CartanRecord(_BranchRecord):
    witness_reductions: tuple[tuple[int, tuple[int, ...]], ...]
    separability: tuple[tuple[int, int], ...]  # disc(P_p) mod l per witness
    failed: tuple[int, ...]


@dataclass(frozen=True)
class ExceptionalRecord(_BranchRecord):
    witness_u: tuple[tuple[int, int], ...]
    failed: tuple[int, ...]


@dataclass(frozen=True)
class Certificate:
    ell: int
    witnesses: tuple[int, ...]
    borel: BorelRecord
    cartan: CartanRecord
    exceptional: ExceptionalRecord
    witness_data: tuple[WitnessData, ...]

    @property
    def verdict(self) -> str:
        records = (self.borel, self.cartan, self.exceptional)
        return "Certified" if all(r.eliminated for r in records) else "Inconclusive"


@lru_cache(maxsize=WITNESS_MEMO_SIZE)
def _non_odd_primes(witnesses: tuple[int, ...]) -> frozenset[int]:
    """The witnesses that are not odd primes: tested once per distinct
    witness tuple, not once per l."""
    return frozenset(p for p in witnesses if not is_prime(p) or p == 2)


def _validate(ell: int, witnesses: tuple[int, ...]):
    if not is_prime(ell):
        raise ValueError(f"l = {ell} is not prime")
    if ell < MIN_ELL:
        raise OutOfRangeError(f"l = {ell} is below the certifiable range (l >= {MIN_ELL})")
    if not witnesses:
        raise ValueError("witness set is empty")
    bad = _non_odd_primes(witnesses)
    for p in witnesses:
        if p in bad:
            raise ValueError(f"witness {p} is not an odd prime")
        if p == ell:
            raise ValueError(f"witness {p} coincides with l")


def _first_passing(pairs, passes) -> tuple[int | None, tuple[int, ...]]:
    """(eliminated_by, failed) from the per-witness (p, residue) pairs: the
    first p whose residue passes the branch test, or None, and every p whose
    residue fails it, in witness order."""
    eliminated_by, failed = None, []
    for p, residue in pairs:
        if not passes(residue):
            failed.append(p)
        elif eliminated_by is None:
            eliminated_by = p
    return eliminated_by, tuple(failed)


def eliminate_borel(ell: int, data: list[WitnessData]) -> BorelRecord:
    """One witness whose four evaluations are all nonzero mod l suffices."""
    invs = [wd.den_inverse(ell) for wd in data]
    residues = tuple(
        (wd.p, tuple((*pt, n * inv % ell) for pt, n in zip(BOREL_POINTS, wd.scaled.borel)))
        for wd, inv in zip(data, invs)
    )
    by, failed = _first_passing(residues, lambda res: all(r for _, _, r in res))
    return BorelRecord(by, residues, failed)


_EXCLUDED_QUARTICS = ((1, 4, 6, 4, 1), (1, -4, 6, -4, 1))  # (1 + T)^4, (1 - T)^4


def eliminate_cartan(ell: int, data: list[WitnessData]) -> CartanRecord:
    """Non-split branch: some witness has P_p^(4) mod l equal to neither
    (1 - T)^4 nor (1 + T)^4.  disc(P_p) mod l is recorded per witness as the
    separability fact for the normalizer-coset argument; it is 0, and says
    nothing, for every witness p = 1 (mod 4), whose P_p is a square."""
    excluded = [tuple(c % ell for c in f) for f in _EXCLUDED_QUARTICS]
    invs = [wd.den_inverse(ell) for wd in data]
    reductions = tuple((wd.p, tuple(n * inv % ell for n in wd.scaled.p4)) for wd, inv in zip(data, invs))
    separability = tuple((wd.p, wd.scaled.disc * inv % ell) for wd, inv in zip(data, invs))
    by, failed = _first_passing(reductions, lambda red: red not in excluded)
    return CartanRecord(by, reductions, separability, failed)


def eliminate_exceptional(ell: int, data: list[WitnessData]) -> ExceptionalRecord:
    """Some witness must have u_p mod l outside {0, 1, 2, 4} and not a root
    of u^2 - 3u + 1."""
    small = {x % ell for x in EXCEPTIONAL_TRACE_SET}
    values = tuple((wd.p, wd.scaled.u * wd.den_inverse(ell) % ell) for wd in data)
    by, failed = _first_passing(values, lambda u: u not in small and (u * u - 3 * u + 1) % ell != 0)
    return ExceptionalRecord(by, values, failed)


def certify_with_data(ell: int, data: list[WitnessData]) -> Certificate:
    witnesses = tuple(wd.p for wd in data)
    _validate(ell, witnesses)
    return Certificate(
        ell,
        witnesses,
        eliminate_borel(ell, data),
        eliminate_cartan(ell, data),
        eliminate_exceptional(ell, data),
        tuple(data),
    )


def certify(ell: int, witnesses=(3, 5)) -> Certificate:
    """Run the three-branch elimination for one l; witnesses default to the
    smallest usable primes 3 and 5."""
    witnesses = tuple(witnesses)
    _validate(ell, witnesses)
    data = [WitnessData.from_prime(p) for p in witnesses]
    return certify_with_data(ell, data)


@dataclass(frozen=True)
class RangeReport:
    """Certificates for a prime range, with per-l errors aggregated rather
    than aborting the sweep (a witness prime inside the range, say).
    Iterating yields the certificates in ascending l."""

    certificates: tuple[Certificate, ...]
    errors: tuple[tuple[int, str], ...]

    def __iter__(self):
        return iter(self.certificates)

    def __len__(self) -> int:
        return len(self.certificates)

    @property
    def certified_count(self) -> int:
        return sum(1 for c in self.certificates if c.verdict == "Certified")

    @property
    def all_certified(self) -> bool:
        return not self.errors and self.certified_count == len(self.certificates)


def certify_range(ell_min: int, ell_max: int, witnesses=(3, 5)) -> RangeReport:
    """Certify every prime in [ell_min, ell_max], ascending; the witness
    data is computed once and reduced per l.

    ell_max is capped at MAX_RANGE_ELL = 10^6 because the report holds every
    certificate, about 2.7 KB each; `certify --json` writes the documents one
    at a time and holds no more.  The 78,498 primes below 10^6 take about
    0.2 GB; the 664,579 below 10^7 would take 1.8 GB.
    """
    if not MIN_ELL <= ell_min <= ell_max:
        raise OutOfRangeError(f"need {MIN_ELL} <= ell_min <= ell_max")
    if ell_max > MAX_RANGE_ELL:
        raise OutOfRangeError(f"ell_max {ell_max} is above the {MAX_RANGE_ELL} range bound")
    if not witnesses:
        raise ValueError("witness set is empty")
    data = [WitnessData.from_prime(p) for p in witnesses]
    certs: list[Certificate] = []
    errors: list[tuple[int, str]] = []
    for ell in primes_in_range(ell_min, ell_max):
        try:
            certs.append(certify_with_data(ell, data))
        except ValueError as exc:
            errors.append((ell, str(exc)))
    return RangeReport(tuple(certs), tuple(errors))


# ---------------------------------------------------------------------------
# serialization: every integer as a decimal string, every rational "num/den"


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "ell": str(cert.ell),
        "verdict": cert.verdict,
        "witnesses": [str(p) for p in cert.witnesses],
        "witness_data": [
            {"p": p, "a": a, "b": b, "p4": list(p4), "u": u, "disc": disc}
            for p, a, b, p4, u, disc in (wd.json_strings for wd in cert.witness_data)
        ],
        "borel": {
            "eliminated_by": None if cert.borel.eliminated_by is None else str(cert.borel.eliminated_by),
            "residues": [
                {
                    "p": str(p),
                    "values": [[str(eps), str(e), str(r)] for eps, e, r in res],
                }
                for p, res in cert.borel.witness_residues
            ],
            "failed": [str(p) for p in cert.borel.failed],
        },
        "cartan": {
            "eliminated_by": None if cert.cartan.eliminated_by is None else str(cert.cartan.eliminated_by),
            "reductions": [
                {"p": str(p), "p4_mod_ell": [str(c) for c in red]}
                for p, red in cert.cartan.witness_reductions
            ],
            "separability": [[str(p), str(d)] for p, d in cert.cartan.separability],
            "failed": [str(p) for p in cert.cartan.failed],
        },
        "exceptional": {
            "eliminated_by": None if cert.exceptional.eliminated_by is None else str(cert.exceptional.eliminated_by),
            "witness_u": [[str(p), str(u)] for p, u in cert.exceptional.witness_u],
            "failed": [str(p) for p in cert.exceptional.failed],
        },
    }


def verify_certificate(doc: dict) -> bool:
    """Independent checker: re-derive every stored residue from the exact
    rationals in the certificate and re-run the elimination logic.  Never
    recounts points."""
    try:
        _verify(doc)
        return True
    except (CertificateError, KeyError, ValueError, ArithmeticError, TypeError):
        return False


@lru_cache(maxsize=WITNESS_MEMO_SIZE)
def _parse_witness(p, a, b) -> LPolynomial:
    """The validated P_p of one stored (p, a, b); a value that is not
    hashable raises TypeError, and no failure is memoised."""
    return LPolynomial(int(p), parse_frac(a), parse_frac(b))


def _verify(doc: dict):
    ell = int(doc["ell"])
    data = [
        WitnessData.from_lpolynomial(_parse_witness(w["p"], w["a"], w["b"]))
        for w in doc["witness_data"]
    ]
    fresh = certify_with_data(ell, data)
    if certificate_to_dict(fresh) != doc:
        raise CertificateError("stored residues disagree with recomputation")
