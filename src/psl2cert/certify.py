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

A certificate records every residue it relied on together with the exact
rational witness data, so an independent checker can re-verify it without
recomputing any point counts.  The reduction from these residue conditions
to actual surjectivity onto PSL2(F_l) is external to this artifact.

The recorded discriminant, and with it the cartan `separability` residue, is
0 for every witness p = 1 (mod 4): P_p is a square there, so that residue
asserts nothing for such witnesses.  Recording something meaningful instead
changes certificate bytes and needs a new certificate format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .gf import OutOfRangeError
from .lpoly import LPolynomial, SquareShape, lpolynomial, shape_classify
from .modarith import is_prime, primes_in_range
from .qpoly import Q, QPolynomial, frac_str, parse_frac, reduce_mod, reduce_poly_mod

# Unused here; kept because perfbench's traced worker wraps these two names.
from .qpoly import discriminant, nth_power_poly  # noqa: F401

MIN_ELL = 11

# (eps, e) choices of the borel branch, in fixed order
BOREL_POINTS = ((1, 0), (-1, 0), (1, 1), (-1, 1))

EXCEPTIONAL_TRACE_SET = (0, 1, 2, 4)


class CertificateError(ValueError):
    """A certificate failed independent re-verification."""


@dataclass(frozen=True)
class WitnessData:
    """Exact per-witness inputs: P_p, its fourth power transform, the
    trace-square invariant, and the four borel evaluation values."""

    p: int
    lp: LPolynomial
    p4: QPolynomial
    u: Fraction
    borel_values: tuple[Fraction, ...]  # P4 at eps * p^(4e), BOREL_POINTS order
    disc: Fraction  # discriminant of P_p; 0 whenever p = 1 (mod 4)

    @staticmethod
    def from_lpolynomial(lp: LPolynomial) -> "WitnessData":
        """Closed form in s = shape.b, with no power sums or resultants.

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

    def failed_branches(self) -> list[str]:
        out = []
        for name in ("borel", "cartan", "exceptional"):
            if not getattr(self, name).eliminated:
                out.append(name)
        return out


def _validate(ell: int, witnesses: tuple[int, ...]):
    if not is_prime(ell):
        raise ValueError(f"l = {ell} is not prime")
    if ell < MIN_ELL:
        raise OutOfRangeError(f"l = {ell} is below the certifiable range (l >= {MIN_ELL})")
    if not witnesses:
        raise ValueError("witness set is empty")
    for p in witnesses:
        if not is_prime(p) or p == 2:
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
    residues = tuple(
        (wd.p, tuple((*pt, reduce_mod(v, ell)) for pt, v in zip(BOREL_POINTS, wd.borel_values)))
        for wd in data
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
    reductions = tuple((wd.p, reduce_poly_mod(wd.p4, ell, 5)) for wd in data)
    separability = tuple((wd.p, reduce_mod(wd.disc, ell)) for wd in data)
    by, failed = _first_passing(reductions, lambda red: red not in excluded)
    return CartanRecord(by, reductions, separability, failed)


def eliminate_exceptional(ell: int, data: list[WitnessData]) -> ExceptionalRecord:
    """Some witness must have u_p mod l outside {0, 1, 2, 4} and not a root
    of u^2 - 3u + 1."""
    small = {x % ell for x in EXCEPTIONAL_TRACE_SET}
    values = tuple((wd.p, reduce_mod(wd.u, ell)) for wd in data)
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
    data is computed once and reduced per l."""
    if not MIN_ELL <= ell_min <= ell_max:
        raise OutOfRangeError(f"need {MIN_ELL} <= ell_min <= ell_max")
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
            {
                "p": str(wd.p),
                "a": frac_str(wd.lp.a),
                "b": frac_str(wd.lp.b),
                "p4": [frac_str(wd.p4[i]) for i in range(5)],
                "u": frac_str(wd.u),
                "disc": frac_str(wd.disc),
            }
            for wd in cert.witness_data
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


def certificate_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), sort_keys=True, separators=(",", ":"))


def verify_certificate(doc: dict) -> bool:
    """Independent checker: re-derive every stored residue from the exact
    rationals in the certificate and re-run the elimination logic.  Never
    recounts points."""
    try:
        _verify(doc)
        return True
    except (CertificateError, KeyError, ValueError, ArithmeticError, TypeError):
        return False


def _verify(doc: dict):
    ell = int(doc["ell"])
    data = []
    for w in doc["witness_data"]:
        p = int(w["p"])
        lp = LPolynomial(p, parse_frac(w["a"]), parse_frac(w["b"]))
        data.append(WitnessData.from_lpolynomial(lp))
    fresh = certify_with_data(ell, data)
    if certificate_to_dict(fresh) != doc:
        raise CertificateError("stored residues disagree with recomputation")
