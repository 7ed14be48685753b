"""Point counting, exact L-polynomials, orthogonal/tensor group machinery
over F_l, and PSL2(F_l) surjectivity certificates for a fixed elliptic
surface."""

from .certify import (
    Certificate,
    RangeReport,
    WitnessData,
    certify,
    certify_range,
    verify_certificate,
)
from .gf import FieldCtx, fq_ctx
from .lpoly import LPolynomial, lpolynomial, shape_classify, trace_sum
from .qpoly import QPolynomial, nth_power_poly, power_sums, reduce_mod

__all__ = [
    "Certificate",
    "FieldCtx",
    "LPolynomial",
    "QPolynomial",
    "RangeReport",
    "WitnessData",
    "certify",
    "certify_range",
    "fq_ctx",
    "lpolynomial",
    "nth_power_poly",
    "power_sums",
    "reduce_mod",
    "shape_classify",
    "trace_sum",
    "verify_certificate",
]
