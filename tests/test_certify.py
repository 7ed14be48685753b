"""The three elimination branches, certificates, and the checker."""

import json
from fractions import Fraction as Q

import pytest

from psl2cert.certify import (
    BOREL_POINTS,
    OutOfRangeError,
    WitnessData,
    certificate_json,
    certificate_to_dict,
    certify,
    certify_range,
    eliminate_borel,
    eliminate_cartan,
    eliminate_exceptional,
    verify_certificate,
)
from psl2cert.modarith import primes_in_range
from psl2cert.qpoly import QPolynomial, eval_exact, nth_power_poly, reduce_mod, reduce_poly_mod
from psl2cert.tensor import trace_square_invariant


def witness(p):
    return WitnessData.from_prime(p)


W3 = witness(3)
W5 = witness(5)


def test_witness_data_invariants():
    assert W3.p4 == nth_power_poly(W3.lp.as_qpoly(), 4)
    assert W3.u == Q(16, 9)
    assert W5.u == Q(4, 25)
    assert W3.borel_values == tuple(
        eval_exact(W3.p4, eps * Q(3) ** (4 * e)) for eps, e in BOREL_POINTS
    )
    assert W3.disc == Q(2**16 * 5**2, 3**8)


def test_borel_witness_3_at_11():
    rec = eliminate_borel(11, [W3])
    assert rec.eliminated_by == 3
    assert rec.failed == ()
    residues = dict(((eps, e), r) for eps, e, r in rec.witness_residues[0][1])
    # hand-checked: 102400/6561 = 1 * inverse(5) = 9 mod 11
    assert residues[(1, 0)] == 9
    assert all(r != 0 for r in residues.values())


def test_borel_needs_second_witness_at_23():
    alone = eliminate_borel(23, [W5])
    assert not alone.eliminated
    assert alone.failed == (5,)  # 23 divides the value at -1
    both = eliminate_borel(23, [W3, W5])
    assert both.eliminated_by == 3


def test_borel_at_1601_eliminated_by_5():
    rec = eliminate_borel(1601, [W3, W5])
    assert rec.eliminated_by == 5
    assert rec.failed == (3,)  # 1601 divides the value at -3^4


def test_cartan_witness_3_at_11():
    rec = eliminate_cartan(11, [W3])
    assert rec.eliminated_by == 3
    sep = dict(rec.separability)
    assert sep[3] == reduce_mod(Q(2**16 * 5**2, 3**8), 11)
    assert sep[3] != 0


def test_cartan_synthetic_fourth_power_does_not_eliminate():
    # a witness whose fourth-power transform reduces to (1 + T)^4 cannot
    # rule out the non-split case
    fake_p4 = QPolynomial([1, 1]) ** 4
    fake = WitnessData(
        p=3,
        lp=W3.lp,
        p4=fake_p4,
        u=W3.u,
        borel_values=tuple(eval_exact(fake_p4, eps * Q(3) ** (4 * e)) for eps, e in BOREL_POINTS),
        disc=W3.disc,
    )
    rec = eliminate_cartan(11, [fake])
    assert not rec.eliminated
    assert rec.failed == (3,)


def test_exceptional_residues():
    rec11 = eliminate_exceptional(11, [W3])
    assert rec11.eliminated_by == 3
    assert dict(rec11.witness_u)[3] == 3  # 16/9 mod 11

    rec19 = eliminate_exceptional(19, [W3, W5])
    assert rec19.eliminated_by == 5
    assert rec19.failed == (3,)  # u3^2 - 3 u3 + 1 = 0 mod 19

    rec13 = eliminate_exceptional(13, [W3])
    assert rec13.eliminated_by == 3
    assert dict(rec13.witness_u)[3] == 9
    assert (9 * 9 - 27 + 1) % 13 == 3  # stays nonzero


def test_exceptional_u_is_the_tensor_trace_square_invariant():
    # u_p mod l as the certificate records it equals the squared trace read
    # off P_p mod l by the tensor model, in both residue classes mod 4
    data = [witness(p) for p in (3, 5, 7, 13, 17, 19)]
    pairs = 0
    for ell in primes_in_range(11, 2000):
        usable = [wd for wd in data if wd.p != ell]
        for wd, (p, u) in zip(usable, eliminate_exceptional(ell, usable).witness_u):
            assert u == trace_square_invariant(reduce_poly_mod(wd.lp.as_qpoly(), ell, 5), p, ell)
            pairs += 1
    assert pairs == 1791


def test_certify_11_and_19():
    c11 = certify(11)
    assert c11.verdict == "Certified"
    assert (c11.borel.eliminated_by, c11.cartan.eliminated_by, c11.exceptional.eliminated_by) == (3, 3, 3)
    c19 = certify(19)
    assert c19.verdict == "Certified"
    assert c19.exceptional.eliminated_by == 5
    assert c19.exceptional.failed == (3,)


def test_certify_validation():
    with pytest.raises(OutOfRangeError):
        certify(7)
    with pytest.raises(ValueError):
        certify(12)
    with pytest.raises(ValueError):
        certify(11, witnesses=())
    with pytest.raises(ValueError):
        certify(11, witnesses=(11,))
    with pytest.raises(ValueError):
        certify(11, witnesses=(4,))


def test_certify_range_small():
    certs = certify_range(11, 13, witnesses=(3,))
    assert [c.ell for c in certs] == [11, 13]
    assert all(c.verdict == "Certified" for c in certs)


def test_certify_range_validation():
    with pytest.raises(OutOfRangeError):
        certify_range(7, 13)
    with pytest.raises(OutOfRangeError):
        certify_range(13, 11)


def test_certify_range_matches_single_certify():
    # the range path reuses one set of witness data; certify() rebuilds it
    report = certify_range(11, 200)
    assert report.errors == ()
    assert [c.ell for c in report] == primes_in_range(11, 200)
    assert [certificate_json(c) for c in report] == [
        certificate_json(certify(c.ell)) for c in report
    ]


def test_certify_range_aggregates_per_ell_errors():
    # a witness prime inside the range cannot certify itself; the sweep
    # records that and continues
    report = certify_range(11, 31, witnesses=(13,))
    assert [c.ell for c in report] == [11, 17, 19, 23, 29, 31]
    assert len(report.errors) == 1
    ell, msg = report.errors[0]
    assert ell == 13 and "13" in msg
    assert not report.all_certified


def test_monotonicity_adding_witnesses():
    for ell in (11, 13, 19, 23, 29, 31):
        single = certify(ell, witnesses=(3,))
        both = certify(ell, witnesses=(3, 5))
        if single.verdict == "Certified":
            assert both.verdict == "Certified"
        for branch in ("borel", "cartan", "exceptional"):
            if getattr(single, branch).eliminated:
                assert getattr(both, branch).eliminated


def test_certificate_checker_accepts_and_rejects():
    cert = certify(19)
    doc = certificate_to_dict(cert)
    assert verify_certificate(doc)

    tampered = json.loads(certificate_json(cert))
    tampered["exceptional"]["witness_u"][0][1] = "1"
    assert not verify_certificate(tampered)

    truncated = json.loads(certificate_json(cert))
    truncated["witness_data"][0]["b"] = "1/9"
    assert not verify_certificate(truncated)

    relabeled = json.loads(certificate_json(cert))
    relabeled["verdict"] = "Inconclusive"
    assert not verify_certificate(relabeled)


def test_certificates_deterministic():
    assert certificate_json(certify(19)) == certificate_json(certify(19))


def test_inconclusive_certificate_names_failures():
    cert = certify(23, witnesses=(5,))
    assert cert.verdict == "Inconclusive"
    assert "borel" in cert.failed_branches()
    assert cert.borel.failed == (5,)
