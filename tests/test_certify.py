"""The three elimination branches, certificates, and the checker."""

import json
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl2cert.certify import (
    BOREL_POINTS,
    OutOfRangeError,
    WitnessData,
    certificate_to_dict,
    certify,
    certify_range,
    eliminate_borel,
    eliminate_cartan,
    eliminate_exceptional,
    verify_certificate,
)
from psl2cert.lpoly import LPolynomial
from psl2cert.modarith import primes_in_range
from psl2cert.qpoly import (
    QPolynomial,
    discriminant,
    eval_exact,
    nth_power_poly,
    reduce_mod,
    reduce_poly_mod,
)
from slow_paths import trace_square_invariant


def witness(p):
    return WitnessData.from_prime(p)


W3 = witness(3)
W5 = witness(5)


def assert_matches_oracle(wd: WitnessData):
    """The closed form equals the Newton-identity and resultant path."""
    lp = wd.lp
    p4 = nth_power_poly(lp.as_qpoly(), 4)
    assert wd.p4 == p4
    assert wd.u == ((lp.a / 2) ** 2 if lp.p % 4 == 1 else lp.b + 2)
    points = (eps * Q(lp.p) ** (4 * e) for eps, e in BOREL_POINTS)
    assert wd.borel_values == tuple(eval_exact(p4, x) for x in points)
    assert wd.disc == discriminant(lp.as_qpoly())


def test_witness_data_invariants():
    assert W3.u == Q(16, 9)
    assert W5.u == Q(4, 25)
    assert W3.disc == Q(2**16 * 5**2, 3**8)
    assert W5.disc == 0  # P_5 is a square
    for p in primes_in_range(3, 300):
        assert_matches_oracle(witness(p))


@st.composite
def shape_law_lpolynomials(draw):
    """P_p obeying the shape law for an odd prime p < 10^4, with b*p = beta
    and the shape's b in [-2, 2] (square) or [0, 2] (biquadratic)."""
    p = draw(st.sampled_from(primes_in_range(3, 10**4)))
    if p % 4 == 1:
        beta = draw(st.integers(min_value=-2 * p, max_value=2 * p))
        return LPolynomial(p, Q(2 * beta, p), Q(beta, p) ** 2 + 2)
    beta = draw(st.integers(min_value=0, max_value=2 * p))
    return LPolynomial(p, Q(0), Q(beta, p) ** 2 - 2)


@settings(max_examples=200, deadline=None)
@given(shape_law_lpolynomials())
def test_witness_closed_form_matches_oracle_on_shape_law_polynomials(lp):
    assert_matches_oracle(WitnessData.from_lpolynomial(lp))


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
            assert u == trace_square_invariant(reduce_poly_mod(wd.lp.as_qpoly(), ell), p, ell)
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
    assert [certificate_to_dict(c) for c in report] == [
        certificate_to_dict(certify(c.ell)) for c in report
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


def string_leaves(node, path=()):
    """(path, value) for every string leaf of a JSON document."""
    if isinstance(node, str):
        yield path, node
    elif isinstance(node, dict):
        for key, child in node.items():
            yield from string_leaves(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from string_leaves(child, path + (i,))


def replaced(doc, path, value):
    copy = json.loads(json.dumps(doc))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return copy


def alternatives(leaf: str):
    """Different values for one leaf: a nearby value, an equal rational in
    another spelling, a foreign token, and JSON values that are not strings."""
    num, _, den = leaf.partition("/")
    out = {leaf + "0", "Inconclusive" if leaf == "Certified" else "Certified"}
    if num.lstrip("-").isdigit():
        out.add(f"{int(num) + 1}/{den}" if den else str(int(num) + 1))
        if den:
            out.add(f"{2 * int(num)}/{2 * int(den)}")
    return [*sorted(out - {leaf}), 5, None, []]


def test_certificate_checker_accepts_and_rejects():
    # 19 needs witness 5 for the exceptional branch, 1601 for the borel one
    for ell in (19, 1601):
        cert = certify(ell)
        assert verify_certificate(certificate_to_dict(cert))
        doc = json.loads(json.dumps(certificate_to_dict(cert)))
        assert verify_certificate(doc)

        leaves = list(string_leaves(doc))
        assert {path[0] for path, _ in leaves} == set(doc)  # every field has a string leaf
        for path, leaf in leaves:
            for other in alternatives(leaf):
                assert not verify_certificate(replaced(doc, path, other)), (ell, path, other)


def test_certificates_deterministic():
    assert certificate_to_dict(certify(19)) == certificate_to_dict(certify(19))


def test_inconclusive_certificate_names_failures():
    cert = certify(23, witnesses=(5,))
    assert cert.verdict == "Inconclusive"
    assert not cert.borel.eliminated
    assert cert.borel.failed == (5,)
