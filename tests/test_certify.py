"""The three elimination branches, certificates, and the checker."""

import importlib
import json
from fractions import Fraction as Q
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
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
    DenominatorDivisibleError,
    QPolynomial,
    discriminant,
    nth_power_poly,
    reduce_mod,
)
from slow_paths import reduce_poly_mod, trace_square_invariant


def witness(p):
    return WitnessData.from_prime(p)


W3 = witness(3)
W5 = witness(5)

# psl2cert.certify is the function re-exported by the package, not the module
certify_module = importlib.import_module("psl2cert.certify")


def assert_matches_oracle(wd: WitnessData):
    """The closed form equals the Newton-identity and resultant path."""
    lp = wd.lp
    p4 = nth_power_poly(lp.as_qpoly(), 4)
    assert wd.p4 == p4
    assert wd.u == ((lp.a / 2) ** 2 if lp.p % 4 == 1 else lp.b + 2)
    points = (eps * Q(lp.p) ** (4 * e) for eps, e in BOREL_POINTS)
    assert wd.borel_values == tuple(p4(x) for x in points)
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
        borel_values=tuple(fake_p4(eps * Q(3) ** (4 * e)) for eps, e in BOREL_POINTS),
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


def test_residues_over_one_denominator_match_reduce_mod():
    # each elimination takes one inverse of the common denominator per
    # witness; every residue must equal the exact value reduced on its own
    data = [witness(p) for p in (3, 5, 7, 13, 17, 29)]
    pairs = 0
    for ell in primes_in_range(11, 5000):
        usable = [wd for wd in data if wd.p != ell]
        borel = eliminate_borel(ell, usable)
        cartan = eliminate_cartan(ell, usable)
        exceptional = eliminate_exceptional(ell, usable)
        for i, wd in enumerate(usable):
            assert borel.witness_residues[i] == (
                wd.p,
                tuple((*pt, reduce_mod(v, ell)) for pt, v in zip(BOREL_POINTS, wd.borel_values)),
            )
            assert cartan.witness_reductions[i] == (wd.p, reduce_poly_mod(wd.p4, ell))
            assert cartan.separability[i] == (wd.p, reduce_mod(wd.disc, ell))
            assert exceptional.witness_u[i] == (wd.p, reduce_mod(wd.u, ell))
            pairs += 1
    assert pairs == 6 * 665 - 3  # 13, 17 and 29 lie in the range


def test_eliminations_refuse_l_dividing_the_denominator():
    for p in (3, 5, 7, 13, 17, 29):
        for eliminate in (eliminate_borel, eliminate_cartan, eliminate_exceptional):
            with pytest.raises(DenominatorDivisibleError):
                eliminate(p, [witness(p)])


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
    # the first failing check wins, per witness in order
    with pytest.raises(ValueError, match="l = 12 is not prime"):
        certify(12, witnesses=(4,))
    with pytest.raises(ValueError, match="witness 13 coincides with l"):
        certify(13, witnesses=(13, 4))
    with pytest.raises(ValueError, match="witness 4 is not an odd prime"):
        certify(13, witnesses=(4, 13))
    with pytest.raises(ValueError, match="witness 2 is not an odd prime"):
        certify(13, witnesses=(3, 2))


def test_certify_range_small():
    certs = certify_range(11, 13, witnesses=(3,))
    assert [c.ell for c in certs] == [11, 13]
    assert all(c.verdict == "Certified" for c in certs)


def test_certify_range_validation():
    with pytest.raises(OutOfRangeError):
        certify_range(7, 13)
    with pytest.raises(OutOfRangeError):
        certify_range(13, 11)


def test_certify_range_refuses_an_empty_witness_set_before_the_sieve(monkeypatch):
    # once for the whole range, not one "witness set is empty" error per l
    monkeypatch.setattr(certify_module, "primes_in_range", lambda lo, hi: pytest.fail("sieved"))
    with pytest.raises(ValueError, match="^witness set is empty$"):
        certify_range(11, 60, ())


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


def test_warm_memo_does_not_weaken_the_checker():
    good = json.loads(json.dumps(certificate_to_dict(certify(19))))
    assert verify_certificate(good)  # both witnesses are now memoised
    tampered = []
    for key in ("a", "b", "u", "disc"):
        doc = json.loads(json.dumps(good))
        doc["witness_data"][0][key] = {"a": "1/3", "b": "5/3", "u": "3/1", "disc": "1/1"}[key]
        tampered.append(doc)
    doc = json.loads(json.dumps(good))
    doc["witness_data"][1]["p4"][2] = "7/1"
    tampered.append(doc)
    doc = json.loads(json.dumps(good))
    doc["witness_data"][0]["a"] = ["0/1"]  # unhashable where a string belongs
    tampered.append(doc)
    for doc in tampered:
        assert doc != good
        assert not verify_certificate(doc)
    assert verify_certificate(good)


@lru_cache(maxsize=None)
def fuzz_documents() -> tuple:
    """Real certificates as JSON text: two certified (19 needs witness 5 for
    the exceptional branch, 1601 for the borel one) and one Inconclusive."""
    certs = (certify(19), certify(1601), certify(23, witnesses=(5,)))
    return tuple(json.dumps(certificate_to_dict(cert)) for cert in certs)


def nodes(node, path=()):
    """(path, value) for the document and every value inside it."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from nodes(child, path + (key,))


HUGE_OR_NEGATIVE = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=3317044064679887385961981),  # past exact primality
)


@st.composite
def mutated_documents(draw):
    """A real certificate after one structural mutation."""
    doc = json.loads(draw(st.sampled_from(fuzz_documents())))
    kind = draw(st.sampled_from(["drop", "extra", "swap", "duplicate", "reorder", "integer"]))
    found = list(nodes(doc))
    dicts = [(path, node) for path, node in found if isinstance(node, dict)]
    lists = [(path, node) for path, node in found if isinstance(node, list)]
    if kind == "integer":
        path = draw(st.sampled_from([path for path, node in found if not isinstance(node, (dict, list))]))
        n = draw(HUGE_OR_NEGATIVE)
        # the last spelling is past Python's int-to-string conversion limit
        return replaced(doc, path, draw(st.sampled_from([n, str(n), f"{n}/1", f"1/{n}", "9" * 5000])))
    if kind == "drop":
        path, node = draw(st.sampled_from([(path, node) for path, node in dicts if node]))
        del node[draw(st.sampled_from(sorted(node)))]
    elif kind == "extra":
        path, node = draw(st.sampled_from(dicts))
        node[draw(st.text(max_size=8))] = draw(st.one_of(st.none(), st.integers(), st.text(max_size=4), st.just([])))
    elif kind == "swap":  # a list for a dict and a dict for a list
        path, node = draw(st.sampled_from(dicts + lists))
        other = {str(i): v for i, v in enumerate(node)} if isinstance(node, list) else list(node.values())
        return replaced(doc, path, other) if path else other
    elif kind == "duplicate":
        path, node = draw(st.sampled_from([(path, node) for path, node in lists if node]))
        node.insert(draw(st.integers(0, len(node))), node[draw(st.integers(0, len(node) - 1))])
    else:
        path, node = draw(st.sampled_from([(path, node) for path, node in lists if len(node) > 1]))
        node[:] = draw(st.permutations(node))
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_checker_rejects_structural_mutations_without_raising(doc):
    # dropped or extra keys, lists swapped for dicts, duplicated or reordered
    # entries (witnesses among them), huge or negative integers
    assume(all(doc != json.loads(text) for text in fuzz_documents()))
    assert verify_certificate(doc) is False


def test_certificate_to_dict_returns_fresh_documents():
    cert = certify(19)
    before = json.dumps(certificate_to_dict(cert), sort_keys=True)
    doc = certificate_to_dict(cert)
    doc["witness_data"][0]["p4"][0] = "2/1"
    doc["witness_data"][1]["a"] = "9/1"
    doc["witness_data"].append({})
    assert json.dumps(certificate_to_dict(cert), sort_keys=True) == before


def test_round_trip_derives_each_witness_once(monkeypatch):
    # a count, not a timing: the closed form starts with shape_classify, and
    # 200 certificates made and checked need it once per distinct witness
    calls = []
    shape_classify = certify_module.shape_classify

    def counting(lp):
        calls.append(lp.p)
        return shape_classify(lp)

    monkeypatch.setattr(certify_module, "shape_classify", counting)
    WitnessData.from_lpolynomial.cache_clear()
    ells = primes_in_range(11, 1300)[:200]
    report = certify_range(ells[0], ells[-1])
    assert [c.ell for c in report] == ells
    for cert in report:
        assert verify_certificate(json.loads(json.dumps(certificate_to_dict(cert))))
    assert sorted(calls) == [3, 5]


def test_round_trip_checks_witness_primality_once(monkeypatch):
    # per certificate only l is tested for primality; the witness tuple is
    # tested once, for certifying and checking alike
    calls = []
    is_prime = certify_module.is_prime

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(certify_module, "is_prime", counting)
    certify_module._non_odd_primes.cache_clear()
    ells = primes_in_range(11, 1300)[:200]
    report = certify_range(ells[0], ells[-1])
    for cert in report:
        assert verify_certificate(json.loads(json.dumps(certificate_to_dict(cert))))
    assert sorted(n for n in calls if n in (3, 5)) == [3, 5]
    assert sorted(n for n in calls if n not in (3, 5)) == sorted(ells * 2)


def test_certificates_deterministic():
    assert certificate_to_dict(certify(19)) == certificate_to_dict(certify(19))


def test_inconclusive_certificate_names_failures():
    cert = certify(23, witnesses=(5,))
    assert cert.verdict == "Inconclusive"
    assert not cert.borel.eliminated
    assert cert.borel.failed == (5,)
