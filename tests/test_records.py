"""The result records are namedtuples that keep the semantics of the
dataclasses they replaced: a verdict is true exactly when it accepts, a
record equals only a record of its own class with equal fields (never a
bare tuple), and SosCert is immutable and hashable."""

import itertools
from fractions import Fraction

import pytest

from ratsos.conic import (
    ConicCombination,
    EmptyFeasibleSet,
    LinearCertificate,
    LinearWitness,
    SeparatingFunctional,
    conic_representation,
    linear_nns,
)
from ratsos.lasserre import BisectResult, build_relaxation, verify_module_membership
from ratsos.poly import parse_poly, parse_upoly
from ratsos.quadforms import SosCert, SymMat
from ratsos.rootcount import hermite_form
from ratsos.sos import Search, VerifyResult, verify_sos

X = lambda text: parse_poly(text, 1)  # noqa: E731


def _cert(*terms):
    return SosCert(tuple((Fraction(w), X(p)) for w, p in terms))


def _verdicts():
    """(verdict, expected reason) of every outcome of verify_sos on both
    certificate kinds and of verify_module_membership."""
    f, basis = X("x^4 + 1"), [(0,), (1,), (2,)]
    gram = lambda rows: (SymMat.from_rows(rows), basis)  # noqa: E731
    yield verify_sos(f, gram([[1, 0, 0], [0, 0, 0], [0, 0, 1]])), "ok"
    yield verify_sos(f, gram([[1, 0, "1/2"], [0, -1, 0], ["1/2", 0, 1]])), "gram-not-psd"
    yield verify_sos(f, gram([[1, 0, 0], [0, 1, 0], [0, 0, 1]])), "gram-product-mismatch"
    yield verify_sos(f, _cert((1, "x^2"), (1, "1"))), "ok"
    yield verify_sos(f, _cert((-1, "x^2"), (2, "x^2"), (1, "1"))), "negative-weight"
    yield verify_sos(f, _cert((1, "x^2"))), "expansion-mismatch"
    # 1 + x = 1 * 1 + 1 * x at degree 2, where the block of x has degree cap 0
    target, gs = X("1 + x"), [X("x")]
    yield verify_module_membership(target, gs, 2, [_cert((1, "1")), _cert((1, "1"))]), "ok"
    yield verify_module_membership(target, gs, 2, [_cert((1, "1"))]), "arity"
    yield verify_module_membership(target, gs, 2, [_cert((-1, "1")), _cert((1, "1"))]), "negative-weight"
    yield verify_module_membership(target, gs, 2, [_cert((1, "1")), _cert((1, "x"))]), "degree-cap"
    yield verify_module_membership(target, gs, 2, [_cert((2, "1")), _cert((1, "1"))]), "sum-mismatch"


def test_a_verdict_is_true_exactly_when_it_accepts():
    verdicts = list(_verdicts())
    for verdict, reason in verdicts:
        assert type(verdict) is VerifyResult and verdict.reason == reason
        assert bool(verdict) is verdict.ok is (reason == "ok"), verdict
    assert sum(reason == "ok" for _, reason in verdicts) == 3 and len(verdicts) == 11


def _records():
    """One record of each class, built by the functions that return them where there are any."""
    p = [Fraction(1), Fraction(-2)]
    return [
        VerifyResult(True, "ok"),
        _cert((1, "x")),
        hermite_form(parse_upoly("x^2 - 2")),
        conic_representation([[1, 0], [0, 1]], [1, 2]),
        conic_representation([[1, 0], [0, 1]], [-1, 2]),
        LinearCertificate(p),
        LinearWitness(p),
        EmptyFeasibleSet(p),
        build_relaxation([X("1 - x^2")], 2, 1),
        BisectResult(Fraction(-1), Fraction(0), [_cert((1, "x"))]),
        Search("unknown", None, "stalled"),
    ]


def test_records_equal_only_records_of_their_own_class():
    p = [Fraction(1), Fraction(-2)]
    assert LinearWitness(p) != LinearCertificate(p) and not LinearWitness(p) == LinearCertificate(p)
    assert LinearWitness(p) == LinearWitness(list(p)) and not LinearWitness(p) != LinearWitness(list(p))
    records = _records()
    for record in records:
        assert record == type(record)(*record) and not record != type(record)(*record)
        bare = tuple(record)
        assert record != bare and bare != record and not record == bare and not bare == record
        assert record != list(record)
    for a, b in itertools.combinations(records, 2):
        assert a != b and b != a and not a == b
    assert Search("infeasible", None, "odd degree") == Search("infeasible", None, "odd degree", {}, [])


def test_conic_kinds_dispatch_by_class():
    vectors = [[1, 0], [0, 1]]
    assert type(conic_representation(vectors, [1, 2])) is ConicCombination
    assert type(conic_representation(vectors, [-1, 2])) is SeparatingFunctional
    assert type(linear_nns(X("x"), [X("x")])) is LinearCertificate
    assert type(linear_nns(X("x"), [X("1 - x")])) is LinearWitness
    assert type(linear_nns(X("x"), [X("x - 2"), X("1 - x")])) is EmptyFeasibleSet


def test_every_search_gets_its_own_dropped_and_points():
    a, b = Search("unknown", None, "stalled"), Search("unknown", None, "stalled")
    a.dropped[0] = [(1,)]
    a.points.append((0,))
    assert (b.dropped, b.points) == ({}, []) and a != b
    c = a._replace(cert=[_cert((1, "x"))])
    assert type(c) is Search and c.dropped is a.dropped and a.cert is None


def test_sos_certificates_are_immutable_and_hashable():
    cert = _cert((1, "x"), (2, "x^2 + 1"))
    with pytest.raises(AttributeError):
        cert.terms = ()
    with pytest.raises(AttributeError):
        cert.extra = 1
    same = _cert((1, "x"), (2, "x^2 + 1"))
    assert hash(cert) == hash(same) and len({cert, same, _cert((1, "x"))}) == 2
