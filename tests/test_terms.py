"""The term-map base: one equality, one hash and one domain check for
operators, symbols, ring and plane elements and truncated operators."""

import pytest
from hypothesis import given, settings, strategies as st

from qdops.errors import DomainMismatch
from qdops.exactscalar import ExactScalar, TruncatedScalar, scalar
from qdops.opsym import GradedOperator, Symbol, TruncatedOperator, generator
from qdops.rings import (LAURENT_X, POLY_X, POLY_Y, PlaneElement, RingElement,
                         poly_n)
from qdops.shapes import ShapeForm

N2 = poly_n(2)
RINGS = [POLY_X, POLY_Y, LAURENT_X, N2]


def _gens(domain):
    if domain.kind == "polyn":
        return [generator("x_i", domain, 0), generator("x_i", domain, 1),
                generator("dbeta_i", domain, (0, 0)),
                generator("dbeta_i", domain, (1, 1)),
                generator("sigma_vec", domain, (1, -1))]
    return [generator(name, domain, arg) for name, arg in
            [("x", None), ("tau", None), ("sigma", 1), ("sigma", -1),
             ("dbeta", 0), ("dbeta", 1)]]


GENS = {d: _gens(d) for d in RINGS}


def _coeffs(nv):
    q = ExactScalar.q_power(1, nv, 0)
    return [scalar(1, nv), scalar(-1, nv), scalar(2, nv), q,
            (q - 1).inverse(), ExactScalar.q_power(1, nv, nv - 1) + 1]


COEFFS = {1: _coeffs(1), 2: _coeffs(2)}


def _pick(draw, seq):
    return seq[draw(st.integers(0, len(seq) - 1))]


@st.composite
def operators(draw, domain):
    """A sum of at most three coefficient-times-word terms, words of at
    most two generators."""
    out = GradedOperator.zero(domain)
    for _ in range(draw(st.integers(0, 3))):
        term = GradedOperator.identity(domain) * _pick(draw, COEFFS[domain.nvars])
        for _ in range(draw(st.integers(0, 2))):
            term = term * _pick(draw, GENS[domain])
        out = out + term
    return out


@st.composite
def symbols(draw, nv):
    keys = [((i,) * nv, (j,) * nv) for i in (-1, 0, 2) for j in (0, 1)]
    return Symbol(nv, [(_pick(draw, keys), _pick(draw, COEFFS[nv]))
                       for _ in range(draw(st.integers(0, 3)))])


@st.composite
def ring_elements(draw, tag):
    exps = [(0, 0), (1, 0), (0, 2)] if tag.kind == "polyn" else \
        [-1, 0, 1, 2] if tag.allows_negative else [0, 1, 2]
    return RingElement(tag, [(_pick(draw, exps), _pick(draw, COEFFS[tag.nvars]))
                             for _ in range(draw(st.integers(0, 3)))])


@st.composite
def plane_elements(draw):
    return PlaneElement([((draw(st.integers(0, 2)), draw(st.integers(-1, 1))),
                          _pick(draw, COEFFS[1]))
                         for _ in range(draw(st.integers(0, 3)))])


@st.composite
def truncated_operators(draw, level):
    def ts():
        return TruncatedScalar(level, [draw(st.integers(-1, 1))
                                       for _ in range(level)])
    return TruncatedOperator(POLY_X, level, [
        ((draw(st.integers(-1, 1)), draw(st.integers(0, 1))), ts())
        for _ in range(draw(st.integers(0, 3)))])


def _families():
    """(name, strategy) per type and domain; the names tell domains apart."""
    out = [(f"operator {d!r}", operators(d)) for d in RINGS]
    out += [(f"symbol n={n}", symbols(n)) for n in (1, 2)]
    out += [(f"ring element {d!r}", ring_elements(d)) for d in RINGS]
    out += [("plane element", plane_elements())]
    out += [(f"truncated level {n}", truncated_operators(n)) for n in (1, 2)]
    return out


FAMILIES = _families()


@st.composite
def same_domain_pairs(draw):
    """Two values of one family: independent, or the second rebuilt from
    the first through a round trip, so equal pairs come up often."""
    name, values = draw(st.sampled_from(FAMILIES))
    a, c = draw(values), draw(values)
    how = draw(st.sampled_from(["other", "round trip", "negated twice",
                                "plus other"]))
    b = {"other": lambda: c, "round trip": lambda: (a + c) - c,
         "negated twice": lambda: -(-a), "plus other": lambda: a + c}[how]()
    return name, a, b


@settings(derandomize=True, max_examples=300, deadline=None)
@given(same_domain_pairs())
def test_equality_is_a_zero_difference_and_fixes_the_hash(pair):
    name, a, b = pair
    assert (a == b) == (a - b).is_zero(), name
    assert a == a and (a != b) == (not a == b)
    if a == b:
        assert hash(a) == hash(b), name


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_sums_across_domains_raise(data):
    i, j = data.draw(st.lists(st.integers(0, len(FAMILIES) - 1), min_size=2,
                              max_size=2, unique=True))
    a, b = data.draw(FAMILIES[i][1]), data.draw(FAMILIES[j][1])
    with pytest.raises(DomainMismatch):
        a + b
    with pytest.raises(DomainMismatch):
        a - b
    assert a != b


def test_shape_equality_compares_shapes():
    a = ShapeForm.of_term(1, {0: 1, 2: 3}, (0, 1))
    assert a == ShapeForm.of_term(1, {2: 3, 0: 1}, (0, 1))
    assert hash(a) == hash(ShapeForm.of_term(1, {2: 3, 0: 1}, (0, 1)))
    assert a != ShapeForm.of_term(1, {0: 1}, (0, 1))
    assert (a - a).is_zero() and a - a == ShapeForm.zero()


def test_the_six_classes_inherit_the_arithmetic():
    shared = {"zero", "is_zero", "__add__", "__neg__", "__sub__", "__eq__",
              "__hash__", "_chk", "scale"}
    for cls in (Symbol, GradedOperator, TruncatedOperator, RingElement,
                PlaneElement, ShapeForm):
        assert shared.isdisjoint(vars(cls)), cls.__name__
