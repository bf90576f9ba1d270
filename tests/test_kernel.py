"""The Z[q] kernel: `pgcd` against sympy's gcd, including the constant and
monomial operands its fast paths answer, and the degree budget."""

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qdops import _polykernel_py as K
from qdops.errors import BudgetExceeded
from qdops.exactscalar import ExactScalar

q = sympy.Symbol("q")


def reference_gcd(a, b):
    """sympy's gcd in Z[q] as a coefficient list, positive leading term."""
    g = sympy.Poly(sum(c * q**i for i, c in enumerate(a)), q, domain="ZZ").gcd(
        sympy.Poly(sum(c * q**i for i, c in enumerate(b)), q, domain="ZZ"))
    out = [int(c) for c in reversed(g.all_coeffs())]
    out = K.pnorm(out)
    return [-c for c in out] if out and out[-1] < 0 else out


def primitive_part(p):
    """The primitive part of p with positive leading coefficient."""
    p = K.pnorm(list(p))
    if not p:
        return []
    c = K.pcontent(p) * (1 if p[-1] > 0 else -1)
    return [x // c for x in p]


nonzero = st.integers(-12, 12).filter(bool)


@st.composite
def operands(draw):
    """[], unnormalized [0], constants and monomials c*q^k of both signs,
    and polynomials with a q-valuation (some with trailing zeros)."""
    kind = draw(st.sampled_from(["zero", "zero0", "const", "mono", "poly"]))
    if kind == "zero":
        return []
    if kind == "zero0":
        return [0]
    if kind == "const":
        return [draw(nonzero)]
    if kind == "mono":
        return [0] * draw(st.integers(0, 4)) + [draw(nonzero)]
    body = draw(st.lists(st.integers(-6, 6), min_size=2, max_size=5))
    tail = draw(st.lists(st.just(0), max_size=1))
    return [0] * draw(st.integers(0, 3)) + body + [draw(nonzero)] + tail


@settings(derandomize=True, max_examples=400, deadline=None)
@given(operands(), operands(), operands())
def test_pgcd_matches_sympy(a, b, f):
    # a common factor f makes the gcd nontrivial as often as not
    if K.pnorm(list(f)):
        a, b = K.pmul(K.pnorm(list(a)), f), K.pmul(K.pnorm(list(b)), f)
    got = K.pgcd(a, b)
    assert got == K.pgcd(b, a)
    if K.pnorm(list(a)) and K.pnorm(list(b)):
        assert got == reference_gcd(a, b)
    else:
        # a zero operand gives the primitive part of the other one
        assert got == primitive_part(a if K.pnorm(list(a)) else b)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(operands())
def test_pgcd_with_zero_is_the_primitive_part(p):
    # exactscalar's n-variable q_v-content starts from g = [] and relies
    # on this
    assert K.pgcd([], p) == primitive_part(p)
    assert K.pgcd([0], p) == primitive_part(p)


def test_pgcd_fast_path_examples():
    assert K.pgcd([-4], [6, 0, -8]) == [2]
    assert K.pgcd([0, 0, -6], [0, 4, 10]) == [0, 2]
    assert K.pgcd([0, 0, 0, 3], [0, 0, 0, 9, 6]) == [0, 0, 0, 3]
    assert K.pgcd([5], []) == [1]
    assert K.pgcd([], [0, 0, -6]) == [0, 0, 1]


def test_degree_budget():
    n = K.MAX_DEGREE // 2 + 1
    # refused before any coefficient is computed
    with pytest.raises(BudgetExceeded):
        K.pmul([1] * (n + 1), [1] * (n + 1))
    assert len(K.pmul([0] * n + [1], [1])) == n + 1
    for e in (K.MAX_DEGREE + 1, -K.MAX_DEGREE - 1):
        with pytest.raises(BudgetExceeded):
            ExactScalar.q_power(e)
