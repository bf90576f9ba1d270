"""Symbol calculus: generators, composition, brackets, truncation.

The composition rule is cross-checked against the action on monomials,
which is the definition the rest of the package leans on.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdops.exactscalar import ExactScalar, scalar
from qdops.rings import POLY_X, POLY_Y, LAURENT_X, RingElement, poly_n
from qdops.opsym import (Symbol, GradedOperator, TruncatedOperator, generator,
                         compose, linear_combine, apply, twisted_bracket,
                         equals, extend_to_laurent, is_m_free,
                         truncate_operator, bracket_nilpotence_order,
                         is_integral_at_1)
from qdops.errors import UnsupportedGenerator, NotIntegralAtOne

qp = ExactScalar.q_power


def d(a):
    return generator("dbeta", POLY_X, a)


def s(a):
    return generator("sigma", POLY_X, a)


X = generator("x", POLY_X)
TAU = generator("tau", POLY_X)
ONE = GradedOperator.identity(POLY_X)


def xm(m, tag=POLY_X):
    return RingElement.monomial(tag, m)


ATOMS = [X, TAU, s(1), s(-1), d(-2), d(-1), d(0), d(1), d(2)]


def rand_word(rng, n):
    op = ONE
    for _ in range(n):
        op = op * rng.choice(ATOMS)
    return op


# -- generators -------------------------------------------------------------

def test_generator_actions():
    assert d(1).apply(xm(3)) == xm(2) * (scalar(1) + qp(1) + qp(2))
    assert d(0).apply(RingElement.one(POLY_X)).is_zero()
    assert d(0).apply(xm(4)) == xm(3) * 4
    assert d(-1).apply(xm(3)) == xm(2) * (scalar(1) + qp(-1) + qp(-2))
    for a in (-2, 1, 3):
        for b in (0, 1, 4):
            assert s(a).apply(xm(b)) == xm(b) * qp(a * b)
    assert TAU.apply(xm(5)) == xm(5) * 5


def test_generator_rejects_wrong_domain():
    with pytest.raises(UnsupportedGenerator):
        generator("partial_y", POLY_X)
    with pytest.raises(UnsupportedGenerator):
        generator("x", poly_n(2))


def test_nvariable_generator_action():
    tag = poly_n(2)
    p = RingElement.monomial(tag, (3, 2))
    for k in (-2, -1, 1, 2):
        dk = generator("dbeta_i", tag, (0, k))
        q1 = ExactScalar.q_power(1, 2, var=0)
        coeff = (ExactScalar.q_power(k * 3, 2, var=0) - ExactScalar.from_int(1, 2)) \
            / (q1 - ExactScalar.from_int(1, 2))
        assert dk.apply(p) == RingElement.monomial(tag, (2, 2), coeff)
    # k = 0 is the plain partial derivative in that coordinate
    d0 = generator("dbeta_i", tag, (1, 0))
    assert d0.apply(p) == RingElement.monomial(tag, (3, 1), 2)


# -- composition ------------------------------------------------------------

def test_compose_matches_pointwise_application():
    rng = random.Random(42)
    for _ in range(40):
        phi = rand_word(rng, rng.randint(1, 3))
        psi = rand_word(rng, rng.randint(1, 3))
        both = compose(phi, psi)
        for m in range(13):
            assert both.apply(xm(m)) == phi.apply(psi.apply(xm(m)))


def test_compose_landmarks():
    assert equals(compose(d(1), X) - compose(X, d(1)) * qp(1), ONE)
    assert equals(compose(s(1), s(-1)), ONE)
    assert equals(compose(X, d(0)), TAU)


def test_linear_combine():
    assert linear_combine([(1, d(1)), (-1, d(1))]).is_zero()
    lc = linear_combine([(1, s(1)), (-1, ONE), (scalar(1) - qp(1), compose(X, d(1)))])
    assert lc.is_zero()
    third = linear_combine([
        (1, d(-1)), (-qp(1), d(1)),
        (qp(1) - 1, compose(compose(d(-1), X), d(1)))])
    assert third.is_zero()


def test_products_of_nonzero_words_are_nonzero():
    rng = random.Random(9)
    for _ in range(60):
        phi = rand_word(rng, rng.randint(1, 3))
        psi = rand_word(rng, rng.randint(1, 3))
        assert not compose(phi, psi).is_zero()
        assert not compose(psi, phi).is_zero()


@st.composite
def _shifted_symbols(draw):
    """(symbol in 1-3 variables, shift e, coordinate v, evaluation point m)."""
    n = draw(st.integers(1, 3))
    vec = lambda lo, hi: st.tuples(*[st.integers(lo, hi)] * n)
    coeffs = []
    for _ in range(draw(st.integers(1, 4))):
        iv, jv = draw(vec(-2, 2)), draw(vec(0, 2))
        c = scalar(draw(st.integers(-3, 3).filter(bool)), n)
        w = draw(st.integers(0, n - 1))
        coeffs.append(((iv, jv), c * qp(draw(st.integers(-2, 2)), n, w)))
    return (Symbol(n, coeffs), draw(vec(-2, 2)), draw(st.integers(0, n - 1)),
            draw(vec(-2, 3)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_shifted_symbols())
def test_subst_shift_at_a_coordinate_reads_it_at_its_shift(case):
    # s(q^e u, m + e) with coordinate v read at m_v = 0: free of u_v and
    # m_v, and worth s at m + e with m_v + e_v replaced by e_v
    sym, e, v, m = case
    out = sym.subst_shift(e, at=v)
    assert all(iv[v] == 0 and jv[v] == 0 for iv, jv in out.coeffs)
    at = tuple(e[w] if w == v else m[w] + e[w] for w in range(sym.nvars))
    assert out.eval_at(m) == sym.eval_at(at)


def _generic_product(a, b):
    """a * b term by term, as the general rule of `Symbol.__mul__` writes it."""
    return Symbol(a.nvars, (
        ((tuple(x + y for x, y in zip(i1, i2)),
          tuple(x + y for x, y in zip(j1, j2))), c1 * c2)
        for (i1, j1), c1 in a.coeffs.items()
        for (i2, j2), c2 in b.coeffs.items()))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_shifted_symbols(), st.integers(0, 3))
def test_constant_symbol_products_match_the_generic_product(case, kind):
    # a constant factor on either side gives the generic product's terms
    # in the generic product's key order; the constant 1 gives the other
    # operand itself, and so does a shift by zero
    sym = case[0]
    n = sym.nvars
    c = [1, -1, Fraction(3, 2), qp(2, n, n - 1) * Fraction(-1, 3)][kind]
    const = Symbol.constant(c, n)
    for got, want in ((sym * const, _generic_product(sym, const)),
                      (const * sym, _generic_product(const, sym))):
        assert list(got.coeffs.items()) == list(want.coeffs.items())
        if kind == 0 and len(sym.coeffs) > 1:
            assert got is sym
    assert sym.subst_shift((0,) * n) is sym


# -- brackets ---------------------------------------------------------------

@pytest.mark.parametrize("a", range(-3, 4))
def test_plain_bracket_with_x_is_sigma(a):
    assert equals(twisted_bracket(d(a), X, 0), s(a))


def test_twisted_bracket_landmarks():
    for a in range(-2, 3):
        assert twisted_bracket(s(a), X, a).is_zero()
    c = (qp(1) - 1) / (qp(1) + 1)
    block = twisted_bracket(d(1), compose(compose(X, X), d(1)), 2)
    assert equals(block * c + ONE, s(1))


def twist_image(psi, a):
    # q^(a * deg) on each homogeneous part
    out = GradedOperator.zero(psi.domain)
    for (e,), sym in psi.parts.items():
        out = out + GradedOperator(psi.domain, {(e,): sym}) * qp(a * e)
    return out


def test_bracket_expansion_identity():
    # [[phi,psi]_a, x] = [[phi,x],psi]_a + phi[psi,x] - [twist(psi),x]phi
    rng = random.Random(17)
    for _ in range(25):
        phi = rand_word(rng, rng.randint(1, 2))
        psi = rand_word(rng, rng.randint(1, 2))
        for a in range(-2, 3):
            lhs = twisted_bracket(twisted_bracket(phi, psi, a), X, 0)
            rhs = twisted_bracket(twisted_bracket(phi, X, 0), psi, a) \
                + compose(phi, twisted_bracket(psi, X, 0)) \
                - compose(twisted_bracket(twist_image(psi, a), X, 0), phi)
            assert equals(lhs, rhs)


def test_centralizer_of_x_is_scalars():
    for c in (scalar(3), qp(2), scalar("1/2") * qp(-1)):
        assert twisted_bracket(ONE * c, X, 0).is_zero()
    for op in (TAU, d(0), d(1), s(1), compose(X, d(1))):
        assert not twisted_bracket(op, X, 0).is_zero()


# -- equality ---------------------------------------------------------------

def test_equality_examples():
    assert equals(compose(TAU, s(1)), compose(s(1), TAU))
    assert not equals(d(0), d(1))
    for a in (1, 2, 3):
        assert equals(d(a), compose(s(a), d(-a)))


def test_equality_agrees_with_pointwise_action():
    rng = random.Random(23)
    for _ in range(40):
        phi = rand_word(rng, rng.randint(1, 3))
        psi = rand_word(rng, rng.randint(1, 3))
        pointwise = all(phi.apply(xm(m)) == psi.apply(xm(m)) for m in range(17))
        assert equals(phi, psi) == pointwise


def test_ladder_identities():
    for a in (2, 3, 4):
        ladder = linear_combine([(1, s(i)) for i in range(a)])
        f = (scalar(1) - qp(1)) / (scalar(1) - qp(a))
        assert equals(d(a), compose(d(1), ladder) * f)
        mirror = linear_combine([(1, s(-i)) for i in range(a)])
        g = (scalar(1) - qp(-1)) / (scalar(1) - qp(-a))
        assert equals(d(-a), compose(d(-1), mirror) * g)


# -- domain preservation and extension --------------------------------------

def test_polyx_preservation_vanishing():
    rng = random.Random(31)
    for _ in range(30):
        phi = rand_word(rng, rng.randint(1, 4))
        phi.check_preserves()
        for (e,), sym in phi.parts.items():
            for j in range(-e):
                assert sym.eval_at((j,)).is_zero()


def test_extend_to_laurent_table():
    ext = extend_to_laurent(generator("partial_y", POLY_Y))
    assert ext.parts == {(1,): Symbol.term(1, 0, 1) * scalar(-1)}
    assert ext.apply(xm(1, LAURENT_X)) == xm(2, LAURENT_X) * -1
    extb = extend_to_laurent(generator("dbeta_y", POLY_Y, 1))
    assert extb.apply(xm(1, LAURENT_X)) == xm(2, LAURENT_X) * -qp(1)
    for a in (1, -1):
        exts = extend_to_laurent(generator("sigma_y", POLY_Y, a))
        for n in (-2, 0, 3):
            assert exts.apply(xm(n, LAURENT_X)) == xm(n, LAURENT_X) * qp(a * n)
    # the direct side keeps its symbols and gains the negative exponents
    exd = extend_to_laurent(d(1))
    assert exd.apply(xm(-1, LAURENT_X)) == xm(-2, LAURENT_X) * -qp(-1)


def test_ky_generators_mirror_kx():
    # k[y] is k[x] under a -> -a: the same parts and printed symbols
    for a in range(-4, 5):
        for ny, nx in (("sigma_y", "sigma"), ("dbeta_y", "dbeta")):
            gy, gx = generator(ny, POLY_Y, a), generator(nx, POLY_X, -a)
            assert gy.parts == gx.parts
            assert {e: str(v) for e, v in gy.parts.items()} \
                == {e: str(v) for e, v in gx.parts.items()}
    for ny, gx in (("y", X), ("partial_y", d(0)), ("tau", TAU)):
        assert generator(ny, POLY_Y).parts == gx.parts


def test_apply_on_one_variable_polyn():
    dom = poly_n(1)
    img = generator("dbeta_i", dom, (0, 1)).apply(RingElement.monomial(dom, (2,)))
    assert img == RingElement.monomial(dom, (1,), qp(1) + 1)


def test_is_m_free():
    assert not is_m_free(d(0))
    assert not is_m_free(TAU)
    assert is_m_free(compose(compose(s(3), compose(X, X)), d(1)))
    assert is_m_free(X)
    assert is_m_free(d(-1))


# -- truncation -------------------------------------------------------------

def test_truncation_landmarks():
    assert truncate_operator(d(1), 1) == truncate_operator(d(0), 1)
    assert truncate_operator(d(-1), 1) == truncate_operator(d(0), 1)
    t2 = truncate_operator(s(1), 2)
    assert set(t2.parts) == {0}
    assert t2.parts[0][0].coeffs == (1, 0)
    assert t2.parts[0][1].coeffs == (0, 1)


def test_truncation_is_multiplicative():
    rng = random.Random(3)
    for _ in range(20):
        phi = rand_word(rng, rng.randint(1, 3))
        psi = rand_word(rng, rng.randint(1, 3))
        for n in (1, 2, 3):
            assert truncate_operator(phi * psi, n) \
                == truncate_operator(phi, n) * truncate_operator(psi, n)


def test_truncation_integrality_guard():
    bad = X * (qp(1) - 1).inverse()
    assert not is_integral_at_1(bad)
    with pytest.raises(NotIntegralAtOne):
        truncate_operator(bad, 2)
    assert is_integral_at_1(d(2))


def test_bracket_nilpotence_order():
    assert bracket_nilpotence_order(truncate_operator(d(0), 1)) == 2
    for n in (1, 2, 3, 4):
        assert bracket_nilpotence_order(truncate_operator(s(1), n)) == n
    assert bracket_nilpotence_order(TruncatedOperator.zero(POLY_X, 2)) == 0


def test_powers_equal_repeated_products():
    # square-and-multiply gives the k-fold product, for scalars and
    # operators in one variable and in two
    from test_exactscalar import rand_factored, rand_scalar
    from qdops.suites import _rand_scalar
    rng = random.Random(31)
    dom2 = poly_n(2)
    one2 = GradedOperator.identity(dom2)
    atoms1 = [X, TAU, s(1), s(-1)]
    atoms2 = [generator("x_i", dom2, 0), generator("x_i", dom2, 1),
              generator("sigma_vec", dom2, (1, -1))]
    cases = []
    for _ in range(3):
        cases += [
            (scalar(1), rand_scalar(rng)),
            (ExactScalar.from_int(1, 2), rand_factored(rng, 2)),
            (ONE, d(rng.randint(-2, 2)) * _rand_scalar(rng)),
            (ONE, rng.choice(atoms1) * _rand_scalar(rng) + rng.choice(atoms1)),
            (one2, generator("dbeta_i", dom2, (rng.randrange(2), rng.randint(-2, 2)))
             * _rand_scalar(rng, 2)),
            (one2, rng.choice(atoms2) * _rand_scalar(rng, 2) + rng.choice(atoms2)),
        ]
    for one, a in cases:
        want = one
        for k in range(13):
            got = a ** k
            assert got == want and hash(got) == hash(want), (a, k)
            want = want * a
