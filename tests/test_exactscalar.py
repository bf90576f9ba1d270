"""Field arithmetic against a sympy oracle plus axiom properties."""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qdops import exactscalar
from qdops.exactscalar import (ExactScalar, scalar, q_number, q_factorial,
                               TruncatedScalar)
from qdops.errors import DivisionByZero, DomainMismatch, NotIntegralAtOne
from qdops.kernel import padd, pgcd, pmul, pmul_int

q = sympy.Symbol("q")


def to_sympy(s):
    num = sum(sympy.Integer(c) * q**i for i, c in enumerate(s.num))
    den = sum(sympy.Integer(c) * q**i for i, c in enumerate(s.den))
    return sympy.Rational(s.c.numerator, s.c.denominator) * num / den


def same(a, b_sym):
    # cancel brings a rational function of q to lowest terms, so it is
    # zero exactly when the difference is
    return sympy.cancel(to_sympy(a) - b_sym) == 0


def rand_scalar(rng, allow_zero=False):
    # num/den are dense coefficient lists, index = power of q
    while True:
        num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        den = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        if not any(den):
            continue
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        s = ExactScalar(1, c, num, den)
        if allow_zero or not s.is_zero():
            return s


def test_constructor_shapes():
    assert scalar(3).as_fraction() == 3
    assert scalar("1/2").as_fraction() == Fraction(1, 2)
    assert ExactScalar.q_power(0).is_one()
    assert ExactScalar.q_power(-2) * ExactScalar.q_power(2) == 1


def test_arithmetic_matches_sympy():
    rng = random.Random(7)
    for _ in range(120):
        a = rand_scalar(rng, allow_zero=True)
        b = rand_scalar(rng)
        sa, sb = to_sympy(a), to_sympy(b)
        assert same(a + b, sa + sb)
        assert same(a - b, sa - sb)
        assert same(a * b, sa * sb)
        assert same(a / b, sa / sb)


def test_inverse_and_zero_division():
    rng = random.Random(11)
    for _ in range(40):
        a = rand_scalar(rng)
        assert (a * a.inverse()).is_one()
    with pytest.raises(DivisionByZero):
        scalar(0).inverse()


small = st.integers(min_value=-3, max_value=3)


@st.composite
def scalars(draw):
    num = draw(st.lists(small, min_size=1, max_size=3))
    den = draw(st.lists(small, min_size=1, max_size=2).filter(any))
    c = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    return ExactScalar(1, c, num, den)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a
    assert (a - a).is_zero()
    if not a.is_zero():
        assert (a / a).is_one()


def test_valuation_additive():
    rng = random.Random(3)
    for _ in range(60):
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        assert (a * b).valuation_at_1() == a.valuation_at_1() + b.valuation_at_1()
    # landmark: [m]_q has valuation 0, (q-1)^k has valuation k
    qm1 = ExactScalar.q_power(1) - 1
    assert qm1.valuation_at_1() == 1
    assert (qm1 * qm1).valuation_at_1() == 2
    assert q_number(4).valuation_at_1() == 0


def test_truncation_is_a_ring_map():
    rng = random.Random(5)
    for n in (1, 2, 3):
        for _ in range(30):
            a = rand_scalar(rng)
            b = rand_scalar(rng)
            if a.valuation_at_1() < 0 or b.valuation_at_1() < 0:
                continue
            assert a.truncate(n) + b.truncate(n) == (a + b).truncate(n)
            assert a.truncate(n) * b.truncate(n) == (a * b).truncate(n)


def test_truncation_values():
    # q = 1 + t
    t2 = ExactScalar.q_power(1).truncate(3)
    assert t2.coeffs == (1, 1, 0)
    # [3]_q = 3 + 3t + t^2
    assert q_number(3).truncate(3).coeffs == (3, 3, 1)
    # 1/(q+1) = 1/2 - t/4 + t^2/8 - ...
    half = (scalar(1) / (ExactScalar.q_power(1) + 1)).truncate(3)
    assert half.coeffs == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))


@pytest.mark.parametrize("level", [0, -1])
def test_truncation_level_below_one_is_a_typed_error(level):
    with pytest.raises(DomainMismatch):
        scalar(3).truncate(level)


def test_q_numbers():
    gauss3 = q_number(3)
    assert gauss3 == scalar(1) + ExactScalar.q_power(1) + ExactScalar.q_power(2)
    bal3 = q_number(3, "balanced")
    assert bal3 == ExactScalar.q_power(-2) + scalar(1) + ExactScalar.q_power(2)
    assert q_factorial(3) == q_number(1, "balanced") * q_number(2, "balanced") \
        * q_number(3, "balanced")
    assert q_factorial(0).is_one()


def test_several_variables():
    a = ExactScalar.q_power(1, 2, var=0)
    b = ExactScalar.q_power(1, 2, var=1)
    assert a * b == b * a
    assert a != b
    assert (a - b) + (b - a) == 0
    prod = (a + b) * (a - b)
    assert prod == a * a - b * b


# univariate factors, as dense coefficient lists: q, q - 1, q + 1,
# q^2 + q + 1, 2q - 3
_FACTORS = ([0, 1], [-1, 1], [1, 1], [1, 1, 1], [-3, 2])


def rand_factored(rng, nv):
    """c * (product of univariate factors in random variables), each
    factor to the power 1 or -1."""
    out = ExactScalar.from_fraction(Fraction(rng.choice([-3, -1, 1, 2]),
                                             rng.randint(1, 4)), nv)
    for _ in range(rng.randint(1, 5)):
        v, f = rng.randrange(nv), rng.choice(_FACTORS)
        p = ExactScalar(nv, 1, {tuple(k if w == v else 0 for w in range(nv)): c
                                for k, c in enumerate(f) if c},
                        {(0,) * nv: 1})
        out = out * p if rng.random() < 0.5 else out / p
    return out


def test_several_variables_lowest_terms():
    # (q1-1)(q3-1) / (q1 (q3-1)^2) cancels to (q1-1) / (q1 (q3-1))
    q1, q3 = ExactScalar.q_power(1, 3, 0), ExactScalar.q_power(1, 3, 2)
    a = ExactScalar(3, 1, ((q1 - 1) * (q3 - 1)).num,
                    (q1 * (q3 - 1) * (q3 - 1)).num)
    want = (q1 - 1) / (q1 * (q3 - 1))
    assert (a.c, a.num, a.den) == (want.c, want.num, want.den)
    assert len(a.den) == 2
    rng = random.Random(5)
    for _ in range(60):
        nv = rng.choice([2, 3])
        a, b = rand_factored(rng, nv), rand_factored(rng, nv)
        back = (a * b) / b
        assert (back.c, back.num, back.den) == (a.c, a.num, a.den)


def test_truncated_scalar_ops():
    one = TruncatedScalar.one(2)
    t = TruncatedScalar(2, (0, 1))
    assert (t * t).is_zero()
    assert (one + t).coeffs == (1, 1)
    assert ((one + t) * (one - t)).coeffs == (1, 0)


def _parts(s):
    return (s.c, s.num, s.den)


def test_canonical_results_equal_the_normalizing_constructor():
    # -s, s.inverse(), q_power(e) and one-variable products take their
    # parts as they are; the normalizing constructor on the same parts
    # must agree field by field
    rng = random.Random(19)
    pairs = []
    for _ in range(150):
        s = rand_scalar(rng)
        pairs.append((-s, ExactScalar(1, -s.c, s.num, s.den)))
        pairs.append((s.inverse(), ExactScalar(1, 1 / s.c, s.den, s.num)))
    for e in range(-50, 51):
        mono = (0,) * abs(e) + (1,)
        num, den = (mono, (1,)) if e >= 0 else ((1,), mono)
        pairs.append((ExactScalar.q_power(e), ExactScalar(1, 1, num, den)))
    # products: a's numerator shares g with b's denominator and b's
    # numerator shares h with a's denominator, so both cross-cancels act
    for _ in range(150):
        f, g, h, k = (rand_scalar(rng) for _ in range(4))
        a = ExactScalar(1, f.c, pmul(f.num, g.num), pmul(h.num, g.den))
        b = ExactScalar(1, k.c, pmul(h.num, k.num), pmul(g.num, k.den))
        for x, y in ((a, b), (b, a), (a, k), (f, g)):
            pairs.append((x * y, ExactScalar(1, x.c * y.c, pmul(x.num, y.num),
                                             pmul(x.den, y.den))))
    for got, want in pairs:
        assert _parts(got) == _parts(want)
        assert type(got.c) is Fraction
        assert type(got.num) is tuple and type(got.den) is tuple
        assert hash(got) == hash(want)
        assert got == want


def test_several_variables_inverse_stays_canonical():
    # 1 - q1 leads negative in the lexicographic order; its sign moves
    # into c, so 3/2*(1 - q1) is stored as -3/2*(q1 - 1)
    one = {(0, 0): 1}
    s = ExactScalar(2, Fraction(3, 2), {(0, 0): 1, (1, 0): -1}, one)
    assert (s.c, s.num) == (Fraction(-3, 2), {(0, 0): -1, (1, 0): 1})
    inv = s.inverse()
    assert inv.den[max(inv.den)] > 0
    assert _parts(inv) == _parts(ExactScalar(2, 1 / s.c, one, s.num))
    assert (s * inv).is_one()


def _mpoly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def same_value(a, b):
    """a == b in Q(q1..qn) by cross-multiplication: c1 N1 D2 == c2 N2 D1."""
    left, right = _mpoly_mul(a.num, b.den), _mpoly_mul(b.num, a.den)
    return ({e: a.c * x for e, x in left.items() if a.c * x}
            == {e: b.c * x for e, x in right.items() if b.c * x})


def test_several_variables_equal_values_have_equal_parts():
    # the reference is cross-multiplication; the scalar itself compares
    # and hashes (c, num, den), so equal values must have equal parts
    rng = random.Random(23)
    for _ in range(60):
        nv = rng.choice([2, 3])
        a, b = rand_factored(rng, nv), rand_factored(rng, nv)
        values = [a, b, a + b, b + a, a - b, b - a, -(b - a), -a, a * -1,
                  (-1) * a, a - 2 * a, a * b, b * a, (a * b) / b, (a + b) - b]
        for x in values:
            for y in values:
                if same_value(x, y):
                    assert _parts(x) == _parts(y)
                    assert hash(x) == hash(y)
                assert (x == y) == same_value(x, y)


def test_a_rational_scalar_hashes_as_the_number_it_equals():
    # Python's rule: objects that compare equal hash equal, so a set or
    # dict that mixes scalars with numbers holds one key per value
    for nv in (1, 2):
        for x in (3, 0, -7, Fraction(1, 2), Fraction(-5, 3)):
            s = scalar(x, nv)
            assert s == x == Fraction(x) and hash(s) == hash(Fraction(x))
            assert len({s, x, Fraction(x)}) == 1
    assert {Fraction(1, 2): "half"}[scalar("1/2")] == "half"
    assert {scalar("1/2", 2): "half"}[Fraction(1, 2)] == "half"
    # a scalar that is not rational keeps its structural hash
    q = ExactScalar.q_power(1)
    assert hash(q) == hash((q.c, q.num, q.den))


def test_dividing_by_a_factor_in_several_variables_is_refused():
    q1, q2 = ExactScalar.q_power(1, 2, 0), ExactScalar.q_power(1, 2, 1)
    for bad in (q1 + q2, (q1 - 1) * (q1 * q2 + 1), q1 * q2 - 1):
        with pytest.raises(DomainMismatch):
            bad.inverse()
        with pytest.raises(DomainMismatch):
            q1 / bad
    good = (q1 - 1) * (q2 + 1) * q1 * q2
    assert (good * good.inverse()).is_one()
    assert (q1 / good) * good == q1


def test_products_with_a_rational_operand_equal_the_normalizing_constructor():
    # a rational factor only scales c, in every arity; the product taken
    # from the other operand's parts as they are must match the
    # normalizing constructor on the multiplied parts
    rng = random.Random(31)
    for nv in (1, 2, 3):
        mul = pmul if nv == 1 else _mpoly_mul
        for _ in range(60):
            if nv == 1:
                x = rand_scalar(rng)
            else:
                a, b = rand_factored(rng, nv), rand_factored(rng, nv)
                x = rng.choice([a, a + b, a * b - 1])
            f = Fraction(rng.choice([-5, -1, 1, 2, 7]), rng.randint(1, 6))
            r = ExactScalar.from_fraction(f, nv)
            for got, (u, v) in ((x * r, (x, r)), (r * x, (r, x)),
                                (x * f, (x, r)), (f * x, (x, r)),
                                (r * r, (r, r))):
                want = ExactScalar(nv, u.c * v.c, mul(u.num, v.num),
                                   mul(u.den, v.den))
                assert _parts(got) == _parts(want)
                assert hash(got) == hash(want)


def _sum_by_constructor(x, y, sign=1):
    """x + sign*y from the normalizing constructor on the cross-multiplied
    parts: (a N1 D2 + b N2 D1) / (D1 D2)."""
    a, b = x.c, sign * y.c
    num = padd(pmul_int(pmul(x.num, y.den), a.numerator * b.denominator),
               pmul_int(pmul(y.num, x.den), b.numerator * a.denominator))
    return ExactScalar(1, Fraction(1, a.denominator * b.denominator), num,
                       pmul(x.den, y.den))


# shared denominator factors: q - 1, q + 1, q^2 + q + 1, q, 2q - 3, q^2 + 1
_SHARED = ([-1, 1], [1, 1], [1, 1, 1], [0, 1], [-3, 2], [1, 0, 1])


def test_sums_equal_the_normalizing_constructor():
    rng = random.Random(41)
    pairs = []
    for _ in range(60):
        f, k = rand_scalar(rng), rand_scalar(rng)
        g = rng.choice(_SHARED)
        a = ExactScalar(1, f.c, f.num, pmul(f.den, g))
        b = ExactScalar(1, k.c, k.num, pmul(k.den, g))
        # t - a by cross-multiplication: a + (t - a) = t has no g left,
        # so the shared factor cancels against the numerator
        t = ExactScalar(1, k.c, k.num, f.den)
        pairs += [(f, k), (a, b), (a, ExactScalar(1, k.c, k.num, a.den)),
                  (a, _sum_by_constructor(t, a, -1)), (a, a),
                  (a, ExactScalar.from_fraction(k.c))]
    seen = set()
    for x, y in pairs:
        g = pgcd(x.den, y.den)
        if x.den == y.den and len(x.den) > 1:
            seen.add("equal denominators")
        if y.is_rational():
            seen.add("rational operand")
        for sign, got in ((1, x + y), (-1, x - y)):
            want = _sum_by_constructor(x, y, sign)
            assert _parts(got) == _parts(want)
            assert type(got.c) is Fraction
            assert type(got.num) is tuple and type(got.den) is tuple
            assert hash(got) == hash(want)
            assert got == want
            if want.is_zero():
                seen.add("zero")
            elif len(g) == 1:
                seen.add("coprime")
            elif len(want.den) < len(x.den) + len(y.den) - len(g):
                seen.add("shared, cancels")    # below the lcm: h != 1
            else:
                seen.add("shared, h = 1")
    assert seen == {"coprime", "shared, h = 1", "shared, cancels",
                    "equal denominators", "zero", "rational operand"}
    # a Fraction or int operand is the rational scalar it coerces to
    for x, y in pairs[:60]:
        r = y.c
        assert _parts(x + r) == _parts(x + ExactScalar.from_fraction(r))
        assert _parts(x - 2) == _parts(x + ExactScalar.from_int(-2))


def test_sums_never_take_a_gcd_against_the_product_denominator(monkeypatch):
    # a sum reduces against g = gcd(D1, D2); with numerators of degree at
    # most 1 and deg g >= 1, every operand it hands pgcd (D1, D2, g and
    # the new numerator) is shorter than D1*D2
    rng = random.Random(43)
    pairs = []
    while len(pairs) < 80:
        x, y = (ExactScalar(1, Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)),
                            [rng.randint(-3, 3) or 1, rng.randint(-3, 3)],
                            pmul(rand_scalar(rng).den, rng.choice(_SHARED)))
                for _ in range(2))
        if len(pgcd(x.den, y.den)) > 1:
            pairs.append((x, y))
    seen = []
    real = exactscalar.kernel.pgcd

    def spy(a, b):
        seen.append(max(len(a), len(b)))
        return real(a, b)

    monkeypatch.setattr(exactscalar.kernel, "pgcd", spy)
    for x, y in pairs:
        longest = len(x.den) + len(y.den) - 1
        del seen[:]
        x + y
        x - y
        assert seen and max(seen) < longest


# the one-variable normalizing constructor, the valuation at q = 1 and the
# truncation, each against sympy on N/D that share powers of q - 1,
# cyclotomic factors and q, with integer contents and negative leads

t = sympy.Symbol("t")
_CYCLOTOMIC = ([1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1], [1, 1, 1, 1, 1])


def _power(p, k):
    out = [1]
    for _ in range(k):
        out = pmul(out, p)
    return out


def _rand_poly(rng):
    while True:
        p = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        if p[-1]:
            return p


def rand_fraction(rng):
    """(c, N, D, kind): dense N and D sharing (q-1)^k and other factors,
    each times an integer content; D general, a monomial or a constant."""
    kind = rng.choice(("general", "general", "monomial", "constant"))
    shared = _power([-1, 1], rng.randint(0, 3))
    for f in rng.sample(_CYCLOTOMIC + ([0, 1],), rng.randint(0, 2)):
        shared = pmul(shared, f)
    num = pmul(pmul(shared, _power([-1, 1], rng.randint(0, 2))), _rand_poly(rng))
    if kind == "general":
        den = pmul(pmul(shared, _power([-1, 1], rng.randint(0, 3))), _rand_poly(rng))
    elif kind == "monomial":
        den = [0] * rng.randint(1, 3) + [rng.choice([-2, 1, 3])]
    else:
        den = [rng.choice([-4, -1, 1, 6])]
    num = pmul_int(num, rng.choice([1, -1, 2, -6]))
    den = pmul_int(den, rng.choice([1, -1, 3, -4]))
    return Fraction(rng.choice([-5, -1, 1, 2]), rng.randint(1, 3)), num, den, kind


def _expr(c, num, den):
    return (sympy.Rational(c.numerator, c.denominator)
            * sympy.Poly(num[::-1], q).as_expr() / sympy.Poly(den[::-1], q).as_expr())


def sympy_parts(expr):
    """(c, N, D) of a rational function of q in lowest terms, N and D
    primitive and lead positive, as dense coefficient tuples."""
    n, d = sympy.fraction(sympy.cancel(sympy.together(expr)))
    if n == 0:
        return Fraction(0), (1,), (1,)
    c, parts = Fraction(1), []
    for p in (n, d):
        cont, prim = sympy.Poly(p, q).primitive()
        coeffs = [int(x) for x in prim.all_coeffs()[::-1]]
        if coeffs[-1] < 0:
            cont, coeffs = -cont, [-x for x in coeffs]
        parts.append(tuple(coeffs))
        cont = Fraction(int(sympy.numer(cont)), int(sympy.denom(cont)))
        c = c * cont if len(parts) == 1 else c / cont
    return c, parts[0], parts[1]


def test_one_variable_constructor_matches_sympy():
    rng = random.Random(53)
    seen = set()
    for _ in range(150):
        c, num, den, kind = rand_fraction(rng)
        s = ExactScalar(1, c, num, den)
        want = sympy_parts(_expr(c, num, den))
        assert _parts(s) == want
        assert type(s.c) is Fraction
        assert type(s.num) is tuple and type(s.den) is tuple
        for p in (s.num, s.den):
            assert p[-1] > 0 and math.gcd(*p) == 1
        assert sympy.gcd(sympy.Poly(s.num[::-1], q), sympy.Poly(s.den[::-1], q)) == 1
        assert sympy.cancel(_expr(s.c, s.num, s.den) - _expr(c, num, den)) == 0
        seen.add(kind)
        if num[-1] < 0 or den[-1] < 0:
            seen.add("negative lead")
        if len(s.den) < len(den):
            seen.add("common factor cancelled")
        if math.gcd(*num) > 1:
            seen.add("content")
    assert seen == {"general", "monomial", "constant", "negative lead",
                    "common factor cancelled", "content"}


def root_1_multiplicity(expr):
    """Multiplicity of q = 1 as a root of the numerator, less that of the
    denominator, from sympy's factorization."""
    n, d = sympy.fraction(sympy.cancel(expr))
    return sum(k if f == q - 1 else 0
               for f, k in sympy.factor_list(n, q)[1]) - sum(
        k if f == q - 1 else 0 for f, k in sympy.factor_list(d, q)[1])


def test_valuation_at_1_is_the_multiplicity_of_the_root_1():
    rng = random.Random(59)
    orders = set()
    for _ in range(120):
        c, num, den, _ = rand_fraction(rng)
        s = ExactScalar(1, c, num, den)
        if s.is_zero():
            assert s.valuation_at_1() == math.inf
            continue
        v = root_1_multiplicity(_expr(c, num, den))
        assert s.valuation_at_1() == v
        orders.add(v)
        if v < 0:
            with pytest.raises(NotIntegralAtOne, match=rf"^pole of order {-v} at q=1$"):
                s.truncate(3)
    assert {-2, -1, 0, 1, 2} <= orders


def test_truncate_matches_the_series_at_q_equal_1():
    rng = random.Random(61)
    done = 0
    while done < 40:
        c, num, den, _ = rand_fraction(rng)
        s = ExactScalar(1, c, num, den)
        if s.valuation_at_1() < 0:
            continue
        n = rng.randint(1, 6)
        f = sympy.cancel(_expr(c, num, den).subs(q, 1 + t))
        series = sympy.series(f, t, 0, n).removeO()
        poly = sympy.Poly(series, t)
        want = tuple(Fraction(int(sympy.numer(x)), int(sympy.denom(x)))
                     for x in (poly.coeff_monomial(t**k) for k in range(n)))
        assert s.truncate(n).coeffs == want
        done += 1
