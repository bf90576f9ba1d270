"""Expression grammar, evaluation, and degree-zero decomposition."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdops.exactscalar import ExactScalar, scalar
from qdops.opexpr import (parse, evaluate, expr_str, decompose_degree0, EAdd,
                          EBracket, EDiv, EGen, EMul, ENeg, ENum, EPow, ESub)
from qdops.opsym import (GradedOperator, Symbol, generator, compose, equals,
                         twisted_bracket)
from qdops.render import operator_str
from qdops.rings import POLY_X, POLY_Y, LAURENT_X, poly_n, RingElement
from qdops.errors import ParseError, NotDegreeZero, UnsupportedGenerator
from qdops.algorithms import integrate_nd
from qdops.suites import _rand_nd_op

qp = ExactScalar.q_power


@pytest.mark.parametrize("text", [
    "D[1]*x",
    "bracket(D[1], x)",
    "bracket(D[1], x, 2)",
    "s[1]^2*s[-1]^2",
    "(q-1)^-1 * s[1]",
    "x^3 + 2*x - 1/2",
    "-tau^2 + q^2*x",
    "x1*D2[1] + s[1,0]",
])
def test_parse_print_round_trip(text):
    e = parse(text)
    assert expr_str(parse(expr_str(e))) == expr_str(e)


# scalars chosen for their printed forms: q^2 is a power, -q^2 and -3 a
# negated atom, the rest need parentheses; q^-2/7 gives a symbol the
# denominator 7*q^2
ROUND_TRIP_SCALARS = [scalar(0), scalar(1), scalar(-3), scalar("1/2"),
                      qp(1), qp(2), qp(3), -qp(2), qp(-1),
                      (qp(1) + 1) / (qp(1) - 1), qp(-2) / 7]
INVERTIBLE = [s for s in ROUND_TRIP_SCALARS if not s.is_zero()]

leaves = st.one_of(
    st.sampled_from([EGen("x"), EGen("tau")]),
    st.builds(EGen, st.sampled_from(["s", "D"]), st.integers(-2, 2)),
    st.builds(ENum, st.sampled_from(ROUND_TRIP_SCALARS)),
)


@st.composite
def trees(draw):
    """A random expression whose nodes may reuse earlier nodes, so the
    trees include shared subtrees."""
    pool = [draw(leaves)]

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(
            ["leaf", "add", "sub", "mul", "neg", "pow", "inv", "div",
             "bracket"]))
        if kind == "leaf":
            node = draw(leaves)
        elif kind in ("add", "sub", "mul"):
            node = {"add": EAdd, "sub": ESub, "mul": EMul}[kind](pick(), pick())
        elif kind == "neg":
            node = ENeg(pick())
        elif kind == "pow":
            node = EPow(pick(), draw(st.integers(0, 2)))
        elif kind == "inv":
            base = draw(st.one_of(
                st.builds(ENum, st.sampled_from(INVERTIBLE)),
                st.builds(EGen, st.just("s"), st.integers(-2, 2))))
            node = EPow(base, -draw(st.integers(1, 2)))
        elif kind == "div":
            node = EDiv(pick(), ENum(draw(st.sampled_from(INVERTIBLE))))
        else:
            node = EBracket(pick(), pick(), draw(st.integers(-2, 2)))
        pool.append(node)
    return pool[-1]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(trees())
def test_printed_trees_reparse_to_the_same_operator(e):
    text = expr_str(e)
    assert equals(evaluate(parse(text)), evaluate(e)), text


def read_printed(text, at):
    """Value of printed engine text under the usual precedence, with each
    integer a Fraction and the names in `at` bound to their values."""
    src = re.sub(r"(?<![A-Za-z])\d+", lambda g: f"F({g.group()})",
                 text.replace("^", "**"))
    return eval(src, {"__builtins__": {}, "F": Fraction}, at)


def scalar_at(s, qs):
    """c*N/D of an engine scalar at q_i = qs[i], from its coefficients."""
    def poly(p):
        items = (p.items() if isinstance(p, dict)
                 else (((i,), c) for i, c in enumerate(p)))
        return sum(c * math.prod(x ** k for x, k in zip(qs, e))
                   for e, c in items)
    return s.c * poly(s.num) / poly(s.den)


def assert_printed_symbols_read_back(op):
    """Each `[e=k] symbol` chunk of operator_str, read with the usual
    precedence at q_i = i + 2, u_i = q_i^m, m_i = m for m in 0..4, equals
    the engine's symbol there, computed from its coefficients."""
    text = operator_str(op)
    nv = op.domain.nvars
    uvar, mvar = ("w", "n") if op.domain.kind == "polyy" else ("u", "m")
    qs = [Fraction(i + 2) for i in range(nv)]
    names = ["q"] if nv == 1 else [f"q{i + 1}" for i in range(nv)]
    suffix = [""] if nv == 1 else [str(i + 1) for i in range(nv)]
    for m in range(5):
        at = {}
        for qv, name, sfx in zip(qs, names, suffix):
            at.update({name: qv, uvar + sfx: qv ** m, mvar + sfx: Fraction(m)})
        printed = {}
        if text != "0":
            for chunk in text.split("; "):
                head, body = chunk.split("] ", 1)
                printed[head[len("[e="):]] = read_printed(body, at)
        engine = {
            str(e[0] if nv == 1 else e): sum(
                scalar_at(c, qs) * math.prod(qv ** (m * i) for qv, i in zip(qs, iv))
                * math.prod(Fraction(m) ** j for j in jv)
                for (iv, jv), c in sym.coeffs.items())
            for e, sym in op.parts.items()}
        assert printed == engine, (text, m)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(trees(), st.sampled_from([POLY_X, POLY_Y]))
def test_printed_symbols_read_back(e, domain):
    assert_printed_symbols_read_back(evaluate(e, domain))


@pytest.mark.parametrize("text,ring,printed", [
    ("tau/(7*q^2)", POLY_X, "[e=0] m/(7*q^2)"),
    ("s[1]/7 + q^-2*tau", POLY_X, "[e=0] (q^2*u + 7*m)/(7*q^2)"),
    ("3*s[1,1]*D1[0]*D2[0]", poly_n(2),
     "[e=(-1, -1)] (3/(q1*q2))*u1*u2*m1*m2"),
])
def test_denominator_products_are_parenthesized(text, ring, printed):
    op = evaluate(parse(text), ring)
    assert operator_str(op) == printed
    assert_printed_symbols_read_back(op)


def test_scalar_denominator_product_is_parenthesized():
    s = qp(-1, 2, 0) * qp(-1, 2, 1) * 3
    assert str(s) == "3/(q1*q2)"
    at = {"q1": Fraction(2), "q2": Fraction(3)}
    assert read_printed(str(s), at) == scalar_at(s, [2, 3])


def test_q_names_in_n_variables():
    op = evaluate(parse("q1^2*x1 - 3/(q1*q2)"), poly_n(2))
    assert operator_str(op) == "[e=(0, 0)] (-3/(q1*q2)); [e=(1, 0)] q1^2"
    assert expr_str(parse("q2/(q1 - 1)*x2")) == "q2/(q1-1)*x2"


@pytest.mark.parametrize("nv", [2, 3])
def test_potentials_read_back(nv):
    """integrate_nd answers on random bracket families (drawn as the
    nvariables suite draws them) print as text that reads back."""
    rng, dom = random.Random(nv), poly_n(nv)
    for _ in range(10):
        G = _rand_nd_op(rng, dom, 2)
        Q = integrate_nd([twisted_bracket(G, generator("x_i", dom, i))
                          for i in range(nv)])
        assert_printed_symbols_read_back(Q)


def test_scalar_power_base_is_parenthesized():
    assert expr_str(EPow(ENum(qp(2)), 2)) == "(q^2)^2"
    assert expr_str(EMul(EGen("x"), ENum(qp(2)))) == "x*q^2"


def test_eval_examples():
    sigma = generator("sigma", POLY_X, 1)
    assert equals(evaluate(parse("bracket(D[1], x)")), sigma)
    assert equals(evaluate(parse("D[0]*x - x*D[0]")), GradedOperator.identity(POLY_X))
    assert equals(evaluate(parse("s[1]^2*s[-1]^2")), GradedOperator.identity(POLY_X))


def test_eval_respects_domain():
    # the same text means the mirrored generators on k[y]
    ey = evaluate(parse("D[1]"), POLY_Y)
    assert ey.apply(RingElement.monomial(POLY_Y, 2)) \
        == RingElement.monomial(POLY_Y, 1, scalar(1) + qp(-1))
    with pytest.raises(UnsupportedGenerator):
        evaluate(parse("x"), poly_n(2))
    nd = evaluate(parse("bracket(D1[1], x1)"), poly_n(2))
    assert equals(nd, evaluate(parse("s[1,0]"), poly_n(2)))


def test_scalar_expressions_promote():
    op = evaluate(parse("(q - 1)^-1"))
    assert op.parts == {(0,): Symbol.constant((qp(1) - 1).inverse())}


def test_division_and_negative_powers():
    assert equals(evaluate(parse("x*D[1] / (q - 1)")),
                  evaluate(parse("(q-1)^-1 * x*D[1]")))
    assert equals(evaluate(parse("s[1]^-2")), evaluate(parse("s[-2]")))
    assert equals(evaluate(parse("(2*s[1])^-1")), evaluate(parse("1/2 * s[-1]")))


def test_decompose_degree0_examples():
    tau = parse("tau")
    assert expr_str(decompose_degree0(evaluate(tau))) == "tau"
    # u^2 m - 3 u^-1 reads off as s[2] tau - 3 s[-1]
    op = GradedOperator(POLY_X, {(0,): Symbol.term(1, 2, 1) + Symbol.term(-3, -1, 0)})
    back = decompose_degree0(op)
    assert equals(evaluate(back), op)
    assert expr_str(back) == "s[2]*tau-3*s[-1]"
    # x D[1] = (sigma - 1)/(q - 1)
    xd = compose(generator("x", POLY_X), generator("dbeta", POLY_X, 1))
    got = decompose_degree0(xd)
    assert equals(evaluate(got), xd)
    assert equals(evaluate(got), evaluate(parse("(q-1)^-1*s[1] - (q-1)^-1")))


def test_decompose_rejects_other_degrees():
    with pytest.raises(NotDegreeZero):
        decompose_degree0(evaluate(parse("x")))
    with pytest.raises(NotDegreeZero):
        decompose_degree0(evaluate(parse("x*D[1] + D[0]")))


def test_decompose_inverts_evaluation():
    rng = random.Random(13)
    texts = ["s[2]*tau", "tau^3 - s[-1]", "s[1]*tau + s[-2]*tau^2 - 5"]
    for t in texts:
        e = parse(t)
        assert equals(evaluate(decompose_degree0(evaluate(e))), evaluate(e))
    for _ in range(20):
        # random degree-zero words: equal numbers of x and D letters
        k = rng.randint(1, 3)
        letters = ["x"] * k + [f"D[{rng.randint(-1, 1)}]" for _ in range(k)]
        rng.shuffle(letters)
        e = parse("*".join(letters))
        assert equals(evaluate(decompose_degree0(evaluate(e))), evaluate(e))


@pytest.mark.parametrize("text,pos", [
    ("x +", 3),
    ("s[", 2),
    ("D[1", 3),
    ("x ** 2", 3),
    ("foo", 0),
    ("bracket(x)", 9),
])
def test_parse_error_positions(text, pos):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.pos == pos


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("x x")
