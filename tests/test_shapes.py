"""Shape-form rewriting: every expression flattens to sum of s^a p(x) D^I."""

import random

import pytest

from qdops.exactscalar import ExactScalar, scalar
from qdops.opexpr import parse, evaluate, EGen
from qdops.opsym import equals
from qdops.shapes import ShapeForm, shape_normalize
from qdops.errors import EngineError, UnsupportedGenerator

qp = ExactScalar.q_power


def norm(text):
    return shape_normalize(parse(text))


def classes(sf):
    return {k: dict(p) for k, p in sf.classes.items()}


def test_single_rewrites():
    # D x = q x D + 1
    assert classes(norm("D[1]*x")) == {(0, (1,)): {1: qp(1)}, (0, ()): {0: scalar(1)}}
    # x s = q^-1 s x
    assert classes(norm("x*s[1]")) == {(1, ()): {1: qp(-1)}}
    assert classes(norm("D[0]")) == {(0, (0,)): {0: scalar(1)}}


def test_inverse_twist_eliminated():
    # D[-1] becomes s^-1 D[1]; no word ever contains an entry besides 0/1
    sf = norm("D[-1]*x*D[-1]")
    for (_, word) in sf.classes:
        assert set(word) <= {0, 1}
    assert equals(evaluate(sf.to_expr()), evaluate(parse("D[-1]*x*D[-1]")))


WORDS = ["x", "s[1]", "s[-1]", "D[0]", "D[1]", "D[-1]", "tau"]


def rand_expr_text(rng):
    n = rng.randint(1, 8)
    parts = []
    for _ in range(n):
        w = rng.choice(WORDS)
        if w != "tau" and rng.random() < 0.2:
            w += f"^{rng.randint(1, 2)}"
        parts.append(w)
    text = "*".join(parts)
    if rng.random() < 0.4:
        text = f"({text}) + {rng.randint(-3, 3)}*x"
    return text


def test_round_trip_random():
    rng = random.Random(77)
    for _ in range(50):
        text = rand_expr_text(rng)
        e = parse(text)
        assert equals(evaluate(shape_normalize(e).to_expr()), evaluate(e))


BRACKET_OPERANDS = ["x", "x^2", "s[1]", "s[-1]", "D[0]", "D[1]", "D[-1]",
                    "tau", "(x+1)", "(2*s[-1])^-1"]


@pytest.mark.parametrize("t", range(-2, 3))
def test_twisted_brackets_keep_their_value(t):
    for a in BRACKET_OPERANDS:
        for b in BRACKET_OPERANDS:
            e = parse(f"bracket({a},{b},{t})")
            assert equals(evaluate(shape_normalize(e).to_expr()),
                          evaluate(e)), (a, b)


@pytest.mark.parametrize("text", [
    "s[1]^-2", "(2*s[-1])^-1", "(q*s[2])^-3", "x*(3*s[1])^-2*D[1]", "2^-3"])
def test_negative_powers_of_invertible_factors(text):
    e = parse(text)
    assert equals(evaluate(shape_normalize(e).to_expr()), evaluate(e))


@pytest.mark.parametrize("text", ["x^-1", "(s[1]+1)^-1", "D[0]^-1",
                                  "(x*s[1])^-2"])
def test_negative_power_of_a_non_invertible_factor(text):
    with pytest.raises(EngineError):
        shape_normalize(parse(text))


def test_bracket_x_move_matches_engine():
    rng = random.Random(5)
    x = evaluate(parse("x"))
    for _ in range(30):
        e = parse(rand_expr_text(rng))
        sf = shape_normalize(e)
        lhs = evaluate(sf.bracket_x().to_expr())
        op = evaluate(e)
        assert equals(lhs, op * x - x * op)


def test_left_sigma_move():
    sf = norm("x*D[1]")
    assert equals(evaluate(sf.left_sigma(2).to_expr()),
                  evaluate(parse("s[2]*x*D[1]")))


def test_unsupported_leaf():
    with pytest.raises(UnsupportedGenerator):
        shape_normalize(EGen("nope"))
    with pytest.raises(UnsupportedGenerator):
        shape_normalize(EGen("D", 2))


def test_tau_is_admitted_via_x_dbeta():
    # tau = x*D[0] has a shape even though it is not a word generator itself
    sf = norm("tau")
    assert equals(evaluate(sf.to_expr()), evaluate(parse("x*D[0]")))


def test_inspection_helpers():
    sf = norm("s[2]*x^3*D[1]*D[0] + s[-1]*x")
    assert sf.max_word_len() == 2
    assert sf.top_classes() == [(2, (1, 0))]
    assert sf.sigma_exponents() == [-1, 2]
