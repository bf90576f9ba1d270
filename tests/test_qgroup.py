"""Quantum-group words: plane action, the two morphisms, gluing, truncation."""

import itertools
import random

import pytest

from qdops import qgroup
from qdops.errors import EngineError
from qdops.exactscalar import ExactScalar, q_factorial, q_number, scalar
from qdops.rings import (PlaneElement, RingElement, POLY_X, POLY_Y,
                         LAURENT_X, plane_to_x_poly, x_of_plane)
from qdops.opsym import (generator, equals, extend_to_laurent, is_m_free,
                         truncate_operator, is_integral_at_1, GradedOperator)
from qdops.opexpr import parse
from qdops.qgroup import (act_on_plane, alpha, gamma, eta, eta_truncated,
                          gamma_q_member, gamma_generators_check,
                          plane_alpha_consistent, plane_line_operator)

qp = ExactScalar.q_power

U = PlaneElement.monomial(1, 0)
V = PlaneElement.monomial(0, 1)
VINV = PlaneElement.monomial(0, -1)


def test_plane_base_actions():
    assert act_on_plane("E", U).is_zero()
    assert act_on_plane("E", V) == U
    assert act_on_plane("F", U) == V
    assert act_on_plane("F", V).is_zero()
    assert act_on_plane("K", U) == U * qp(1)
    assert act_on_plane("K", V) == V * qp(-1)


def test_plane_localized_actions():
    # E(1/v) = -q (1/v) u (1/v), in normal form -q^2 u v^-2
    assert act_on_plane("E", VINV) == PlaneElement.monomial(1, -2, -qp(2))
    assert act_on_plane("F", VINV).is_zero()
    assert act_on_plane("K", VINV) == VINV * qp(1)
    # coproduct recursion on a product
    assert act_on_plane("E", V * V) == U * V * (scalar(1) + qp(-2))


def test_plane_respects_defining_relation():
    rel = U * V - (V * U) * qp(1)
    assert rel.is_zero()
    z = PlaneElement.zero()
    for g in ("E", "F", "K", "Kinv"):
        assert act_on_plane(g, z).is_zero()


def test_uq_relations_on_plane_sample():
    ef = parse("E*F - F*E", mode="uq")
    kk = parse("(K - Kinv)", mode="uq")
    c = (qp(1) - qp(-1)).inverse()
    for a in range(0, 4):
        for b in range(-3, 4):
            m = PlaneElement.monomial(a, b)
            lhs = act_on_plane(ef, m)
            rhs = act_on_plane(kk, m) * c
            assert lhs == rhs, (a, b)


def test_alpha_values():
    x = RingElement.monomial(POLY_X, 1)
    assert alpha("F").apply(x) == RingElement.one(POLY_X) * qp(-1)
    assert alpha("E").apply(x) == RingElement.monomial(POLY_X, 2, -qp(2))
    assert equals(alpha("K*Kinv"), GradedOperator.identity(POLY_X))


def test_gamma_values():
    y = RingElement.monomial(POLY_Y, 1)
    assert gamma("E").apply(y) == RingElement.one(POLY_Y)
    y3 = RingElement.monomial(POLY_Y, 3)
    assert gamma("K").apply(y3) == y3 * qp(-6)
    assert equals(gamma("Kinv*K"), GradedOperator.identity(POLY_Y))


def test_generator_pairs_and_formulas():
    report = gamma_generators_check()
    assert len(report) == 9
    for name, ok in report:
        assert ok, name


def test_gamma_q_member_examples():
    y = generator("y", POLY_Y)
    pd_y = generator("partial_y", POLY_Y)
    d0 = generator("dbeta", POLY_X, 0)
    x = generator("x", POLY_X)
    assert gamma_q_member((d0, -(y * y * pd_y)))
    assert gamma_q_member((-(x * x * d0), pd_y))
    assert not gamma_q_member((d0, pd_y))


def test_eta_glues():
    for w in ("E", "F", "K", "Kinv", "E*F", "K*E - 3*F"):
        dx, dy = eta(w)
        assert equals(extend_to_laurent(dx), extend_to_laurent(dy))


def test_alpha_images_are_m_free():
    rng = random.Random(6)
    letters = ["E", "F", "K", "Kinv"]
    for _ in range(30):
        w = "*".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        assert is_m_free(alpha(w))
    assert not is_m_free(generator("dbeta", POLY_X, 0))


def test_plane_matches_alpha_on_x_line():
    # the symbol identity, and pointwise through the x-line embedding
    rng = random.Random(8)
    letters = ["E", "F", "K", "Kinv"]
    for _ in range(25):
        w = "*".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        assert plane_alpha_consistent(w), w
        op = alpha(w)
        for m in range(5):
            back = plane_to_x_poly(act_on_plane(w, x_of_plane(m)))
            assert back == op.apply(RingElement.monomial(POLY_X, m)), (w, m)


def test_plane_alpha_check_catches_a_wrong_image(monkeypatch):
    f = alpha("F")
    monkeypatch.setattr(qgroup, "alpha", lambda w: f)
    assert plane_alpha_consistent("F")
    assert not plane_alpha_consistent("E")


def test_eta_truncated_level_one():
    ax, gy = eta_truncated("F", 1)
    y = generator("y", POLY_Y)
    pd_y = generator("partial_y", POLY_Y)
    assert ax == truncate_operator(generator("dbeta", POLY_X, 0), 1)
    assert gy == truncate_operator(-(y * y * pd_y), 1)
    ax, gy = eta_truncated("E", 1)
    x = generator("x", POLY_X)
    assert ax == truncate_operator(-(x * x * generator("dbeta", POLY_X, 0)), 1)
    assert gy == truncate_operator(pd_y, 1)
    ax, gy = eta_truncated("K", 1)
    assert ax == truncate_operator(GradedOperator.identity(POLY_X), 1)


def test_divided_power_integrality():
    # integrality is a property of the whole symbol, not of each coefficient:
    # the 1/(q-1) poles of the individual terms cancel as functions of m
    for m in range(6):
        for w in (f"Ediv[{m}]", f"Fdiv[{m}]"):
            for op in (alpha(w), gamma(w)):
                assert is_integral_at_1(op), (w, m)
    bad = GradedOperator.identity(POLY_X) * (qp(1) - 1).inverse()
    assert not is_integral_at_1(bad)


def test_divided_power_plane_action():
    # E^(2) on v^2: E(E(v^2)) / [2]! with the balanced factorial
    direct = act_on_plane("E", act_on_plane("E", V * V))
    bal2 = qp(-1) + qp(1)
    assert act_on_plane("Ediv[2]", V * V) == direct * bal2.inverse()


def test_plane_action_follows_the_coproduct():
    # E(st) = E(s)t + K(s)E(t) and F(st) = sF(t) + F(s)K^-1(t)
    monos = [PlaneElement.monomial(a, b) for a in range(7) for b in range(-6, 7)]
    act = {w: {m: act_on_plane(w, m) for m in monos}
           for w in ("E", "F", "K", "Kinv")}
    E, F = (parse(w, mode="uq") for w in ("E", "F"))
    for s in monos:
        for t in monos:
            st = s * t
            assert act_on_plane(E, st) == act["E"][s] * t \
                + act["K"][s] * act["E"][t]
            assert act_on_plane(F, st) == s * act["F"][t] \
                + act["F"][s] * act["Kinv"][t]


# ---------------------------------------------------------------------------
# the closed form of the plane action, as an independent reference
# ---------------------------------------------------------------------------

def _closed_form(letter, s):
    """One letter on a plane element, monomial by monomial:
    E(u^a v^b) = q^(a+1-b)[b] u^(a+1) v^(b-1),
    F(u^a v^b) = q^(b+1-a)[a] u^(a-1) v^(b+1),
    K(u^a v^b) = q^(a-b) u^a v^b, and Kinv its inverse."""
    out = []
    for (a, b), c in s.terms.items():
        if letter == "E":
            out.append(((a + 1, b - 1),
                        c * qp(a + 1 - b) * q_number(b, "balanced")))
        elif letter == "F" and a:
            out.append(((a - 1, b + 1),
                        c * qp(b + 1 - a) * q_number(a, "balanced")))
        elif letter in ("K", "Kinv"):
            out.append(((a, b), c * qp((a - b) * (1 if letter == "K" else -1))))
    return PlaneElement(out)


def _word(letters):
    """The closed-form action of a product of letters (rightmost first)."""
    def act(s):
        for letter in reversed(letters):
            s = _closed_form(letter, s)
        return s
    return act


def _reference_words():
    letters = ("E", "F", "K", "Kinv")
    out = [("*".join(w), _word(w)) for n in (1, 2, 3)
           for w in itertools.product(letters, repeat=n)]
    for k in range(4):
        for g in ("E", "F"):
            inv = q_factorial(k).inverse()
            out.append((f"{g}div[{k}]",
                        lambda s, g=g, k=k, inv=inv: _word([g] * k)(s) * inv))
    c = (qp(2) + 1) / (qp(1) + 3)
    out.append(("(q^2 + 1)*E*K/(q + 3)", lambda s: _word(["E", "K"])(s) * c))
    out.append(("-2*Kinv*F", lambda s: _word(["Kinv", "F"])(s) * -2))
    out.append(("bracket(E, F)", lambda s: _word(["E", "F"])(s)
                - _word(["F", "E"])(s)))
    return out


def test_plane_action_matches_the_closed_form():
    monos = [PlaneElement.monomial(a, b)
             for a in range(7) for b in range(-6, 7)]
    for w, ref in _reference_words():
        expr = parse(w, mode="uq")
        for m in monos:
            assert act_on_plane(expr, m) == ref(m), (w, m)


_RELATIONS = [
    ("K*Kinv", "", 1), ("Kinv*K", "", 1),
    ("K*E*Kinv", "E", qp(2)), ("K*F*Kinv", "F", qp(-2)),
    ("E*F - F*E", "K - Kinv", (qp(1) - qp(-1)).inverse()),
]


def test_line_operators_satisfy_the_defining_relations():
    # one identity of symbols per line decides the relation on every
    # monomial u^(n-b) v^b of the line at once
    one = GradedOperator.identity(LAURENT_X)
    for n in range(-6, 13):
        op = lambda w: plane_line_operator(w, n)
        for lhs, rhs, c in _RELATIONS:
            assert equals(op(lhs), (op(rhs) if rhs else one) * c), (n, lhs)
        assert not equals(op("K*E*Kinv"), op("E") * qp(-2)), n


def test_scalars_in_words_evaluate_as_scalars():
    # a scalar factor is a scalar wherever it stands, so q^-1 and the
    # inverse of q - q^-1 are legal, and a divisor is an ordinary child
    assert equals(alpha("q^-1*E"), alpha("E/q"))
    assert equals(gamma("q^-1*E"), gamma("E/q"))
    for n in range(-3, 4):
        assert equals(plane_line_operator("q^-1*E", n),
                      plane_line_operator("E/q", n))
    assert equals(alpha("(q-q^-1)^-1*(K-Kinv)"), alpha("E*F - F*E"))
    assert equals(alpha("q^-2"), GradedOperator.identity(POLY_X) * qp(-2))


def test_plane_word_errors_are_typed():
    s = PlaneElement.monomial(1, 1)
    with pytest.raises(EngineError, match="U_q brackets are untwisted"):
        act_on_plane("bracket(E, F, 1)", s)
    with pytest.raises(EngineError, match="negative power of a U_q word"):
        act_on_plane("E^-1", s)
