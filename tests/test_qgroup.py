"""Quantum-group words: plane action, the two morphisms, gluing, truncation."""

import random

from qdops.exactscalar import ExactScalar, scalar
from qdops.rings import PlaneElement, RingElement, POLY_X, POLY_Y
from qdops.opsym import (generator, equals, extend_to_laurent, is_m_free,
                         truncate_operator, is_integral_at_1, GradedOperator)
from qdops.opexpr import parse
from qdops.qgroup import (act_on_plane, alpha, gamma, eta, eta_truncated,
                          gamma_q_member, gamma_generators_check,
                          plane_alpha_consistent)

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
    rng = random.Random(8)
    letters = ["E", "F", "K", "Kinv"]
    for _ in range(25):
        w = "*".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        for m in range(5):
            assert plane_alpha_consistent(w, m), (w, m)


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
