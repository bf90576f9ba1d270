"""Named verification suites.

Every suite is a battery of identity checks computed exactly in Q(q)
(or its n-variable analogue); nothing is floating point and nothing is
tolerance-based.  Randomized batteries draw all randomness through
``random.Random(seed)``, so a (suite, max_degree, cases, seed) tuple
reproduces the same report byte for byte.

Reports are plain data (`SuiteReport` holding `CheckResult` rows) so the
command line tool can render them as text or JSON without re-running
anything.
"""

import itertools
import random
from fractions import Fraction

from .errors import UnknownSuite
from .exactscalar import ExactScalar, scalar
from .rings import LAURENT_X, POLY_X, POLY_Y, poly_n, RingElement
from .opsym import (GradedOperator, generator, twisted_bracket, equals,
                    is_m_free, is_integral_at_1, truncate_operator,
                    bracket_nilpotence_order, TruncatedOperator)
from .opexpr import (EGen, EMul, ENum, evaluate, decompose_degree0)
from .shapes import ShapeForm, shape_normalize
from . import algorithms as alg
from . import qgroup


class CheckResult:
    """One named identity (or identity family) inside a suite."""

    __slots__ = ("label", "passed", "cases", "detail")

    def __init__(self, label, passed, cases=1, detail=""):
        self.label = label
        self.passed = bool(passed)
        self.cases = int(cases)
        self.detail = detail

    def as_dict(self):
        d = {"label": self.label, "passed": self.passed, "cases": self.cases}
        if self.detail:
            d["detail"] = self.detail
        return d


class SuiteReport:
    __slots__ = ("name", "params", "checks")

    def __init__(self, name, params, checks):
        self.name = name
        self.params = dict(params)
        self.checks = list(checks)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def total_cases(self):
        return sum(c.cases for c in self.checks)

    def lines(self):
        out = [f"suite {self.name}  "
               + " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            line = f"  [{mark}] {c.label} ({c.cases} case"
            line += "s)" if c.cases != 1 else ")"
            if c.detail:
                line += f" -- {c.detail}"
            out.append(line)
        out.append(f"verdict: {'PASS' if self.passed else 'FAIL'} "
                   f"({self.total_cases} cases)")
        return out

    def as_dict(self):
        return {"suite": self.name,
                "params": self.params,
                "checks": [c.as_dict() for c in self.checks],
                "verdict": "PASS" if self.passed else "FAIL"}


# ---------------------------------------------------------------------------
# small constructors shared by the batteries
# ---------------------------------------------------------------------------

def _g(name, arg=None, domain=POLY_X):
    return generator(name, domain, arg)


def _one(domain=POLY_X):
    return GradedOperator.identity(domain)


def _qp(e):
    return ExactScalar.q_power(e)


_WORD_ATOMS = (("x", None), ("sigma", 1), ("sigma", -1), ("tau", None),
               ("dbeta", -2), ("dbeta", -1), ("dbeta", 0),
               ("dbeta", 1), ("dbeta", 2))


def _rand_scalar(rng, nvars=1):
    num = rng.choice((-3, -2, -1, 1, 2, 3))
    den = rng.randint(1, 3)
    c = ExactScalar.from_fraction(Fraction(num, den), nvars)
    e = rng.randint(-2, 2)
    if e:
        c = c * ExactScalar.q_power(e, nvars, var=rng.randrange(nvars))
    return c


def _rand_word(rng, length):
    gop = _one()
    for _ in range(length):
        name, arg = rng.choice(_WORD_ATOMS)
        gop = gop * _g(name, arg)
    return gop


def _rand_degree0(rng, natoms):
    """A random word of degree-zero factors: sigma powers, tau, x*dbeta."""
    x = _g("x")
    gop = _one()
    for _ in range(natoms):
        kind = rng.randrange(3)
        if kind == 0:
            gop = gop * _g("sigma", rng.choice((-2, -1, 1, 2)))
        elif kind == 1:
            gop = gop * _g("tau")
        else:
            gop = gop * (x * _g("dbeta", rng.randint(-2, 2)))
    return gop


def _mul_chain(factors):
    e = factors[0]
    for f in factors[1:]:
        e = EMul(e, f)
    return e


def _rand_degree0_expr(rng):
    """Random degree-zero expression over the shape-admissible leaves, at
    most 8 of them."""
    k = rng.randint(0, 3)  # number of x / D pairs
    leaves = [EGen("x")] * k
    leaves += [EGen("D", rng.choice((-1, 0, 1))) for _ in range(k)]
    for _ in range(rng.randint(0, 8 - 2 * k)):
        leaves.append(EGen("s", rng.choice((-1, 1))))
    if not leaves:
        return ENum(1)
    rng.shuffle(leaves)
    return _mul_chain(leaves)


# ---------------------------------------------------------------------------
# the batteries
# ---------------------------------------------------------------------------

def _family(label, verdicts):
    """One row for a family of cases: it passes when every case holds.

    Every case runs, even after one fails, so the count never depends on
    the verdicts and the random draws stay in order."""
    verdicts = [bool(v) for v in verdicts]
    return CheckResult(label, all(verdicts), len(verdicts))


def _suite_note_identities(md, cases, seed):
    amax = max(2, md)
    d = lambda a: _g("dbeta", a)
    s = lambda a: _g("sigma", a)

    def ladders(sign):
        one = ExactScalar.from_int(1)
        for a in range(1, amax + 1):
            ladder = sum((s(sign * i) for i in range(a)), _one() * 0)
            f = (one - _qp(sign)) / (one - _qp(sign * a))
            yield equals(d(sign * a), (d(sign) * ladder) * f)

    return [
        _family("one-step ladder, positive twist", ladders(1)),
        _family("zero twist is the classical derivative",
                (d(0).apply(RingElement.monomial(POLY_X, m))
                 == (RingElement.monomial(POLY_X, m - 1, m) if m
                     else RingElement.zero(POLY_X))
                 for m in range(0, 9))),
        _family("one-step ladder, negative twist", ladders(-1)),
        _family("twist mirror d^(a) = s[a] d^(-a)",
                (equals(d(a), s(a) * d(-a)) for a in range(-3, 4))),
    ]


def _suite_intrinsic_relations(md, cases, seed):
    rng = random.Random(seed)
    span = range(-max(1, md), max(1, md) + 1)
    d = lambda a: _g("dbeta", a)
    x = _g("x")
    one = _one()

    def probes():
        for _ in range(cases):
            e = _rand_degree0_expr(rng)
            op = evaluate(e)
            yield (equals(evaluate(shape_normalize(e).to_expr()), op)
                   and equals(evaluate(decompose_degree0(op)), op))

    return [
        _family("q-Leibniz family",
                (equals(d(a) * x - (x * d(a)) * _qp(a), one) for a in span)),
        _family("exchange family",
                (equals(d(a) * x * d(b), d(b) * x * d(a))
                 for a in span for b in span)),
        _family("special relation (both mirrors)",
                (equals(d(-a) - d(a) * _qp(a),
                        (d(-a) * x * d(a)) * (ExactScalar.from_int(1) - _qp(a)))
                 for a in (1, -1))),
        _family("relation completeness probe", probes()),
    ]


def _suite_d0_commutative(md, cases, seed):
    rng = random.Random(seed)
    word = lambda: _rand_degree0(rng, rng.randint(1, max(2, md)))
    pairs = ((word(), word()) for _ in range(cases))
    checks = [_family("degree-zero words commute",
                      (equals(a * b, b * a) for a, b in pairs))]
    gops = (word() * _rand_scalar(rng) for _ in range(cases // 2 or 1))
    checks.append(_family("decomposition round trip",
                          (equals(evaluate(decompose_degree0(g)), g)
                           for g in gops)))
    return checks


def _suite_domain_sample(md, cases, seed):
    rng = random.Random(seed)
    word = lambda: (_rand_word(rng, rng.randint(1, max(2, md)))
                    * _rand_scalar(rng))
    return [_family("products of nonzero words are nonzero",
                    (not (word() * word()).is_zero() for _ in range(cases)))]


def _suite_qcenter(md, cases, seed):
    rng = random.Random(seed)
    x = _g("x")
    d0 = _g("dbeta", 0)
    one = _one()
    word = lambda: _rand_word(rng, rng.randint(1, max(2, md)))

    pairs = ((one * _rand_scalar(rng), word()) for _ in range(cases))
    checks = [_family("scalars are central",
                      (equals(c * w, w * c) for c, w in pairs))]
    checks.append(CheckResult("the coordinate is not central",
                              not equals(d0 * x, x * d0)))
    words = (word() for _ in range(cases))
    checks.append(_family(
        "sampled words central iff scalar",
        ((equals(w * x, x * w) and equals(w * d0, d0 * w))
         == (alg._as_scalar_op(w) is not None) for w in words)))
    return checks


def _suite_immediate_formulae(md, cases, seed):
    k = max(2, md)
    d = lambda a: _g("dbeta", a)
    x = _g("x")
    tau = _g("tau")
    s1 = _g("sigma", 1)
    one = _one()
    qm1 = _qp(1) - ExactScalar.from_int(1)

    def multi_index():
        for L in (1, 2, 3):
            for I in itertools.product((0, 1), repeat=L):
                lhs = _one()
                rhs = _one()
                for j, ij in enumerate(I, start=1):
                    if ij:
                        lhs = lhs * (tau + one * j)
                        rhs = rhs * ((s1 * _qp(j) - one) * qm1.inverse())
                for a in I:
                    lhs = lhs * d(a)
                for _ in range(len(I)):
                    rhs = rhs * d(0)
                yield equals(lhs, rhs)

    # the twist that makes these hold is -1: the bracket is dd^b - q d^b d
    br = twisted_bracket(d(0), d(1), -1)
    return [
        _family("bracket of the two derivatives against x",
                (equals(x * br, d(0) - d(1)),
                 equals(br * x, d(0) - d(1) * _qp(1)))),
        _family("tau shifts by one across a derivative",
                (equals((tau + one * kk) * d(a), d(a) * (tau + one * (kk - 1)))
                 for kk in range(-k, k + 1) for a in range(-k, k + 1))),
        CheckResult("tau+1 against the one-step derivative",
                    equals((tau + one) * d(1),
                           ((s1 * _qp(1) - one) * qm1.inverse()) * d(0))),
        _family("multi-index generalization", multi_index()),
    ]


def _rand_nd_op(rng, dom, md):
    """One to three terms  c * x^xexp * (D-word) * s[twist]  on k[x_1..x_n]."""
    nv = dom.nvars
    G = GradedOperator.zero(dom)
    for _ in range(rng.randint(1, 3)):
        term = _one(dom) * _rand_scalar(rng, nv)
        for i in range(nv):
            term = term * _g("x_i", i, dom) ** rng.randint(0, max(1, md))
        for _ in range(rng.randint(0, 2)):
            term = term * _g("dbeta_i",
                             (rng.randrange(nv), rng.randint(-2, 2)), dom)
        twist = tuple(rng.randint(-1, 1) for _ in range(nv))
        G = G + term * _g("sigma_vec", twist, dom)
    return G


def _suite_nvariables(md, cases, seed):
    rng = random.Random(seed)
    krange = [k for k in range(-max(2, md), max(2, md) + 1)]
    checks = []

    for nv in (2, 3):
        dom = poly_n(nv)
        one = _one(dom)
        xs = [_g("x_i", i, dom) for i in range(nv)]
        D = lambda i, k: _g("dbeta_i", (i, k), dom)

        def commuting():
            for i, j in itertools.permutations(range(nv), 2):
                for k in krange:
                    yield twisted_bracket(D(i, k), xs[j]).is_zero()
                for k, l in itertools.product(krange, repeat=2):
                    yield twisted_bracket(D(i, k), D(j, l)).is_zero()
            for i in range(nv):
                for k in krange:
                    a = tuple(rng.randint(-2, 2) if j != i else 0
                              for j in range(nv))
                    yield twisted_bracket(D(i, k),
                                          _g("sigma_vec", a, dom)).is_zero()

        def pushes():
            for i in range(nv):
                for k in krange:
                    qnum = ((ExactScalar.q_power(k, nv, var=i) - 1)
                            / (ExactScalar.q_power(1, nv, var=i) - 1)) \
                        if k else ExactScalar.from_int(1, nv)
                    sig = _g("sigma_vec",
                             tuple(k if j == i else 0 for j in range(nv)),
                             dom) if k else one
                    yield equals(twisted_bracket(D(i, k), xs[i]), sig * qnum)
                    yield equals(D(i, k) * xs[i],
                                 (xs[i] * D(i, k))
                                 * ExactScalar.q_power(k, nv, var=i)
                                 + one * qnum)
                    if k:
                        yield equals(sig, one + (xs[i] * D(i, k))
                                     * (ExactScalar.q_power(1, nv, var=i) - 1))

        checks.append(_family(f"distinct coordinates commute (n={nv})",
                              commuting()))
        checks.append(_family(f"same-coordinate push relations (n={nv})",
                              pushes()))

        def potentials():
            for _ in range(max(1, cases)):
                G = _rand_nd_op(rng, dom, md)
                family = [twisted_bracket(G, x) for x in xs]
                Q = alg.integrate_nd(family)
                yield Q.check_preserves() and all(
                    equals(twisted_bracket(Q, x), f)
                    for x, f in zip(xs, family))

        checks.append(_family(
            f"multi-integration on bracket families (n={nv})", potentials()))
    return checks


def _suite_integrate_exhaustive(md, cases, seed):
    rng = random.Random(seed)
    top = max(1, md)
    return [
        _family(f"exhaustive words of length <= {top}",
                (alg.verify_integration(w, b)[1]
                 for L in range(0, top + 1)
                 for w in itertools.product((-2, -1, 0, 1, 2), repeat=L)
                 for b in range(-3, 4))),
        _family("random words of length 4",
                (alg.verify_integration(
                    tuple(rng.randint(-2, 2) for _ in range(4)),
                    rng.randint(-3, 3))[1]
                 for _ in range(cases))),
    ]


def _rand_shape(rng, md):
    sf = ShapeForm.zero()
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(-2, 2)
        I = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3)))
        p = {}
        for _ in range(rng.randint(1, 2)):
            p[rng.randint(0, max(1, md))] = _rand_scalar(rng)
        sf = sf + ShapeForm.of_term(a, p, I)
    return sf


def _suite_simplicity_random(md, cases, seed):
    rng = random.Random(seed)

    def witness_case():
        """(replays to the identity, measure strictly decreases)"""
        sf = _rand_shape(rng, md)
        if sf.is_zero() or evaluate(sf.to_expr()).is_zero():
            sf = ShapeForm.of_term(0, {rng.randint(1, 3): _rand_scalar(rng)},
                                   (1,))
        w = alg.simplicity_witness(sf)
        return (alg.replay(w, sf).is_identity(),
                all(after < before
                    for before, after in zip(w.measures, w.measures[1:])))

    runs = [witness_case() for _ in range(cases)]
    return [_family("witness replays to the identity",
                    (replayed for replayed, _ in runs)),
            _family("termination measure strictly decreases",
                    (decreasing for _, decreasing in runs))]


def _suite_gamma_generators(md, cases, seed):
    return [CheckResult(name, good)
            for name, good in qgroup.gamma_generators_check()]


def _uq_relation_exprs():
    """(label, lhs-word, rhs-word, rhs-scale) with scale applied to rhs."""
    one = ExactScalar.from_int(1)
    return [
        ("K Kinv = 1", "K*Kinv", "", one),
        ("Kinv K = 1", "Kinv*K", "", one),
        ("K E Kinv = q^2 E", "K*E*Kinv", "E", _qp(2)),
        ("K F Kinv = q^-2 F", "K*F*Kinv", "F", _qp(-2)),
        ("EF - FE = (K - Kinv)/(q - q^-1)", "E*F - F*E", "K - Kinv",
         (_qp(1) - _qp(-1)).inverse()),
    ]


def _suite_uq_relations(md, cases, seed):
    rel = _uq_relation_exprs()
    checks = [
        _family(f"defining relations under {which}",
                (equals(hom(lhs), (_one(dom) if not rhs else hom(rhs))
                        * scalar(c))
                 for _, lhs, rhs, c in rel))
        for which, hom, dom in (("alpha", qgroup.alpha, POLY_X),
                                ("gamma", qgroup.gamma, POLY_Y))]

    bound = max(1, md)
    # one identity of line operators per line a + b = n and relation; a
    # monomial's verdicts are its line's (u is not inverted, so a >= 0)
    lines = {n: [equals(qgroup.plane_line_operator(lhs, n),
                        (_one(LAURENT_X) if not rhs
                         else qgroup.plane_line_operator(rhs, n)) * c)
                 for _, lhs, rhs, c in rel]
             for n in range(-bound, 2 * bound + 1)}
    checks.append(_family(
        f"defining relations on plane monomials |a|,|b| <= {bound}",
        (ok for a in range(0, bound + 1) for b in range(-bound, bound + 1)
         for ok in lines[a + b])))
    return checks


def _suite_uq_plane_consistency(md, cases, seed):
    letters = ("E", "F", "K", "Kinv")

    def consistent():
        # one symbol identity per word decides every x^m
        for L in range(1, 5):
            for w in itertools.product(letters, repeat=L):
                ok = qgroup.plane_alpha_consistent(
                    _mul_chain([EGen(c) for c in w]))
                yield from itertools.repeat(ok, max(1, md) + 1)

    return [_family("plane action matches the coordinate-line image",
                    consistent())]


def _suite_nonsurjectivity(md, cases, seed):
    rng = random.Random(seed)
    letters = [qgroup.alpha(w) for w in ("E", "F", "K", "Kinv")]

    def images():
        for _ in range(cases):
            gop = _one()
            for _ in range(rng.randint(1, max(2, md))):
                gop = gop * rng.choice(letters)
            yield is_m_free(gop * _rand_scalar(rng))

    return [
        _family("images of quantum-group words are m-free", images()),
        CheckResult("the classical derivative is not m-free",
                    not is_m_free(_g("dbeta", 0))),
        CheckResult("the excluded pair glues but cannot be reached",
                    qgroup.gamma_q_member(qgroup.gamma_q_pairs()[0])),
    ]


def _suite_truncation(md, cases, seed):
    rng = random.Random(seed)
    per = max(1, cases // 4)
    d = lambda a: _g("dbeta", a)
    t1 = truncate_operator(d(0), 1)

    def ring_map(level):
        for _ in range(per):
            a = _rand_word(rng, rng.randint(1, 3))
            b = _rand_word(rng, rng.randint(1, 3))
            ta = truncate_operator(a, level)
            tb = truncate_operator(b, level)
            yield truncate_operator(a * b, level) == ta * tb
            yield truncate_operator(a + b, level) == ta + tb

    def landmarks():
        yield bracket_nilpotence_order(t1) == 2
        # sigma truncated mod (q-1)^n needs exactly n brackets: each one
        # trades an m-degree for a power of t
        for lvl in (1, 2, 3, 4):
            yield bracket_nilpotence_order(
                truncate_operator(_g("sigma", 1), lvl)) == lvl
        yield bracket_nilpotence_order(TruncatedOperator.zero(POLY_X, 2)) == 0

    def bounded():
        for _ in range(per):
            tr = truncate_operator(_rand_word(rng, rng.randint(1, 3)),
                                   rng.randint(1, 3))
            yield bracket_nilpotence_order(tr) <= tr.max_m_degree() + 1

    checks = [_family(f"truncation is a ring map at level {level}",
                      ring_map(level)) for level in (1, 2, 3, 4)]
    checks.append(_family(
        "one-step derivatives collapse to the classical one at level 1",
        (truncate_operator(d(1), 1) == t1, truncate_operator(d(-1), 1) == t1)))
    checks.append(_family("nilpotence orders of the landmarks", landmarks()))
    checks.append(_family("nilpotence bounded by m-degree plus one",
                          bounded()))
    return checks


def _suite_eta1_surjectivity(md, cases, seed):
    pairs = qgroup.gamma_q_pairs()
    checks = []
    for letter, which, (dx, dy) in (("F", "first", pairs[0]),
                                    ("E", "second", pairs[1])):
        ax, ay = qgroup.eta_truncated(letter, 1)
        checks.append(_family(
            f"level-1 image of {letter} is the {which} generator pair",
            (ax == truncate_operator(dx, 1), ay == truncate_operator(dy, 1))))
    checks.append(_family(
        "divided powers are integral",
        (all(map(is_integral_at_1, qgroup.eta(w)))
         for m in range(1, max(2, md) + 1)
         for w in (f"Ediv[{m}]", f"Fdiv[{m}]"))))
    return checks


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# name -> (battery, default max_degree, default cases, default seed)
_SUITES = {
    "note-identities": (_suite_note_identities, 5, 0, 0),
    "intrinsic-relations": (_suite_intrinsic_relations, 3, 500, 0),
    "d0-commutative": (_suite_d0_commutative, 4, 200, 0),
    "domain-sample": (_suite_domain_sample, 4, 200, 0),
    "qcenter": (_suite_qcenter, 4, 100, 0),
    "immediate-formulae": (_suite_immediate_formulae, 2, 0, 0),
    "nvariables": (_suite_nvariables, 2, 6, 0),
    "integrate-exhaustive": (_suite_integrate_exhaustive, 3, 100, 0),
    "simplicity-random": (_suite_simplicity_random, 3, 200, 0),
    "gamma-generators": (_suite_gamma_generators, 0, 0, 0),
    "uq-relations": (_suite_uq_relations, 6, 0, 0),
    "uq-plane-consistency": (_suite_uq_plane_consistency, 4, 0, 0),
    "nonsurjectivity": (_suite_nonsurjectivity, 6, 100, 0),
    "truncation": (_suite_truncation, 0, 100, 0),
    "eta1-surjectivity": (_suite_eta1_surjectivity, 5, 0, 0),
}


def suite_names():
    return sorted(_SUITES)


def verify_suite(name, max_degree=None, cases=None, seed=None):
    """Run the named battery; all checks are exact."""
    try:
        fn, d_md, d_cases, d_seed = _SUITES[name]
    except KeyError:
        raise UnknownSuite(f"unknown suite {name!r}; known: "
                           + ", ".join(suite_names())) from None
    md = d_md if max_degree is None else int(max_degree)
    cs = d_cases if cases is None else int(cases)
    sd = d_seed if seed is None else int(seed)
    checks = fn(md, cs, sd)
    return SuiteReport(name, {"max_degree": md, "cases": cs, "seed": sd},
                       checks)
