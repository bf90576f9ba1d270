"""Constructive procedures: the bracket antiderivative ("find Q with
[Q, x] = P sigma_b") as an expression dag, the several-variable potential
("find Q with [Q, x_i] = F_i"), solved part by part on the symbols of the
F_i, and the simplicity witness that rewrites any nonzero operator down
to 1 by left multiplications, brackets and a final scale.
"""

from __future__ import annotations

from .errors import CompatibilityViolation, EngineError, ZeroOperator
from .exactscalar import ExactScalar
from .opexpr import (
    EAdd,
    EBracket,
    EDiv,
    EGen,
    EMul,
    ENum,
    EPow,
    ESub,
    OperatorExpr,
    evaluate,
)
from .opsym import GradedOperator, Symbol, equals, generator, twisted_bracket
from .rings import POLY_X, poly_n
from .shapes import ShapeForm, shape_normalize

# ---------------------------------------------------------------------------
# one-variable bracket antiderivative
# ---------------------------------------------------------------------------
#
# A word (a_1, ..., a_n) encodes the product P = D[a_n] ... D[a_1]
# (a_1 is the rightmost factor).  integrate returns Q with [Q, x] = P s[b].

# the most nodes integrate keeps: a top-level call that finds more starts
# the dag, its values and their parts afresh.  A node with its value takes
# about 2.2 kB, so the bound holds the whole state under 7 MB, no more
# values than the 3072 the memo held when it had a bound of its own.  One
# integrate-verify pass builds 2,557-2,587 nodes, criterion 6 2,586 and a
# whole tier-1 test session 2,823, so none of them starts afresh
INT_DAG_SIZE = 3072


class _IntDag(dict):
    """The nodes `integrate` built, words and pieces, each mapped to its
    value on POLY_X (None until `verify_integration` evaluates it): the
    `known` memo of `opexpr._fold`, whose `keep` stores values of these
    nodes only.  `nodes` finds a word's node under (word, b) and a piece's under
    (t, b, a).  A value is worth keeping while its node can be reached
    again, so nodes, values and the parts table live and are cleared
    together.  The antiderivative of a word is a sum of pieces, each
    built from that of a shorter word and shared by the word's rotations,
    so verifying it reuses their values.

    A pass holds tens of thousands of scalars, polynomials and symbol
    keys in its values but few distinct ones (3,896 polynomials and 55
    keys among 34,952 and 17,476 references), so `keep` stores each value
    rebuilt from shared parts: every shift, symbol key, scalar, `Fraction`
    and num/den tuple becomes the first equal one kept, found in the table
    `parts` (hash-consing).  The parts are immutable, so sharing them
    changes no result."""

    def __init__(self):
        super().__init__()
        self.nodes = {}         # (word, b) or (t, b, a) -> node
        self.parts = {}         # the first kept copy of each equal part

    def clear(self):
        super().clear()
        self.nodes.clear()
        self.parts.clear()

    def add(self, key, node):
        self.nodes[key] = node
        self[node] = None
        return node

    def keep(self, e, value):
        if e in self:
            self[e] = self._operator(value)

    def _share(self, x):
        """The first kept part equal to x, or x itself, kept from now on.
        A scalar can equal a Fraction, so only a hit of x's type counts."""
        hit = self.parts.setdefault(x, x)
        return hit if type(hit) is type(x) else x

    def _scalar(self, c):
        # on POLY_X, N and D are tuples
        share = self._share
        return share(ExactScalar._canonical(c.nvars, share(c.c),
                                            share(c.num), share(c.den)))

    def _operator(self, op):
        share, scalar = self._share, self._scalar
        return GradedOperator(op.domain, (
            (share(e), Symbol(s.nvars, ((share(k), scalar(c))
                                        for k, c in s.coeffs.items())))
            for e, s in op.parts.items()))


_int_cache = _IntDag()


def _qp(e):
    return ExactScalar.q_power(e)


def _piece(t, b, a):
    """[T, D[a]]_k = T D[a] - q^{-k} D[a] T with T = integrate(t, b) and
    k = -(len(t) + 1) a: the piece of the cyclic decomposition that every
    rotation of the word (a,) + t shares.  It is built once and added to
    `_int_cache` under the key (t, b, a), so verification keeps its value
    like a word's."""
    key = (t, b, a)
    hit = _int_cache.nodes.get(key)
    if hit is None:
        T, d = _integrate(t, b), EGen("D", a)
        rhs = EMul(d, T)
        w = (len(t) + 1) * a
        if w:
            rhs = EMul(ENum(_qp(w)), rhs)
        hit = _int_cache.add(key, ESub(EMul(T, d), rhs))
    return hit


def integrate(word, b=0):
    """Q with eval([Q, x]) = eval(D[a_n]*...*D[a_1]*s[b]), exactly."""
    if len(_int_cache) > INT_DAG_SIZE:
        # only here, between top-level calls: the words and pieces one
        # call builds keep sharing their pieces
        _int_cache.clear()
    return _integrate(tuple(int(a) for a in word), int(b))


def _integrate(word, b):
    key = (word, b)
    hit = _int_cache.nodes.get(key)
    if hit is not None:
        return hit

    n = len(word)
    total = sum(word)
    if n == 0:
        out = EGen("D", b)
    elif b == -total and any(word):
        # flip one twisted factor through the word: D[a] = s[a]*D[-a], and
        # carrying s[a] right past a degree -1 factor costs q^{-a} each.
        j = n if word[n - 1] != 0 else next(
            i for i in range(1, n + 1) if word[i - 1] != 0)
        a = word[j - 1]
        flipped = word[:j - 1] + (-a,) + word[j:]
        inner = _integrate(flipped, b + a)
        # s[a] passes the flipped factor and the j-1 letters right of it
        mult = -a * j
        out = EMul(ENum(_qp(mult)), inner) if mult else inner
    elif not any(word) and b == 0:
        out = EDiv(EPow(EGen("D", 0), n + 1), ENum(n + 1))
    else:
        # cyclic decomposition: T_i integrates the word with a_i removed
        # and the remaining letters rotated so a_{i+1} comes rightmost.
        # The piece [T_i, D[a_i]]_{k_i} depends on a_i and those letters
        # alone, so the rotations of a word share theirs (`_piece`).
        terms = None
        ksum = 0
        for i in range(1, n + 1):
            a_i = word[i - 1]
            t_i = word[i:] + word[:i - 1]
            k_i = -n * a_i
            piece = _piece(t_i, b, a_i)
            wexp = (i - 1) * b - ksum
            if wexp:
                piece = EMul(ENum(_qp(wexp)), piece)
            ksum += k_i
            terms = piece if terms is None else EAdd(terms, piece)
        c = _qp(-b) * (ExactScalar.from_int(1) - _qp(n * (b + total)))
        out = EMul(ENum(c.inverse()), terms)

    return _int_cache.add(key, out)


def problem_expr(word, b):
    """The right side D[a_n]*...*D[a_1]*s[b] as an expression."""
    word = tuple(int(a) for a in word)
    e = None
    for a in reversed(word):
        f = EGen("D", a)
        e = f if e is None else EMul(e, f)
    if b or e is None:
        f = EGen("s", int(b))
        e = f if e is None else EMul(e, f)
    return e


def verify_integration(word, b, Q=None):
    """Check [Q, x] = P s[b] by symbols; returns (Q, ok)."""
    if Q is None:
        Q = integrate(word, b)
    lhs = evaluate(EBracket(Q, EGen("x")), POLY_X, _int_cache)
    rhs = evaluate(problem_expr(word, b))
    return Q, equals(lhs, rhs)


# ---------------------------------------------------------------------------
# simplicity witness
# ---------------------------------------------------------------------------

class SimplicityWitness:
    """Moves that rewrite the input to the identity: ("sigma", s),
    ("bracket_x",), ("bracket_d",), ("scale", c).  measures[k] is the
    termination measure recorded just before step k."""

    def __init__(self, steps, measures):
        self.steps = list(steps)
        self.measures = list(measures)

    def describe(self):
        out = []
        for st in self.steps:
            if st[0] == "sigma":
                out.append(f"left-multiply s[{st[1]}]")
            elif st[0] == "bracket_x":
                out.append("bracket with x")
            elif st[0] == "bracket_d":
                out.append("bracket with D[0]")
            else:
                out.append(f"scale by {st[1]}")
        return out


def _move(g, step):
    """The operator g after the witness move `step`."""
    if step[0] == "sigma":
        return generator("sigma", POLY_X, step[1]) * g
    if step[0] == "bracket_x":
        return twisted_bracket(g, generator("x", POLY_X))
    if step[0] == "bracket_d":
        return twisted_bracket(generator("dbeta", POLY_X, 0), g)
    if step[0] == "scale":
        return g * step[1]
    raise EngineError(f"unknown witness move {step[0]!r}")


def replay(witness, start):
    """Apply the witness moves to an operator/expression, semantically."""
    if isinstance(start, ShapeForm):
        start = start.to_expr()
    g = evaluate(start) if isinstance(start, OperatorExpr) else start
    for st in witness.steps:
        g = _move(g, st)
    return g


def _as_scalar_op(g):
    """c when g is c times the identity, else None."""
    if len(g.parts) == 1 and (0,) in g.parts:
        sym = g.parts[(0,)]
        if len(sym.coeffs) == 1:
            ((iv, jv), c), = sym.coeffs.items()
            if not any(iv) and not any(jv):
                return c
    return None


def _as_poly_mult(g):
    """If g is multiplication by p(x), return {deg: coeff}, else None."""
    p = {}
    for e, sym in g.parts.items():
        if e[0] < 0:
            return None
        keys = list(sym.coeffs)
        if len(keys) != 1 or any(keys[0][0]) or any(keys[0][1]):
            return None
        p[e[0]] = sym.coeffs[keys[0]]
    return p


def simplicity_witness(f):
    """Witness that eval(f) generates the whole ring: a move sequence whose
    replay lands on the identity operator."""
    sf = shape_normalize(f) if not isinstance(f, ShapeForm) else f
    g = evaluate(sf.to_expr())
    if g.is_zero():
        raise ZeroOperator("cannot witness the zero operator")

    steps = []
    measures = []
    pend = 1

    def push(move, measure):
        """Record the move and apply it to g."""
        nonlocal g, pend
        steps.append(move)
        measures.append(measure)
        pend = 0 if move[0] == "sigma" else 1
        g = _move(g, move)

    while True:
        c = _as_scalar_op(g)
        if c is not None:
            push(("scale", c.inverse()), (0, 0, 0, pend))
            return SimplicityWitness(steps, measures)

        p = _as_poly_mult(g)
        if p is not None:
            # multiplication by p(x): differentiate down to a scalar
            for deg in range(max(p), 0, -1):
                push(("bracket_d",), (0, 0, deg, pend))
            c = _as_scalar_op(g)
            if c is None:
                raise EngineError("polynomial phase missed the scalar")
            push(("scale", c.inverse()), (0, 0, 0, pend))
            return SimplicityWitness(steps, measures)

        d = sf.max_word_len()
        top = sorted(sf.top_classes())
        t = len(top)
        deg = sf.total_x_degree()

        if d > 0:
            a, I = top[-1]
            s = -(a + sum(I))
        else:
            s = -top[-1][0]
        if s:
            # twist so the bracket kills the targeted class; the next pass
            # re-checks the scalar / polynomial exits before bracketing
            push(("sigma", s), (d, t, deg, pend))
            sf = sf.left_sigma(s)
            continue
        push(("bracket_x",), (d, t, deg, pend))
        sf = sf.bracket_x()
        if g.is_zero():
            raise EngineError("simplicity walk annihilated the operator")


# ---------------------------------------------------------------------------
# several variables: potentials
# ---------------------------------------------------------------------------
#
# The part of [P, x_v] at shift e + 1_v is the difference in v of P's
# symbol s at shift e:  s(q_v u_v, m_v + 1) - s(u_v, m_v).


def _antidifference(t, v):
    """The symbol s whose difference in v is t and which vanishes at
    m_v = 0 (there is exactly one).

    The difference keeps every u-exponent and does not raise the
    m_v-degree, so the top m_v-degree terms c u^i m^j of t are solved
    first: by c/(q_v^i_v - 1) u^i m^j when i_v != 0, and by
    c/(j_v + 1) u^i m^j m_v when i_v = 0.  Their difference is then taken
    off t, which leaves only lower m_v-degrees.
    """
    n = t.nvars
    unit = tuple(int(w == v) for w in range(n))
    s = Symbol.zero(n)
    while not t.is_zero():
        top = max(jv[v] for _, jv in t.coeffs)
        piece = Symbol(n, (
            ((iv, jv), c / (ExactScalar.q_power(iv[v], n, v) - 1)) if iv[v]
            else ((iv, jv[:v] + (top + 1,) + jv[v + 1:]), c / (top + 1))
            for (iv, jv), c in t.coeffs.items() if jv[v] == top))
        s = s + piece
        t = t - (piece.subst_shift(unit) - piece)
    return s - s.subst_shift((0,) * n, at=v)


def integrate_nd(family):
    """Potential Q with [Q, x_i] = F_i for every coordinate.

    family: the GradedOperators F_1..F_n on k[x_1..x_n], n = len(family).
    Q is built one coordinate v at a time: every part of the residual
    R_v = F_v - [Q, x_v] at shift f adds the part `_antidifference` at
    shift f - 1_v, which vanishes at m_v = 0 and so keeps Q on the
    polynomial ring.  The bracket symmetry [F_i, x_j] = [F_j, x_i] makes
    R_v commute with every x_w, w < v, so the parts added are free of u_w
    and m_w and leave the finished coordinates alone.  Raises
    CompatibilityViolation when the symmetry fails or the result misses
    a coordinate.
    """
    n = len(family)
    if not n or any(F.domain != poly_n(n) for F in family):
        raise CompatibilityViolation("need one operator per coordinate")
    dom = family[0].domain
    xs = [generator("x_i", dom, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = twisted_bracket(family[i], xs[j])
            rhs = twisted_bracket(family[j], xs[i])
            if not equals(lhs, rhs):
                raise CompatibilityViolation(
                    f"bracket symmetry fails between coordinates "
                    f"{i + 1} and {j + 1}")

    Q = GradedOperator.zero(dom)
    for v in range(n):
        R = family[v] - twisted_bracket(Q, xs[v])
        Q = Q + GradedOperator(dom, (
            (e[:v] + (e[v] - 1,) + e[v + 1:], _antidifference(s, v))
            for e, s in R.parts.items()))

    for i in range(n):
        if not equals(twisted_bracket(Q, xs[i]), family[i]):
            raise CompatibilityViolation(
                f"constructed potential misses coordinate {i + 1}")
    return Q
