"""Constructive procedures: the bracket antiderivative ("find Q with
[Q, x] = P sigma_b"), its several-variable potential construction, and
the simplicity witness that rewrites any nonzero operator down to 1 by
left multiplications, brackets and a final scale.
"""

from __future__ import annotations

from itertools import chain

from ._terms import collect, product
from .errors import CompatibilityViolation, EngineError, ZeroOperator
from .exactscalar import ExactScalar, scalar
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
    _Algebra,
    _fold,
    evaluate,
)
from .opsym import GradedOperator, equals, generator, twisted_bracket
from .rings import POLY_X, poly_n
from .shapes import ShapeForm, shape_normalize

# ---------------------------------------------------------------------------
# one-variable bracket antiderivative
# ---------------------------------------------------------------------------
#
# A word (a_1, ..., a_n) encodes the product P = D[a_n] ... D[a_1]
# (a_1 is the rightmost factor).  integrate returns Q with [Q, x] = P s[b].

_int_cache = {}


def _qp(e):
    return ExactScalar.q_power(e)


def _weighted_bracket(T, d, k):
    """[T, d]_k = T d - q^{-k} d T  for a degree -1 factor d."""
    rhs = EMul(d, T)
    w = -k
    if w:
        rhs = EMul(ENum(_qp(w)), rhs)
    return ESub(EMul(T, d), rhs)


def integrate(word, b=0):
    """Q with eval([Q, x]) = eval(D[a_n]*...*D[a_1]*s[b]), exactly."""
    word = tuple(int(a) for a in word)
    b = int(b)
    key = (word, b)
    hit = _int_cache.get(key)
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
        inner = integrate(flipped, b + a)
        # s[a] passes the flipped factor and the j-1 letters right of it
        mult = -a * j
        out = EMul(ENum(_qp(mult)), inner) if mult else inner
    elif not any(word) and b == 0:
        out = EDiv(EPow(EGen("D", 0), n + 1), ENum(n + 1))
    else:
        # cyclic decomposition: T_i integrates the word with a_i removed
        # and the remaining letters rotated so a_{i+1} comes rightmost.
        terms = None
        ksum = 0
        for i in range(1, n + 1):
            a_i = word[i - 1]
            t_i = word[i:] + word[:i - 1]
            T_i = integrate(t_i, b)
            k_i = -n * a_i
            piece = _weighted_bracket(T_i, EGen("D", a_i), k_i)
            wexp = (i - 1) * b - ksum
            if wexp:
                piece = EMul(ENum(_qp(wexp)), piece)
            ksum += k_i
            terms = piece if terms is None else EAdd(terms, piece)
        c = _qp(-b) * (ExactScalar.from_int(1) - _qp(n * (b + total)))
        out = EMul(ENum(c.inverse()), terms)

    _int_cache[key] = out
    return out


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


def verify_integration(word, b, Q=None, domain=POLY_X):
    """Check [Q, x] = P s[b] by symbols; returns (Q, ok)."""
    if Q is None:
        Q = integrate(word, b)
    lhs = evaluate(EBracket(Q, EGen("x")), domain)
    rhs = evaluate(problem_expr(word, b), domain)
    return Q, equals(lhs, rhs)


class _WordExpansion(_Algebra):
    """Values: {D-word: coefficient}, words in product order."""

    target = "word expansion"

    def num(self, e):
        return {(): e.value}

    def gen(self, e):
        if e.name == "D":
            return {(int(e.arg),): ExactScalar.from_int(1)}
        raise EngineError(f"word expansion met leaf {e.name!r}")

    def add(self, e, a, b):
        return collect(chain(a.items(), b.items()))

    def sub(self, e, a, b):
        return collect(chain(a.items(), ((w, -c) for w, c in b.items())))

    def neg(self, e, a):
        return {w: -c for w, c in a.items()}

    def mul(self, e, a, b):
        return product(a, b)

    def div(self, e, a, b):
        if set(b) != {()}:
            raise EngineError("word expansion: division by a non-scalar")
        inv = b[()].inverse()
        return {w: c * inv for w, c in a.items()}

    def pow(self, e, base):
        if e.k < 0:
            raise EngineError("word expansion: negative power")
        out = {(): ExactScalar.from_int(1)}
        for _ in range(e.k):
            out = product(out, base)
        return out


_WORD_EXPANSION = _WordExpansion()


def word_expansion(e):
    """Expand an x-free, twist-free expression into {D-word: coefficient},
    words in product order (leftmost factor first)."""
    return _fold(e, _WORD_EXPANSION)


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

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

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


def replay(witness, start, domain=POLY_X):
    """Apply the witness moves to an operator/expression, semantically."""
    if isinstance(start, ShapeForm):
        start = start.to_expr()
    g = evaluate(start, domain) if isinstance(start, OperatorExpr) else start
    X = generator("x", domain)
    D0 = generator("dbeta", domain, 0)
    for st in witness.steps:
        if st[0] == "sigma":
            g = generator("sigma", domain, st[1]) * g
        elif st[0] == "bracket_x":
            g = twisted_bracket(g, X)
        elif st[0] == "bracket_d":
            g = twisted_bracket(D0, g)
        elif st[0] == "scale":
            g = g * st[1]
        else:
            raise EngineError(f"unknown witness move {st[0]!r}")
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

    X = generator("x", POLY_X)
    D0 = generator("dbeta", POLY_X, 0)
    steps = []
    measures = []
    pend = 1

    def push(move, measure):
        nonlocal pend
        steps.append(move)
        measures.append(measure)
        pend = 0 if move[0] == "sigma" else 1

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
                g = twisted_bracket(D0, g)
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
            g = generator("sigma", POLY_X, s) * g
            sf = sf.left_sigma(s)
            continue
        push(("bracket_x",), (d, t, deg, pend))
        g = twisted_bracket(g, X)
        sf = sf.bracket_x()
        if g.is_zero():
            raise EngineError("simplicity walk annihilated the operator")


# ---------------------------------------------------------------------------
# several variables: terms, syntactic brackets, potentials
# ---------------------------------------------------------------------------
#
# A term is (coeff, xexp, word, twist) on k[x_1..x_n]:
#     coeff * x^xexp * prod of dbeta_i factors * sigma_vec(twist),
# word a tuple of (coordinate, k) in product order.  Factors in distinct
# coordinates commute, so words are kept stably sorted by coordinate.


def _canon_word(word):
    return tuple(sorted(word, key=lambda f: f[0]))


def nd_term(coeff, xexp, word=(), twist=None, nvars=None):
    if nvars is None:
        nvars = len(xexp)
    if twist is None:
        twist = (0,) * nvars
    c = coeff if isinstance(coeff, ExactScalar) else scalar(coeff, nvars)
    return (c, tuple(xexp), _canon_word(word), tuple(twist))


def nd_consolidate(terms):
    acc = collect(((xe, w, tw), c) for c, xe, w, tw in terms)
    return [(c, xe, w, tw) for (xe, w, tw), c in acc.items()]


def _qpi(e, n, i):
    return ExactScalar.q_power(e, n, i)


def _qnum_i(k, n, i):
    """(q_i^k - 1)/(q_i - 1); 1 when k = 0."""
    if k == 0:
        return ExactScalar.from_int(1, n)
    return (_qpi(k, n, i) - scalar(1, n)) / (_qpi(1, n, i) - scalar(1, n))


def nd_bracket_terms(terms, i, n):
    """[sum of terms, x_i], term by term, staying in term form."""
    out = []
    for c, xe, w, tw in terms:
        kappa = sum(k for j, k in w if j == i)
        passc = c * (_qpi(tw[i] + kappa, n, i) - scalar(1, n))
        if not passc.is_zero():
            xe2 = tuple(v + (1 if j == i else 0) for j, v in enumerate(xe))
            out.append((passc, xe2, w, tw))
        run = 0  # sum of k over i-factors strictly to the right
        for t in range(len(w) - 1, -1, -1):
            j_t, k_t = w[t]
            if j_t != i:
                continue
            cc = c * _qpi(tw[i] + run, n, i) * _qnum_i(k_t, n, i)
            out.append((cc, xe, _canon_word(w[:t] + w[t + 1:]), tw))
            run += k_t
    return nd_consolidate(out)


def nd_term_to_op(term, domain):
    c, xe, w, tw = term
    n = domain.nvars
    op = GradedOperator.identity(domain) * c
    for i, e in enumerate(xe):
        if e:
            op = op * (generator("x_i", domain, i) ** e)
    for j, k in w:
        op = op * generator("dbeta_i", domain, (j, k))
    if any(tw):
        op = op * generator("sigma_vec", domain, tw)
    return op


def nd_terms_to_op(terms, domain):
    return GradedOperator(domain, chain.from_iterable(
        nd_term_to_op(t, domain).parts.items() for t in terms))


def _mono_expr(term, n):
    c, xe, w, tw = term
    e = ENum(c)
    for i, v in enumerate(xe):
        if v:
            xi = EGen("x_i", i)
            e = EMul(e, xi if v == 1 else EPow(xi, v))
    for j, k in w:
        e = EMul(e, EGen("dbeta_i", (j, k)))
    if any(tw):
        e = EMul(e, EGen("sigma_vec", tw))
    return e


def nd_terms_to_expr(terms, n):
    es = [_mono_expr(t, n) for t in terms]
    if not es:
        return ENum(0)
    out = es[0]
    for e in es[1:]:
        out = EAdd(out, e)
    return out


def _lift_scalar(s, n, i):
    """Place a one-variable scalar into variable q_i of n."""
    if n == 1:
        return s
    num = {}
    for e, cf in enumerate(s.num):
        if cf:
            key = tuple(e if v == i else 0 for v in range(n))
            num[key] = cf
    den = {}
    for e, cf in enumerate(s.den):
        if cf:
            key = tuple(e if v == i else 0 for v in range(n))
            den[key] = cf
    return ExactScalar(n, s.c, num, den)


_int_terms_cache = {}


def _integrate_words_i(kword, b, n, i):
    """Antiderivative of the coordinate-i word (product order, local
    normalization) against sigma twist b: returns [(coeff, i-word)]."""
    key = (kword, b, n, i)
    hit = _int_terms_cache.get(key)
    if hit is not None:
        return hit
    # switch to the one-variable normalization: each nonzero letter k
    # carries a factor [k] = (q^k - 1)/(q - 1)
    word_1v = tuple(reversed(kword))
    Q = integrate(word_1v, b)
    expansion = word_expansion(Q)
    out = []
    for dword, c in expansion.items():
        cc = _lift_scalar(c, n, i)
        for k in kword:
            cc = cc * _qnum_i(k, n, i)
        for k in dword:
            if k != 0:
                cc = cc / _qnum_i(k, n, i)
        out.append((cc, tuple((i, k) for k in dword)))
    _int_terms_cache[key] = out
    return out


def _integrate_term_i(term, i, n):
    """Terms U with [U, x_i] = term, exactly (term by term)."""
    c, xe, w, tw = term
    kword = tuple(k for j, k in w if j == i)
    rest = tuple(f for f in w if f[0] != i)
    tw_rest = tuple(0 if v == i else a for v, a in enumerate(tw))
    out = []
    for cc, iword in _integrate_words_i(kword, tw[i], n, i):
        out.append((c * cc, xe, _canon_word(iword + rest), tw_rest))
    return out


def _family_terms(family, n):
    out = []
    for terms in family:
        out.append(nd_consolidate(
            [nd_term(c, xe, w, tw, n) for (c, xe, w, tw) in terms]))
    return out


def integrate_nd(family, nvars=None):
    """Potential Q with [Q, x_i] = F_i for every coordinate.

    family: per coordinate, a list of terms (coeff, xexp, word, twist).
    Returns the expression of Q; raises CompatibilityViolation when the
    bracket symmetry [F_i, x_j] = [F_j, x_i] fails or the sweep meets a
    residual that is not separated from the finished coordinates.
    """
    n = nvars if nvars is not None else len(family)
    if len(family) != n:
        raise CompatibilityViolation("need one operator per coordinate")
    F = _family_terms(family, n)
    dom = poly_n(n)

    F_ops = [nd_terms_to_op(terms, dom) for terms in F]
    xs = [generator("x_i", dom, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = twisted_bracket(F_ops[i], xs[j])
            rhs = twisted_bracket(F_ops[j], xs[i])
            if not equals(lhs, rhs):
                raise CompatibilityViolation(
                    f"bracket symmetry fails between coordinates "
                    f"{i + 1} and {j + 1}")

    Q_terms = []
    for i in range(n):
        Ri = nd_consolidate(
            F[i] + [(-c, xe, w, tw)
                    for c, xe, w, tw in nd_bracket_terms(Q_terms, i, n)])
        # terms reaching back into finished coordinates must cancel; the
        # term algebra is not free, so the cancellation can hide across
        # distinct keys -- detect that through the symbols and drop it
        off = [t for t in Ri
               if any(j < i for j, _ in t[2]) or any(t[3][j] for j in range(i))]
        if off:
            if not nd_terms_to_op(off, dom).is_zero():
                raise CompatibilityViolation(
                    f"residual at coordinate {i + 1} is not separated "
                    f"from the finished coordinates")
            drop = {(xe, w, tw) for _, xe, w, tw in off}
            Ri = [t for t in Ri if (t[1], t[2], t[3]) not in drop]
        for term in Ri:
            Q_terms.extend(_integrate_term_i(term, i, n))
        Q_terms = nd_consolidate(Q_terms)

    Q_op = nd_terms_to_op(Q_terms, dom)
    for i in range(n):
        if not equals(twisted_bracket(Q_op, xs[i]), F_ops[i]):
            raise CompatibilityViolation(
                f"constructed potential misses coordinate {i + 1}")
    return nd_terms_to_expr(Q_terms, n)
