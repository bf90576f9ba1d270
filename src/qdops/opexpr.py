"""Expression trees over the generators, with a parser, a printer, an
evaluator into graded operators, a shape normal form, and the degree-zero
decomposition into the commutative sigma/tau subalgebra.

Grammar (operator mode):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-'? atom ('^' int)?
    atom   := 'x' | 'tau' | 's[' ints ']' | 'D[' int ']' | scalar
            | '(' expr ')' | 'bracket(' expr ',' expr (',' int)? ')'

with `q` and integer/rational literals as scalars.  On the inverse-degree
ring the same leaves read y-side (`x` ~ y, `s[a]` ~ sigma_y(a), `D[a]` ~
dbeta_y(a)); with n variables the leaves are `x1..xn`, `s[a1,..,an]` and
`Di[k]`, and the scalars `q1..qn` take the place of `q`.  Division is
parsed at term level and must divide by a scalar.

Every interpretation of a tree (printing, evaluation here; shapes
elsewhere) is one call of `_fold(root, algebra)`.  A U_q word is
evaluated like any other expression: `qgroup._Hom` is `_Eval` with the
letters read from a table of their images (on k[x], k[y] or a line of
the quantum plane).  The fold walks the
tree bottom-up with an explicit stack and interprets each distinct node
once per call, so deep trees and the dags built by `integrate` cost time
linear in their distinct nodes.  An algebra is an `_Algebra` with one
handler per node kind, named by the node class's `_op`:

    num(e)  gen(e)  add(e, a, b)  sub(e, a, b)  mul(e, a, b)
    div(e, a, b)  neg(e, a)  pow(e, a)  bracket(e, a, b)

called with the node and the values of its children `e._kids()`, in
that order (a, b, or base).  `_Algebra` supplies a + b, a - b, -a and
a * b; every target writes num, gen, div, pow and bracket.  Handlers
must never change a child's value in place: memoized values are shared
by every parent of the subtree, and a memo passed as `known` shares
them with later calls too.  Printing holds each node's text to
MAX_TEXT characters.
"""

from __future__ import annotations

from .errors import (
    BudgetExceeded,
    EngineError,
    NotDegreeZero,
    ParseError,
    UnsupportedGenerator,
)
from .exactscalar import ExactScalar, scalar
from .opsym import GradedOperator, Symbol, generator, twisted_bracket
from .rings import POLY_X


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

class OperatorExpr:
    __slots__ = ()

    def __str__(self):
        return expr_str(self)

    def __repr__(self):
        return f"<expr {self}>"

    def _kids(self):
        """Children in fold order; leaves have none."""
        return ()


class ENum(OperatorExpr):
    __slots__ = ("value",)
    _op = "num"

    def __init__(self, value):
        self.value = scalar(value)


class EGen(OperatorExpr):
    """A generator leaf: name in {x, tau, s, D, x_i, sigma_vec, dbeta_i,
    q_i, E, F, K, Kinv, Ediv, Fdiv}; arg as the generator wants it (q_i,
    the scalar q_{i+1} of k[x_1..x_n], evaluates to a scalar)."""

    __slots__ = ("name", "arg")
    _op = "gen"

    def __init__(self, name, arg=None):
        self.name = name
        self.arg = arg


class _Binary(OperatorExpr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def _kids(self):
        return (self.a, self.b)


class EAdd(_Binary):
    __slots__ = ()
    _op = "add"


class ESub(_Binary):
    __slots__ = ()
    _op = "sub"


class EMul(_Binary):
    __slots__ = ()
    _op = "mul"


class EDiv(_Binary):
    __slots__ = ()
    _op = "div"


class ENeg(OperatorExpr):
    __slots__ = ("a",)
    _op = "neg"

    def __init__(self, a):
        self.a = a

    def _kids(self):
        return (self.a,)


class EPow(OperatorExpr):
    __slots__ = ("base", "k")
    _op = "pow"

    def __init__(self, base, k):
        self.base, self.k = base, int(k)

    def _kids(self):
        return (self.base,)


class EBracket(OperatorExpr):
    __slots__ = ("a", "b", "twist")
    _op = "bracket"

    def __init__(self, a, b, twist=0):
        self.a, self.b, self.twist = a, b, twist

    def _kids(self):
        return (self.a, self.b)


# ---------------------------------------------------------------------------
# the fold
# ---------------------------------------------------------------------------

def _fold(root, alg, known=None):
    """Interpret the expression `root` in the algebra `alg`.

    Post-order over the children `e._kids()`, leftmost first, with an
    explicit stack (no recursion, so depth is unbounded) and a memo on
    node identity for this call (so a shared subtree is interpreted once
    and a dag costs time linear in its distinct nodes).

    `known`, if given, is a memo that outlives the call: a node for which
    `known.get(e)` returns a value is not descended into, and every value
    the fold computes is offered to `known.keep(e, value)`, which stores
    the ones it wants (see `algorithms.verify_integration`).
    """
    memo = {}
    stack = [root]
    while stack:
        e = stack[-1]
        if id(e) in memo:
            stack.pop()
            continue
        if known is not None:
            v = known.get(e)
            if v is not None:
                memo[id(e)] = v
                stack.pop()
                continue
        kids = e._kids()
        todo = [k for k in kids if id(k) not in memo]
        if todo:
            stack.extend(reversed(todo))
            continue
        stack.pop()
        v = memo[id(e)] = getattr(alg, e._op)(e, *[memo[id(k)] for k in kids])
        if known is not None:
            known.keep(e, v)
    return memo[id(root)]


class _Algebra:
    """Base of the targets of `_fold`; see the module docstring."""

    def add(self, e, a, b):
        return a + b

    def sub(self, e, a, b):
        return a - b

    def neg(self, e, a):
        return -a

    def mul(self, e, a, b):
        return a * b


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_SUM, _PREC_MUL, _PREC_POW, _PREC_ATOM = 0, 1, 2, 3

# the longest text printing builds for one node; a dag such as an
# `integrate` answer prints as a tree, which grows exponentially in its depth
MAX_TEXT = 10 ** 7


def _scalar_atom(v):
    s = str(v)
    plain = s[1:] if s.startswith("-") else s
    if any(ch in plain for ch in "+-*/ "):
        return f"({s})", _PREC_ATOM
    if s.startswith("-"):
        return s, _PREC_MUL
    # q^2 is a power: as a base it needs parentheses, or it reads q^2^2
    return s, (_PREC_POW if "^" in s else _PREC_ATOM)


def _wrap(v, need):
    """Text of a rendered child, parenthesized below precedence `need`."""
    s, p = v
    return f"({s})" if p < need else s


def _joined(s, p):
    """A rendered inner node, held to MAX_TEXT characters."""
    if len(s) > MAX_TEXT:
        raise BudgetExceeded(f"expression text past {MAX_TEXT} characters")
    return s, p


class _Render(_Algebra):
    """Values: (text, precedence of its top node)."""

    def num(self, e):
        return _scalar_atom(e.value)

    def gen(self, e):
        n, a = e.name, e.arg
        if n in ("x", "tau", "E", "F", "K", "Kinv"):
            return n, _PREC_ATOM
        if n in ("s", "D", "Ediv", "Fdiv"):
            return f"{n}[{a}]", _PREC_ATOM
        if n in ("x_i", "q_i"):
            return f"{n[0]}{a + 1}", _PREC_ATOM
        if n == "sigma_vec":
            return "s[" + ",".join(str(v) for v in a) + "]", _PREC_ATOM
        if n == "dbeta_i":
            i, k = a
            return f"D{i + 1}[{k}]", _PREC_ATOM
        raise UnsupportedGenerator(f"cannot print generator {n!r}")

    def add(self, e, a, b):
        la, rb = _wrap(a, _PREC_SUM), _wrap(b, _PREC_MUL)
        if rb.startswith("-"):
            return _joined(f"{la}-{rb[1:]}", _PREC_SUM)
        return _joined(f"{la}+{rb}", _PREC_SUM)

    def sub(self, e, a, b):
        return _joined(f"{_wrap(a, _PREC_SUM)}-{_wrap(b, _PREC_MUL)}",
                       _PREC_SUM)

    def mul(self, e, a, b):
        return _joined(f"{_wrap(a, _PREC_MUL)}*{_wrap(b, _PREC_POW)}",
                       _PREC_MUL)

    def div(self, e, a, b):
        return _joined(f"{_wrap(a, _PREC_MUL)}/{_wrap(b, _PREC_ATOM)}",
                       _PREC_MUL)

    def neg(self, e, a):
        return _joined(f"-{_wrap(a, _PREC_POW)}", _PREC_MUL)

    def pow(self, e, a):
        return _joined(f"{_wrap(a, _PREC_ATOM)}^{e.k}", _PREC_POW)

    def bracket(self, e, a, b):
        parts = [a[0], b[0]]
        if e.twist:
            parts.append(str(e.twist))
        return _joined("bracket(" + ",".join(parts) + ")", _PREC_ATOM)


_RENDER = _Render()


def expr_str(e):
    return _fold(e, _RENDER)[0]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Tokens:
    def __init__(self, text):
        self.text = text
        self.toks = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.toks.append(("int", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("name", text[i:j], i))
                i = j
                continue
            if ch in "+-*/^()[],":
                self.toks.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(i, f"unexpected character {ch!r}")
        self.toks.append(("end", "", n))
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError(t[2], f"expected {kind!r}, found {t[1]!r}")
        return t


# nesting levels (parentheses, brackets, unary minus, ^) a parse may open;
# each costs a few Python frames, so this stays well inside the stack
_MAX_DEPTH = 100


def _nested(tk, t, parse, *args):
    """parse(tk, *args) one nesting level below token t: past _MAX_DEPTH
    levels the input is a ParseError at t."""
    if tk.depth == _MAX_DEPTH:
        raise ParseError(t[2], f"nesting deeper than {_MAX_DEPTH} levels")
    tk.depth += 1
    out = parse(tk, *args)
    tk.depth -= 1
    return out


def _parse_int(tk):
    neg = False
    t = tk.peek()
    if t[0] == "-":
        tk.next()
        neg = True
    t = tk.expect("int")
    v = int(t[1])
    return -v if neg else v


def _parse_bracket_args(tk, mode):
    tk.expect("(")
    a = _parse_expr(tk, mode)
    tk.expect(",")
    b = _parse_expr(tk, mode)
    twist = 0
    if tk.peek()[0] == ",":
        tk.next()
        twist = _parse_int(tk)
    tk.expect(")")
    return EBracket(a, b, twist)


_UQ_LEAVES = {"E", "F", "K", "Kinv"}


def _parse_atom(tk, mode):
    t = tk.peek()
    if t[0] == "(":
        tk.next()
        e = _nested(tk, t, _parse_expr, mode)
        tk.expect(")")
        return e
    if t[0] == "int":
        tk.next()
        return ENum(ExactScalar.from_int(int(t[1])))
    if t[0] != "name":
        raise ParseError(t[2], f"unexpected {t[1]!r}")
    name = t[1]
    tk.next()
    if name == "q":
        return ENum(ExactScalar.q_power(1))
    if name == "bracket":
        return _nested(tk, t, _parse_bracket_args, mode)
    if mode == "uq":
        if name in _UQ_LEAVES:
            return EGen(name)
        if name in ("Ediv", "Fdiv"):
            tk.expect("[")
            m = _parse_int(tk)
            tk.expect("]")
            if m < 0:
                raise ParseError(t[2], "divided powers need a nonnegative index")
            return EGen(name, m)
        raise ParseError(t[2], f"unknown quantum-group leaf {name!r}")
    if name in ("x", "y"):
        return EGen("x")
    if name == "tau":
        return EGen("tau")
    if name == "s":
        tk.expect("[")
        vals = [_parse_int(tk)]
        while tk.peek()[0] == ",":
            tk.next()
            vals.append(_parse_int(tk))
        tk.expect("]")
        if len(vals) == 1:
            return EGen("s", vals[0])
        return EGen("sigma_vec", tuple(vals))
    if name == "D":
        tk.expect("[")
        a = _parse_int(tk)
        tk.expect("]")
        return EGen("D", a)
    if len(name) > 1 and name[0] in "xq" and name[1:].isdigit():
        return EGen(name[0] + "_i", int(name[1:]) - 1)
    if len(name) > 1 and name[0] == "D" and name[1:].isdigit():
        i = int(name[1:]) - 1
        tk.expect("[")
        k = _parse_int(tk)
        tk.expect("]")
        return EGen("dbeta_i", (i, k))
    raise ParseError(t[2], f"unknown name {name!r}")


def _parse_factor(tk, mode):
    if tk.peek()[0] == "-":
        return ENeg(_nested(tk, tk.next(), _parse_factor, mode))
    a = _parse_atom(tk, mode)
    if tk.peek()[0] == "^":
        return EPow(a, _nested(tk, tk.next(), _parse_int))
    return a


def _parse_term(tk, mode):
    e = _parse_factor(tk, mode)
    while tk.peek()[0] in ("*", "/"):
        op = tk.next()[0]
        rhs = _parse_factor(tk, mode)
        e = EMul(e, rhs) if op == "*" else EDiv(e, rhs)
    return e


def _parse_expr(tk, mode):
    e = _parse_term(tk, mode)
    while tk.peek()[0] in ("+", "-"):
        op = tk.next()[0]
        rhs = _parse_term(tk, mode)
        e = EAdd(e, rhs) if op == "+" else ESub(e, rhs)
    return e


def parse(text, mode="operator"):
    tk = _Tokens(text)
    e = _parse_expr(tk, mode)
    t = tk.peek()
    if t[0] != "end":
        raise ParseError(t[2], f"trailing input {t[1]!r}")
    return e


# ---------------------------------------------------------------------------
# evaluation into graded operators
# ---------------------------------------------------------------------------

# one-variable leaves; on k[y] the generator reads them through the mirror
_LEAF_GENERATORS = {"x": "x", "tau": "tau", "s": "sigma", "D": "dbeta"}


def _gen_on(domain, name, arg):
    if domain.kind == "polyn":
        if name in ("x_i", "sigma_vec", "dbeta_i"):
            return generator(name, domain, arg)
        if name == "q_i":
            if not 0 <= arg < domain.nvars:
                raise UnsupportedGenerator(f"no scalar q{arg + 1} on {domain!r}")
            return ExactScalar.q_power(1, domain.nvars, arg)
        raise UnsupportedGenerator(
            f"leaf {name!r} is not available with n variables")
    if name not in _LEAF_GENERATORS:
        where = "k[y]" if domain.kind == "polyy" else repr(domain)
        raise UnsupportedGenerator(f"leaf {name!r} is not available on {where}")
    return generator(_LEAF_GENERATORS[name], domain, arg)


def _promote(v, domain):
    if isinstance(v, GradedOperator):
        return v
    return GradedOperator.identity(domain) * v


def _invert_monomial(op):
    """Inverse of c*u^i at shift e (shift must be legal on the domain)."""
    if len(op.parts) != 1:
        raise EngineError("operator is not invertible")
    (e, s), = op.parts.items()
    if len(s.coeffs) != 1:
        raise EngineError("operator is not invertible")
    ((iv, jv), c), = s.coeffs.items()
    if any(jv):
        raise EngineError("operator is not invertible")
    if any(e) and not op.domain.allows_negative:
        raise EngineError("operator is not invertible on this ring")
    nv = op.domain.nvars
    w = c.inverse()
    for v in range(nv):
        if e[v] * iv[v]:
            w = w * ExactScalar.q_power(e[v] * iv[v], nv, v)
    inv_key = (tuple(-x for x in iv), tuple(jv))
    return GradedOperator(op.domain,
                          {tuple(-x for x in e): Symbol(nv, {inv_key: w})})


def evaluate(e, domain=POLY_X, known=None):
    """Expression -> GradedOperator (scalars become scalar multiples of 1).
    `known` is the fold's memo across calls (see `_fold`)."""
    return _promote(_fold(e, _Eval(domain), known), domain)


class _Eval(_Algebra):
    """Values: ExactScalar while a subtree is scalar, else GradedOperator."""

    def __init__(self, domain):
        self.domain = domain

    def num(self, e):
        nvars = self.domain.nvars
        if e.value.nvars != nvars:
            if e.value.is_rational():
                return ExactScalar.from_fraction(e.value.as_fraction(), nvars)
            raise UnsupportedGenerator("scalar arity does not fit the ring")
        return e.value

    def gen(self, e):
        return _gen_on(self.domain, e.name, e.arg)

    def add(self, e, a, b):
        if isinstance(a, ExactScalar) and isinstance(b, ExactScalar):
            return a + b
        return _promote(a, self.domain) + _promote(b, self.domain)

    def sub(self, e, a, b):
        if isinstance(a, ExactScalar) and isinstance(b, ExactScalar):
            return a - b
        return _promote(a, self.domain) - _promote(b, self.domain)

    def div(self, e, a, b):
        if not isinstance(b, ExactScalar):
            raise EngineError("division by an operator")
        return a * b.inverse()

    def pow(self, e, a):
        if isinstance(a, ExactScalar) or e.k >= 0:
            return a ** e.k
        return _invert_monomial(a) ** (-e.k)

    def bracket(self, e, a, b):
        return twisted_bracket(_promote(a, self.domain),
                               _promote(b, self.domain), e.twist)


# ---------------------------------------------------------------------------
# degree-zero decomposition
# ---------------------------------------------------------------------------

def decompose_degree0(op):
    """Write a degree-zero operator as a polynomial in sigma^{+-1} and tau.

    Symbol sum c_ij u^i m^j  |->  expression sum c_ij * s[i] * tau^j.
    """
    if isinstance(op, OperatorExpr):
        op = evaluate(op)
    if op.domain.nvars != 1:
        raise NotDegreeZero("decomposition is defined for one variable")
    bad = [e for e in op.parts if any(e)]
    if bad:
        raise NotDegreeZero(f"operator has parts of degree {sorted(bad)}")
    if op.is_zero():
        return ENum(ExactScalar.from_int(0))
    sym = op.parts[(0,)]
    out = None
    for (iv, jv) in sorted(sym.coeffs, reverse=True):
        c = sym.coeffs[(iv, jv)]
        i, j = iv[0], jv[0]
        factor = None
        if i:
            factor = EGen("s", i)
        if j:
            tau = EGen("tau") if j == 1 else EPow(EGen("tau"), j)
            factor = tau if factor is None else EMul(factor, tau)
        if factor is None:
            term = ENum(c)
        elif c.is_one():
            term = factor
        else:
            term = EMul(ENum(c), factor)
        out = term if out is None else EAdd(out, term)
    return out
