"""Dense integer-coefficient polynomial arithmetic.

A polynomial is a list of Python ints, index = exponent, no trailing zeros;
the zero polynomial is the empty list.  These routines are the hot kernel
under the exact scalar type, re-exported by `qdops.kernel`.

`pgcd` answers the common small cases without a remainder sequence: with a
nonzero constant operand the gcd is the gcd of the two contents, and with
a monomial operand c*q^k it is q^min(k, val b) times that content gcd
(val b being the q-valuation of the other operand).  On one
integrate-verify pass (1,192 criterion-6 cases) about two fifths of the
gcds the scalar field asks for are of this kind, mostly from sums, since
a product by c*q^k takes no gcd at all, and about half of all of them
are 1.

`pmul` and the q-powers of `exactscalar` raise BudgetExceeded rather than
build a polynomial of degree above MAX_DEGREE, so an input such as
`D[10000000]` fails at once instead of filling memory.
"""

from math import gcd

from .errors import BudgetExceeded

BACKEND = "python"

# the largest degree of a dense polynomial the engine will build
MAX_DEGREE = 100_000


def check_degree(d):
    """Raise BudgetExceeded when degree d is past MAX_DEGREE."""
    if d > MAX_DEGREE:
        raise BudgetExceeded(
            f"polynomial of degree {d} exceeds the limit {MAX_DEGREE}")


def pnorm(a):
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n] if n != len(a) else a


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i in range(len(b)):
        out[i] += b[i]
    return pnorm(out)


def pmul(a, b):
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    if n > MAX_DEGREE:
        check_degree(n - 1)
    out = [0] * n
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return pnorm(out)


def pmul_int(a, c):
    if c == 0:
        return []
    return [c * x for x in a]


def pcontent(a):
    """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
    g = 0
    for c in a:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def pdiv_exact(a, b):
    """Quotient a // b assuming b divides a exactly in Z[x]."""
    a = list(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    db, lb = len(b) - 1, b[-1]
    dq = len(a) - 1 - db
    if dq < 0:
        raise ArithmeticError("inexact polynomial division")
    q = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = a[k + db]
        if c % lb:
            raise ArithmeticError("inexact polynomial division")
        c //= lb
        q[k] = c
        if c:
            for j in range(db + 1):
                a[k + j] -= c * b[j]
    for c in a:
        if c:
            raise ArithmeticError("inexact polynomial division")
    return q


def _prem(a, b):
    """Pseudo-remainder of a by b (both nonzero, deg a >= deg b)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while True:
        a = pnorm(a)
        da = len(a) - 1
        if da < db:
            return a
        la = a[-1] if a else 0
        # lb * a  -  la * x^(da-db) * b
        a = [lb * c for c in a]
        s = da - db
        for j in range(db + 1):
            a[s + j] -= la * b[j]


def _monomial_gcd(m, b):
    """gcd of the monomial m = c*q^k and the nonzero b."""
    v = 0
    while not b[v]:
        v += 1
    return [0] * min(len(m) - 1, v) + [gcd(m[-1], pcontent(b))]


def pgcd(a, b):
    """Gcd in Z[x], primitive-PRS, normalized to positive leading coeff."""
    a, b = pnorm(a), pnorm(b)
    if not a:
        a, b = b, a
    if not b:
        if not a:
            return []
        g = pcontent(a)
        return [c // g if a[-1] > 0 else -c // g for c in a]
    if len(a) == 1 or len(b) == 1:
        return [gcd(pcontent(a), pcontent(b))]
    if not a[0] and not any(a[:-1]):
        return _monomial_gcd(a, b)
    if not b[0] and not any(b[:-1]):
        return _monomial_gcd(b, a)
    ca, cb = pcontent(a), pcontent(b)
    cg = gcd(ca, cb)
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, r
        if b:
            c = pcontent(b)
            b = [x // c for x in b]
    if a[-1] < 0:
        a = [-c for c in a]
    return [cg * c for c in a]
