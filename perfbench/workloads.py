"""Seeded inputs for the three benchmark workloads.

Nothing here imports qdops: a workload is a list of plain inputs (word
tuples, expression strings, command lines) that the worker hands to the
public API.  Inputs come in passes.  One pass runs in one fresh
interpreter, so the module caches start empty for it, and no input
repeats inside a pass: a memo that only pays off when the same input is
seen twice in one process cannot show up as a gain.

A run is time-bounded, so it usually covers a prefix of a pass.  The
cases of a pass are drawn from strata (word length, expression family,
suite) and merged so that every prefix holds each stratum in proportion
to its size.  A faster engine then gets further through the same mix
instead of into a different one, and cases/s stays comparable.
"""

import itertools
import random

# criterion-6 traffic: every D-word on {-2..2} up to length 3, twists
# -3..3, plus 100 random length-4 words
LETTERS = (-2, -1, 0, 1, 2)
TWISTS = tuple(range(-3, 4))
SWEEP_MAX_LEN = 3
RANDOM_LEN4 = 100


def pass_rng(workload, seed, pass_no):
    return random.Random(f"{workload}/{seed}/{pass_no}")


def interleave(strata, rng):
    """Merge the lists so that every prefix holds each list in proportion
    to its length (ties broken by a seeded order)."""
    strata = [s for s in strata if s]
    total = sum(len(s) for s in strata)
    order = list(range(len(strata)))
    rng.shuffle(order)
    taken = [0] * len(strata)
    out = []
    for t in range(1, total + 1):
        # deficit of stratum i after t picks, scaled by `total`
        best = max((i for i in order if taken[i] < len(strata[i])),
                   key=lambda i: len(strata[i]) * t - taken[i] * total)
        out.append(strata[best][taken[best]])
        taken[best] += 1
    return out


# ---------------------------------------------------------------------------
# integrate-verify: (word, b) pairs for integrate + verify_integration
# ---------------------------------------------------------------------------

def integrate_verify(seed, pass_no):
    rng = pass_rng("integrate-verify", seed, pass_no)
    strata = []
    for length in range(SWEEP_MAX_LEN + 1):
        cases = [(w, b) for w in itertools.product(LETTERS, repeat=length)
                 for b in TWISTS]
        rng.shuffle(cases)
        strata.append(cases)
    len4 = [(w, b) for w in itertools.product(LETTERS, repeat=4)
            for b in TWISTS]
    strata.append(rng.sample(len4, RANDOM_LEN4))
    return interleave(strata, rng)


# ---------------------------------------------------------------------------
# operator-powers: expression strings for parse -> evaluate -> operator_str
# ---------------------------------------------------------------------------

TWISTS6 = (-3, -2, -1, 1, 2, 3)


def _twist(rng):
    return rng.choice(TWISTS6)


def _ratio(rng):
    return f"{rng.randint(1, 9)}/{rng.randint(2, 11)}"


def _power(rng, k, a):
    """(c*D[a])^k: the scalar c keeps every power base distinct."""
    return f"({_ratio(rng)}*D[{a}])^{k}"


def _leaf(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return f"D[{rng.randint(-2, 2)}]^{rng.randint(1, 3)}"
    if kind == 1:
        return f"x^{rng.randint(1, 2)}"
    if kind == 2:
        return f"s[{_twist(rng)}]"
    return f"{_ratio(rng)}*tau"


def _tower(rng, depth):
    e = _leaf(rng)
    for _ in range(depth):
        a, b = (e, _leaf(rng)) if rng.random() < 0.5 else (_leaf(rng), e)
        t = rng.randint(-2, 2)
        e = f"bracket({a},{b},{t})" if t else f"bracket({a},{b})"
    return e


# The makers below take the item's index i in its stratum of n items and
# spread the parameters that drive the cost evenly over every prefix of the
# stratum (twists in turn, n along a golden-ratio sequence), and strata are
# not shuffled: every pass, and every prefix of one, holds nearly the same
# cost mix, and only the cheap details (c, tower leaves) vary with the seed.
GOLDEN = 0.6180339887498949

def _power_item(rng, i, n, k):
    return _power(rng, k, TWISTS6[i % 6])


def _shifted_item(rng, i, n, k, lo, hi):
    """s[a]^m*(c*D[a])^k; a mixed twist pair would cost up to 5x more and
    widen the cost spread inside a stratum."""
    a = (-2, -1, 1, 2)[i % 4]
    m = lo + int((hi - lo) * ((i * GOLDEN + rng.random() / n) % 1.0))
    return f"s[{a}]^{m}*{_power(rng, k, a)}"


def _qchain_item(rng, i, n, lo, hi):
    """c times a balanced or a Gauss q-factorial [m]!, times a power.  The
    chain parses left to right, so c leading it makes every prefix of the
    chain a subtree no other case shares."""
    span = hi - lo + 1
    m = lo + i % span
    if (i // span) % 2:
        factors = [f"(q^{j}-q^-{j})/(q-q^-1)" for j in range(1, m + 1)]
    else:
        factors = [f"(q^{j}-1)/(q-1)" for j in range(1, m + 1)]
    return "*".join([_ratio(rng)] + factors
                    + [_power(rng, 1 + i % 4, TWISTS6[i % 6])])


# per pass: (c*D[a])^k per k, s[a]^m*(c*D[a])^k per (k, m range), bracket
# towers per depth and q-chains per length range.  One stratum per cost
# parameter keeps the cost inside a stratum narrow.
POWER_COUNTS = {1: 24, 2: 24, 3: 24, 4: 24, 5: 20, 6: 20, 7: 20, 8: 20,
                9: 16, 10: 16, 11: 12, 12: 12, 13: 10, 14: 8}
SHIFTED_COUNTS = {(1, 10, 200): 28, (2, 10, 200): 28, (3, 10, 200): 24,
                  (4, 10, 100): 24, (4, 100, 200): 12, (6, 10, 100): 12,
                  (6, 100, 200): 8, (8, 10, 100): 8, (8, 100, 150): 4}
TOWER_COUNTS = {2: 80, 3: 80, 4: 80}
QCHAIN_COUNTS = {(5, 10): 40, (11, 15): 40, (16, 20): 40}

OPERATOR_STRATA = (
    [(n, lambda r, i, n, k=k: _power_item(r, i, n, k))
     for k, n in POWER_COUNTS.items()]
    + [(n, lambda r, i, n, p=p: _shifted_item(r, i, n, *p))
       for p, n in SHIFTED_COUNTS.items()]
    + [(n, lambda r, i, n, d=d: _tower(r, d))
       for d, n in TOWER_COUNTS.items()]
    + [(n, lambda r, i, n, p=p: _qchain_item(r, i, n, *p))
       for p, n in QCHAIN_COUNTS.items()]
)


def operator_powers(seed, pass_no):
    rng = pass_rng("operator-powers", seed, pass_no)
    seen = set()
    strata = []
    for count, make in OPERATOR_STRATA:
        cases = []
        while len(cases) < count:
            text = make(rng, len(cases), count)
            if text not in seen:
                seen.add(text)
                cases.append(text)
        strata.append(cases)
    return interleave(strata, rng)


# ---------------------------------------------------------------------------
# suite-battery: argv lists for qdops.cli.main
# ---------------------------------------------------------------------------

# randomized suites: (name, invocations per pass, --cases, --max-degree).
# intrinsic-relations invocations all cost about the same (~0.1 s); with
# ten of them the median invocation falls among them rather than in the
# gap between the cheap suites and the costly ones.
RANDOM_SUITES = (
    ("simplicity-random", 8, 4, None),
    ("intrinsic-relations", 10, 4, None),
    ("nvariables", 2, 1, None),
    ("truncation", 4, 4, None),
    ("d0-commutative", 3, 10, None),
    ("domain-sample", 3, 10, None),
    ("qcenter", 3, 10, None),
    ("nonsurjectivity", 3, 10, None),
)

# suites whose work ignores --seed: each runs once per pass (once per
# process), since a second identical run would only measure the caches
FIXED_SUITES = (
    ("note-identities", None),
    ("immediate-formulae", None),
    ("gamma-generators", None),
    ("uq-relations", None),
    ("uq-plane-consistency", 1),
    ("eta1-surjectivity", None),
)


def _argv(name, seed, cases, max_degree):
    argv = ["verify", name, "--json"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if cases is not None:
        argv += ["--cases", str(cases)]
    if max_degree is not None:
        argv += ["--max-degree", str(max_degree)]
    return argv


def suite_battery(seed, pass_no):
    rng = pass_rng("suite-battery", seed, pass_no)
    strata = []
    for name, count, cases, md in RANDOM_SUITES:
        seeds = rng.sample(range(1, 10 ** 6), count)
        strata.append([_argv(name, s, cases, md) for s in seeds])
    for name, md in FIXED_SUITES:
        strata.append([_argv(name, rng.randrange(1, 10 ** 6), None, md)])
    return interleave(strata, rng)


# A suite-battery pass is short (about 6 s) and holds suites that run once
# per pass, so cutting one at the deadline would change the mix: its runs
# end at the first pass boundary after --seconds instead.
WHOLE_PASSES = {"suite-battery"}

MAKERS = {
    "integrate-verify": integrate_verify,
    "operator-powers": operator_powers,
    "suite-battery": suite_battery,
}


def cases(workload, seed, pass_no):
    return MAKERS[workload](seed, pass_no)
