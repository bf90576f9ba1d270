"""Command line front end.

Subcommands
    eval OP                per-degree symbols of an operator expression
    apply OP POLY          image of a polynomial under the operator
    bracket A B            twisted bracket, decomposed when degree zero
    integrate              solve [Q, x] = D-word * sigma-twist
    simplicity-witness OP  moves rewriting the operator to the identity
    uq WORD                images on both coordinate lines, glued
    verify SUITE           run one named verification suite
    suites                 list the suite names

Exit status: 0 when every check passes, 1 when a verdict fails,
2 on parse errors (with the offending offset), 3 on engine errors
(reported by their error name).  --json emits one stable object:
{command, inputs, results[], verdict}.
"""

import argparse
import json
import os
import sys

from .errors import EngineError, NotDegreeZero, ParseError
from .rings import POLY_X, POLY_Y, LAURENT_X, poly_n, RingElement
from .opsym import twisted_bracket, truncate_operator
from .opexpr import parse, evaluate, expr_str, decompose_degree0
from .render import (operator_str, ring_element_str, symbol_rows,
                     truncated_operator_str)
from . import algorithms as alg
from . import qgroup
from .suites import verify_suite, suite_names


# the largest variable count `--ring n=<k>` accepts; the cost of an
# n-variable operator grows faster than n
MAX_VARIABLES = 64

# the largest truncation level `uq --level` accepts; the cost of a
# truncation grows faster than its level (on a 2-core Xeon, "E*F" takes
# 0.5 s at level 32 and 2.7 s at level 60)
MAX_LEVEL = 32


def _ring(spec):
    if spec == "x":
        return POLY_X
    if spec == "y":
        return POLY_Y
    if spec == "laurent":
        return LAURENT_X
    if spec.startswith("n="):
        try:
            n = int(spec[2:])
        except ValueError:
            raise ParseError(2, f"bad variable count in ring spec {spec!r}")
        if n < 1:
            raise ParseError(2, "need at least one variable")
        if n > MAX_VARIABLES:
            raise ParseError(2, f"at most {MAX_VARIABLES} variables")
        return poly_n(n)
    raise ParseError(0, f"unknown ring {spec!r} (x, y, laurent, n=<k>)")


def _csv_ints(text):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ParseError(0, f"expected comma-separated integers, got {text!r}")


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_eval(args):
    dom = _ring(args.ring)
    op = evaluate(parse(args.expr), dom)
    results = [{"degree": e[0] if dom.nvars == 1 else list(e),
                "symbol": s}
               for e, s in symbol_rows(op)]
    _emit(args, {"command": "eval",
                 "inputs": {"expr": args.expr, "ring": args.ring},
                 "results": results, "verdict": "OK"},
          [operator_str(op)])
    return 0


def _cmd_apply(args):
    dom = _ring(args.ring)
    op = evaluate(parse(args.expr), dom)
    poly = evaluate(parse(args.poly), dom).apply(RingElement.one(dom))
    img = op.apply(poly)
    out = ring_element_str(img)
    _emit(args, {"command": "apply",
                 "inputs": {"expr": args.expr, "poly": args.poly,
                            "ring": args.ring},
                 "results": [{"image": out}], "verdict": "OK"},
          [out])
    return 0


def _cmd_bracket(args):
    dom = _ring(args.ring)
    a = evaluate(parse(args.a), dom)
    b = evaluate(parse(args.b), dom)
    br = twisted_bracket(a, b, args.twist)
    try:
        shown = expr_str(decompose_degree0(br))
    except NotDegreeZero:
        shown = operator_str(br)
    _emit(args, {"command": "bracket",
                 "inputs": {"a": args.a, "b": args.b, "twist": args.twist,
                            "ring": args.ring},
                 "results": [{"bracket": shown}], "verdict": "OK"},
          [shown])
    return 0


def _cmd_integrate(args):
    word = _csv_ints(args.word)
    Q = alg.integrate(word, args.b)
    qs = expr_str(Q)    # past MAX_TEXT this fails before the costlier check
    _, ok = alg.verify_integration(word, args.b, Q)
    verdict = "PASS" if ok else "FAIL"
    _emit(args, {"command": "integrate",
                 "inputs": {"word": list(word), "b": args.b},
                 "results": [{"Q": qs}], "verdict": verdict},
          [f"Q = {qs}", f"verification: {verdict}"])
    return 0 if ok else 1


def _cmd_witness(args):
    e = parse(args.expr)
    w = alg.simplicity_witness(e)
    final = alg.replay(w, e)
    ok = final.is_identity()
    steps = w.describe()
    verdict = "PASS" if ok else "FAIL"
    _emit(args, {"command": "simplicity-witness",
                 "inputs": {"expr": args.expr},
                 "results": [{"steps": steps, "length": len(steps)}],
                 "verdict": verdict},
          [f"{i + 1}. {s}" for i, s in enumerate(steps)]
          + [f"replays to the identity: {verdict}"])
    return 0 if ok else 1


def _cmd_uq(args):
    if args.level is not None and not 1 <= args.level <= MAX_LEVEL:
        raise ParseError(0, f"--level must be between 1 and {MAX_LEVEL}, "
                            f"got {args.level}")
    a = qgroup.alpha(args.word)
    g = qgroup.gamma(args.word)
    glued = qgroup.gamma_q_member((a, g))
    xs, ys = operator_str(a), operator_str(g)
    lines = [f"on k[x]:  {xs}",
             f"on k[y]:  {ys}",
             f"glue: {'PASS' if glued else 'FAIL'}"]
    results = [{"x_image": xs},
               {"y_image": ys},
               {"glued": glued}]
    if args.level is not None:
        txs = truncated_operator_str(truncate_operator(a, args.level))
        tys = truncated_operator_str(truncate_operator(g, args.level))
        lines += [f"level {args.level} on k[x]:  {txs}",
                  f"level {args.level} on k[y]:  {tys}"]
        results.append({"level": args.level,
                        "x_truncated": txs,
                        "y_truncated": tys})
    verdict = "PASS" if glued else "FAIL"
    _emit(args, {"command": "uq",
                 "inputs": {"word": args.word, "level": args.level},
                 "results": results, "verdict": verdict},
          lines)
    return 0 if glued else 1


def _cmd_verify(args):
    report = verify_suite(args.suite, max_degree=args.max_degree,
                          cases=args.cases, seed=args.seed)
    _emit(args, {"command": "verify",
                 "inputs": {"suite": args.suite, **report.params},
                 "results": [c.as_dict() for c in report.checks],
                 "verdict": "PASS" if report.passed else "FAIL"},
          report.lines())
    return 0 if report.passed else 1


def _cmd_suites(args):
    names = suite_names()
    _emit(args, {"command": "suites", "inputs": {},
                 "results": [{"suite": n} for n in names],
                 "verdict": "OK"},
          names)
    return 0


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="qdops",
        description="exact computations with q-difference-differential "
                    "operators on polynomial rings")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, ring=True):
        if ring:
            p.add_argument("--ring", default="x",
                           help="x | y | laurent | n=<k> (default x)")
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report instead of text")

    p = sub.add_parser("eval", help="per-degree symbols of an operator")
    p.add_argument("expr")
    common(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("apply", help="apply an operator to a polynomial")
    p.add_argument("expr")
    p.add_argument("poly")
    common(p)
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser("bracket", help="twisted bracket of two operators")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--twist", type=int, default=0)
    common(p)
    p.set_defaults(fn=_cmd_bracket)

    p = sub.add_parser("integrate",
                       help="solve [Q, x] = D-word followed by a twist")
    p.add_argument("--word", default="",
                   help="comma separated twists, rightmost acts first")
    p.add_argument("--b", type=int, default=0, help="twist of the right factor")
    common(p, ring=False)
    p.set_defaults(fn=_cmd_integrate)

    p = sub.add_parser("simplicity-witness",
                       help="rewrite an operator to the identity")
    p.add_argument("expr")
    common(p, ring=False)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("uq", help="images of a quantum-group word")
    p.add_argument("word")
    p.add_argument("--level", type=int, default=None,
                   help="also print the truncations at this level")
    common(p, ring=False)
    p.set_defaults(fn=_cmd_uq)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    common(p, ring=False)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("suites", help="list the verification suites")
    common(p, ring=False)
    p.set_defaults(fn=_cmd_suites)
    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()      # a closed pipe shows here, not at exit
        return rc
    except BrokenPipeError:
        # the reader went away: send what is left to devnull, so the
        # flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"parse error {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
