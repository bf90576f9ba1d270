"""Span tracing of qdops, installed from outside the package.

`Tracer.install()` wraps the public functions of each qdops module, the
public methods and arithmetic operators of its public classes, and every
other binding of those functions: `from .opsym import equals` in five
modules makes five names for one function, and each must be wrapped or
its calls go uncounted.  A wrapped call records one span (name, start,
end, parent span, case id) into flat arrays kept in memory; `write()`
saves them when the run ends and `summary()` turns them into per-layer
metrics.  A span's self time is its duration minus the durations of its
wrapped children.

The kernel backend's own module is left alone, so a kernel call's span
covers its internal helpers (`_prem`, `pcontent` inside `pgcd`).
"""

import array
import functools
import importlib
import inspect
import json
import sys
import time

# layer name -> module; the layer name prefixes every metric of the layer
LAYERS = ("kernel", "exactscalar", "opsym", "opexpr", "shapes", "algorithms",
          "qgroup", "rings", "suites", "cli", "render")

# operators that are part of a class's arithmetic interface
OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
             "__eq__", "__hash__"}

# plumbing classes: the ring tag and the expression nodes are compared and
# hashed constantly and do no arithmetic; wrapping them would only add cost
SKIP_CLASSES = {"RingTag", "OperatorExpr", "ENum", "EGen", "EAdd", "ESub",
                "EMul", "EDiv", "ENeg", "EPow", "EBracket"}

# Per-function rows: metric stem -> span names that feed it.  Which
# end-to-end metric a row should move, and on which workload:
#   kernel.pgcd/pmul calls, trivial_frac, len1_frac -> cases_per_s on
#     integrate-verify (constant-operand fast paths); kernel.pmul.coeff_ops
#     -> case_tail_ms on operator-powers (operand length)
#   exactscalar.* -> cases_per_s on integrate-verify (renormalization),
#     case_p50_ms on operator-powers (scalar representation), cases_per_s
#     on suite-battery (n-variable hash, mvar_frac)
#   opsym.compose -> case_tail_ms on operator-powers (powering)
#   opexpr.evaluate, dag_share -> cases_per_s on integrate-verify (shared
#     evaluation memo; no change predicted on operator-powers)
#   algorithms.integrate/verify -> integrate-verify; shapes, witness,
#     integrate_nd, qgroup, rings, suites, cli -> cases_per_s on
#     suite-battery; cli, render also -> setup_s
#   cache.*.entries, unattributed.self_s -> peak_rss_mb on integrate-verify
ROWS = {
    "kernel.pgcd": ("kernel.pgcd",),
    "kernel.pmul": ("kernel.pmul",),
    "kernel.pdiv_exact": ("kernel.pdiv_exact",),
    "exactscalar.construct": ("exactscalar.ExactScalar.__init__",),
    "exactscalar.add": ("exactscalar.ExactScalar.__add__",),
    "exactscalar.mul": ("exactscalar.ExactScalar.__mul__",),
    "exactscalar.inverse": ("exactscalar.ExactScalar.inverse",),
    "exactscalar.neg": ("exactscalar.ExactScalar.__neg__",),
    "exactscalar.eq": ("exactscalar.ExactScalar.__eq__",),
    "exactscalar.hash": ("exactscalar.ExactScalar.__hash__",),
    "opsym.compose": ("opsym.GradedOperator.compose",),
    "opsym.subst_shift": ("opsym.Symbol.subst_shift",),
    "opsym.bracket": ("opsym.twisted_bracket",),
    "opsym.equals": ("opsym.equals",),
    "opsym.truncate": ("opsym.truncate_operator",),
    "opexpr.parse": ("opexpr.parse",),
    "opexpr.evaluate": ("opexpr.evaluate",),
    "shapes.normalize": ("shapes.shape_normalize",),
    "algorithms.integrate": ("algorithms.integrate",),
    "algorithms.verify": ("algorithms.verify_integration",),
    "algorithms.witness": ("algorithms.simplicity_witness",),
    "algorithms.integrate_nd": ("algorithms.integrate_nd",),
    "qgroup.act_on_plane": ("qgroup.act_on_plane",),
    "qgroup.hom": ("qgroup.alpha", "qgroup.gamma", "qgroup.eta"),
}


def _targets(layer, mod):
    """(holder, attribute, function, span name) for one layer."""
    out = []
    modname = mod.__name__
    for attr, obj in sorted(vars(mod).items()):
        if attr.startswith("_"):
            continue
        if inspect.isclass(obj):
            if obj.__module__ != modname or obj.__name__ in SKIP_CLASSES:
                continue
            for name, raw in sorted(vars(obj).items()):
                public = not name.startswith("_") or name in OPERATORS
                if not (public or (layer == "exactscalar"
                                   and name == "__init__")):
                    continue
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if inspect.isfunction(fn):
                    out.append((obj, name, raw,
                                f"{layer}.{obj.__name__}.{fn.__name__}"))
        elif callable(obj) and not inspect.ismodule(obj):
            # the kernel re-exports its backend's functions by name
            if layer == "kernel" or getattr(obj, "__module__", "") == modname:
                out.append((mod, attr, obj, f"{layer}.{attr}"))
    return out


class Tracer:
    """Spans of one traced process; `case` is set by the caller before
    each case so that every span carries its case id."""

    def __init__(self):
        self.names = []                   # span name per name id
        self._ids = {}
        self.name_id = array.array("H")
        self.parent = array.array("l")
        self.case_id = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.case = -1
        self.counters = {"pgcd_trivial": 0, "pgcd_len1": 0,
                         "pmul_coeff_ops": 0, "max_len": 0,
                         "construct_mvar": 0}
        self.evaluated = []               # expressions passed to evaluate
        self.missing = []                 # ROWS span names with no function
        self.stale = []                   # bindings that could not be wrapped
        self._undo = []

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name):
        nid = pick = after = None
        if name == "opsym.GradedOperator.__mul__":
            # operator x operator is a composition, operator x scalar is not
            from qdops.opsym import GradedOperator
            compose = self._nid("opsym.GradedOperator.compose")
            scale = self._nid("opsym.GradedOperator.scale")

            def pick(args):
                is_op = isinstance(args[1], GradedOperator)
                return compose if is_op else scale
        else:
            nid = self._nid(name)
        if name in ("kernel.pgcd", "kernel.pmul"):
            after = self._kernel_stats(name == "kernel.pgcd")
        elif name == "exactscalar.ExactScalar.__init__":
            def after(args, out, c=self.counters):
                if args[1] != 1:
                    c["construct_mvar"] += 1
        elif name == "opexpr.evaluate":
            def after(args, out, seen=self.evaluated):
                seen.append(args[0])

        name_id, parent, case_id = self.name_id, self.parent, self.case_id
        start, end, stack, clock = self.start, self.end, self.stack, \
            time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(end)
            name_id.append(nid if pick is None else pick(args))
            parent.append(stack[-1])
            case_id.append(tracer.case)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _kernel_stats(self, is_gcd):
        c = self.counters

        def after(args, out):
            la, lb = len(args[0]), len(args[1])
            if la > c["max_len"] or lb > c["max_len"]:
                c["max_len"] = max(la, lb)
            if is_gcd:
                if list(out) == [1]:
                    c["pgcd_trivial"] += 1
                if la <= 1 or lb <= 1:
                    c["pgcd_len1"] += 1
            else:
                c["pmul_coeff_ops"] += la * lb
        return after

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target and every other binding of it in qdops."""
        mods = {layer: importlib.import_module(f"qdops.{layer}")
                for layer in LAYERS}
        wrapped = {}                      # id(original function) -> wrapper
        for layer, mod in mods.items():
            for holder, attr, raw, name in _targets(layer, mod):
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                w = wrapped.get(id(fn))
                if w is None:
                    w = wrapped[id(fn)] = self._wrap(fn, name)
                self._set(holder, attr, staticmethod(w) if is_static else w)
        # other names for the same functions anywhere in the package
        # (the backend module excepted, see the module docstring)
        for modname, mod in list(sys.modules.items()):
            if (modname != "qdops" and not modname.startswith("qdops.")) \
                    or modname.startswith("qdops._polykernel") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, (dict, list)):
                    items = obj.items() if isinstance(obj, dict) \
                        else enumerate(obj)
                    for k, v in list(items):
                        if id(v) in wrapped:
                            self._set(obj, k, wrapped[id(v)], item=True)
                elif isinstance(obj, tuple) and any(
                        id(v) in wrapped for v in obj):
                    self.stale.append(f"{modname}.{attr}")
        present = set(self.names)
        self.missing = sorted(n for names in ROWS.values() for n in names
                              if n not in present)

    def _set(self, holder, key, value, item=False):
        old = holder[key] if item else getattr(holder, key)
        self._undo.append((holder, key, old, item))
        if item:
            holder[key] = value
        else:
            setattr(holder, key, value)

    def uninstall(self):
        for holder, key, old, item in reversed(self._undo):
            if item:
                holder[key] = old
            else:
                setattr(holder, key, old)
        self._undo = []

    # -- results -------------------------------------------------------------

    def write(self, path, meta):
        header = dict(meta, names=self.names, spans=len(self.end),
                      fields=[["name_id", "H"], ["parent", "l"],
                              ["case_id", "l"], ["start", "d"], ["end", "d"]])
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.case_id, self.start,
                        self.end):
                arr.tofile(fh)

    def summary(self, run_s):
        """Per-layer metrics; run_s is the summed wall time of the cases."""
        n = len(self.end)
        child = [0.0] * n
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        top = 0.0
        start, end, parent, name_id = self.start, self.end, self.parent, \
            self.name_id
        for i in range(n - 1, -1, -1):    # children come after their parent
            dur = end[i] - start[i]
            k = name_id[i]
            self_s[k] += dur - child[i]
            calls[k] += 1
            p = parent[i]
            if p >= 0:
                child[p] += dur
            else:
                top += dur
        by_name = {name: (calls[k], self_s[k])
                   for k, name in enumerate(self.names)}

        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(s for name, (_, s) in by_name.items()
                                       if name.split(".", 1)[0] == layer)
        for row, names in ROWS.items():
            m[f"{row}.calls"] = sum(by_name.get(x, (0, 0.0))[0] for x in names)
            m[f"{row}.self_s"] = sum(by_name.get(x, (0, 0.0))[1]
                                     for x in names)
        c = self.counters
        gcd_calls = m["kernel.pgcd.calls"]
        m["kernel.pgcd.trivial_frac"] = c["pgcd_trivial"] / max(1, gcd_calls)
        m["kernel.pgcd.len1_frac"] = c["pgcd_len1"] / max(1, gcd_calls)
        m["kernel.pmul.coeff_ops"] = c["pmul_coeff_ops"]
        m["kernel.max_len"] = c["max_len"]
        m["kernel.other.self_s"] = (m["kernel.self_s"]
                                    - m["kernel.pgcd.self_s"]
                                    - m["kernel.pmul.self_s"])
        constructed = max(1, m["exactscalar.construct.calls"])
        m["exactscalar.mvar_frac"] = c["construct_mvar"] / constructed
        m["opexpr.dag_share"] = dag_share(self.evaluated)
        m["unattributed.self_s"] = run_s - top
        m["trace.spans"] = n
        return m


def dag_share(exprs):
    """Distinct nodes over tree nodes, summed over the evaluated
    expressions (1.0 = no shared subtree), walking the public AST."""
    from qdops.opexpr import OperatorExpr

    def kids(e):
        for attr in ("a", "b", "base"):
            k = getattr(e, attr, None)
            if isinstance(k, OperatorExpr):
                yield k

    distinct_total = tree_total = 0
    for root in exprs:
        size = {}                         # id -> tree size of the subtree
        todo = [(root, False)]
        while todo:
            e, ready = todo.pop()
            if id(e) in size:
                continue
            if ready:
                size[id(e)] = 1 + sum(size[id(k)] for k in kids(e))
            else:
                todo.append((e, True))
                todo.extend((k, False) for k in kids(e) if id(k) not in size)
        distinct_total += len(size)
        tree_total += size[id(root)]
    return distinct_total / tree_total if tree_total else 1.0


def cache_entries():
    """Entries of every module-level `*_cache` in qdops, by bare name."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("qdops."):
            continue
        for attr, obj in vars(mod).items():
            if attr.endswith("_cache") and hasattr(obj, "__len__"):
                out[attr.lstrip("_")] = len(obj)
    return out
