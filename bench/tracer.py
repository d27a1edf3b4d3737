"""Per-layer tracing installed from outside the package.

``Tracer.install()`` replaces the public functions of every traced
``hilbworst`` module, plus a few hot class methods, with wrappers that
aggregate per-function counters: calls, inclusive time and self time.
Storing one span per call is not an option: ``MulTable.value`` alone runs
tens of thousands of times per oracle trial.

A module-level function is patched in every ``hilbworst`` namespace that
imported it by name (``lifting.membership``, ``based.membership``, ...), so
calls across modules are seen no matter how they were imported.

Times are read from the clock the tracer is given.  Self time of a function
is its inclusive time minus the inclusive time of the traced calls it made.
Inclusive time of a function or module counts only its outermost active
call, so recursion is not double counted.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from collections import Counter, defaultdict

TRACED_MODULES = (
    "poly",
    "linalg",
    "ideal",
    "taylor",
    "lifting",
    "dgla",
    "based",
    "oracle",
    "cli",
)

# Leaf helpers that run once per monomial or per table entry.  A wrapper
# would cost more than the helper itself and distort every proportion; their
# time is charged to the self time of the traced function that calls them.
UNTRACED_HELPERS = {
    "poly": {
        "mono_mul",
        "mono_degree",
        "mono_sort_key",
        "mono_multidegree",
        "var_text",
        "var_cas_text",
        "mono_text",
    },
    "taylor": {"pair"},
}


class Tracer:
    def __init__(self, clock):
        self._clock = clock
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.module_total_s = defaultdict(float)
        self.module_self_s = defaultdict(float)
        self.counts = Counter()
        self.first_deg3_membership_s = 0.0
        self._stack = []
        self._depth = Counter()
        self._module_depth = Counter()
        self._in_insert = 0
        self._built = weakref.WeakSet()
        self._queried = weakref.WeakSet()

    def wrap(self, key: str, module: str, fn, hook=None):
        """Wrapper that charges the call to `key` and `module`; `hook`, when
        given, sees (args, result, seconds) of every call that returns."""
        stack = self._stack
        depth = self._depth
        module_depth = self._module_depth
        calls = self.calls
        total_s = self.total_s
        self_s = self.self_s
        module_total_s = self.module_total_s
        module_self_s = self.module_self_s
        clock = self._clock

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[key] += 1
            module_depth[module] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[key] += 1
                own = dt - frame[0]
                self_s[key] += own
                module_self_s[module] += own
                depth[key] -= 1
                if not depth[key]:
                    total_s[key] += dt
                module_depth[module] -= 1
                if not module_depth[module]:
                    module_total_s[module] += dt
            if hook is not None:
                hook(args, result, dt)
            return result

        return functools.wraps(fn)(wrapper)

    # -- hooks for the layer counters -----------------------------------------

    def _on_insert(self, args, gained, _dt):
        span = args[0]
        if span not in self._built:
            self._built.add(span)
            self.counts["linalg.blocks_built"] += 1
        self.counts["linalg.insert_gained" if gained else "linalg.insert_dependent"] += 1

    def _on_reduce(self, args, _result, _dt):
        span = args[0]
        if span not in self._queried:
            self._queried.add(span)
            self.counts["linalg.blocks_queried"] += 1

    def _on_membership(self, _args, result, dt):
        self.counts[f"ideal.membership_deg{result.degree}"] += 1
        if result.degree == 3 and not self.first_deg3_membership_s:
            self.first_deg3_membership_s = dt

    # -- installation -------------------------------------------------------------

    def install(self):
        import hilbworst

        modules = {
            name: importlib.import_module(f"hilbworst.{name}")
            for name in TRACED_MODULES
        }
        namespaces = [hilbworst] + [
            m for name, m in sys.modules.items() if name.startswith("hilbworst.")
        ]
        hooks = {("ideal", "membership"): self._on_membership}
        for name, mod in modules.items():
            skip = UNTRACED_HELPERS.get(name, ())
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or attr in skip
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrapped = self.wrap(
                    f"{name}.{attr}", name, obj, hooks.get((name, attr))
                )
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        setattr(ns, attr, wrapped)
        self._install_methods(modules)

    def _install_methods(self, modules):
        poly_cls = modules["poly"].Poly
        for meth in ("__mul__", "substitute", "evaluate"):
            setattr(
                poly_cls,
                meth,
                self.wrap(f"poly.Poly.{meth}", "poly", getattr(poly_cls, meth)),
            )
        # ``2 * p`` is the same multiplication as ``p * 2``
        poly_cls.__rmul__ = poly_cls.__mul__
        table_cls = modules["based"].MulTable
        table_cls.value = self.wrap("based.MulTable.value", "based", table_cls.value)

        span_cls = modules["linalg"].EchelonSpan
        insert, reduce = span_cls.insert, span_cls.reduce
        tracer = self

        def insert_marked(span, vec, tag=None):
            tracer._in_insert += 1
            try:
                return insert(span, vec, tag)
            finally:
                tracer._in_insert -= 1

        traced_reduce = self.wrap(
            "linalg.EchelonSpan.reduce", "linalg", reduce, self._on_reduce
        )

        # Reductions made inside insert are part of the insert; only query
        # reductions get their own span and count.
        def reduce_dispatch(span, vec):
            if tracer._in_insert:
                return reduce(span, vec)
            return traced_reduce(span, vec)

        span_cls.insert = self.wrap(
            "linalg.EchelonSpan.insert", "linalg", insert_marked, self._on_insert
        )
        span_cls.reduce = functools.wraps(reduce)(reduce_dispatch)

    # -- results --------------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "module_total_s": dict(self.module_total_s),
            "module_self_s": dict(self.module_self_s),
            "counts": dict(self.counts),
            "first_deg3_membership_s": self.first_deg3_membership_s,
        }
