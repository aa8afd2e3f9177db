"""Outside-in tracer for the ``tangencylab`` package.

``Tracer.install`` wraps the public functions of every module of the package
(plus a few named methods and ``numerics._bisect_or_fail``) and rebinds each
wrapper in every module namespace and module-level table that holds the
original, because ``from .model import apply_linear`` binds a second name for
the same function.  Methods are wrapped on their class.

The hot primitives are called about 1.7 million times in one ``all`` run, so
each call only updates per-thread counters: calls, inclusive time (outermost
activation only), self time (inclusive minus the time in wrapped callees on
the same thread), errors by exception type, and caller->callee edge counts.
Spans are kept only at coarse boundaries (the CLI commands, ``build_sn``,
``run_cascade`` and ``find_s_n0``).  Everything stays in memory until
``snapshot``.
"""

from __future__ import annotations

import inspect
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# Methods wrapped on their class, as "<module>.<Class>.<method>".
METHODS = (
    "cascade.CurveHandle.eval",
    "cascade.CurveHandle.invert_x",
    "cascade.MapWord.apply",
    "leaves.SeedArc.eval",
)
# Private functions wrapped because a ratio is built on them.
PRIVATE = ("numerics._bisect_or_fail",)
SPANS = ("rects.build_sn", "cascade.run_cascade", "returns.find_s_n0")
SPAN_PREFIX = "cli.cmd_"


class _ThreadStats:
    __slots__ = ("thread", "stack", "spans", "active", "calls", "incl", "self_", "errors", "edges", "keys", "f_evals")

    def __init__(self, thread: str):
        self.thread = thread
        self.stack: list[list] = []  # frames [name, time in wrapped callees]
        self.spans: list[dict] = []  # open spans of this thread
        self.active: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_: dict[str, float] = defaultdict(float)
        self.errors: dict[tuple[str, str], int] = defaultdict(int)
        self.edges: dict[tuple[str | None, str], int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self.f_evals = 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadStats] = []
        self._main: _ThreadStats | None = None
        self._spans: list[dict] = []
        self.trace_id = 0
        self.wrapped: list[str] = []
        self.t0 = perf_counter()

    def _stats(self) -> _ThreadStats:
        try:
            return self._local.stats
        except AttributeError:
            st = _ThreadStats(threading.current_thread().name)
            with self._lock:
                self._threads.append(st)
                if threading.current_thread() is threading.main_thread():
                    self._main = st
            self._local.stats = st
            return st

    # -- installation ------------------------------------------------------

    def install(self, package_name: str = "tangencylab") -> None:
        """Wrap and rebind; ``self.wrapped`` lists the wrapped names."""
        modules = {n: m for n, m in sys.modules.items() if n == package_name or n.startswith(package_name + ".")}
        replaced = {}
        for mod_name, mod in modules.items():
            if mod_name == package_name:
                continue
            layer = mod_name.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                qual = f"{layer}.{name}"
                if inspect.isfunction(obj) and obj.__module__ == mod_name and (not name.startswith("_") or qual in PRIVATE):
                    replaced[obj] = self._wrap(qual, obj)
        for qual in METHODS:
            layer, cls_name, meth = qual.split(".")
            cls = getattr(modules[f"{package_name}.{layer}"], cls_name)
            setattr(cls, meth, self._wrap(qual, vars(cls)[meth]))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])
                elif isinstance(obj, dict):  # dispatch tables such as cli._COMMAND_TABLE
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in replaced:
                            obj[key] = replaced[value]
        self.wrapped = sorted([w.__qualname__ for w in replaced.values()] + list(METHODS))

    def _wrap(self, name: str, fn):
        stats = self._stats
        spanned = name in SPANS or name.startswith(SPAN_PREFIX)
        key_of = _build_sn_key(fn) if name == "rects.build_sn" else None
        counts_f = name == "numerics.solve_newton"

        def wrapper(*args, **kwargs):
            st = stats()
            stack = st.stack
            st.calls[name] += 1
            st.edges[(stack[-1][0] if stack else None, name)] += 1
            if key_of is not None:
                st.keys[name].add(key_of(args, kwargs))
            if counts_f:
                args = (_counting(st, args[0]),) + args[1:]
            depth = st.active[name]
            st.active[name] = depth + 1
            frame = [name, 0.0]
            stack.append(frame)
            span = self._open_span(st, name) if spanned else None
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                st.errors[(name, type(exc).__name__)] += 1
                if span is not None:
                    span["error"] = type(exc).__name__
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st.active[name] = depth
                st.self_[name] += dt - frame[1]
                if depth == 0:
                    st.incl[name] += dt
                if stack:
                    stack[-1][1] += dt
                if span is not None:
                    span["end_s"] = perf_counter() - self.t0
                    st.spans.pop()

        wrapper.__qualname__ = name
        wrapper.__wrapped__ = fn
        return wrapper

    def _open_span(self, st: _ThreadStats, name: str) -> dict:
        # A pool thread has no open span of its own; its work was submitted
        # by the innermost open span of the main thread.
        owner = st.spans or (self._main.spans if self._main is not None else [])
        span = {
            "parent": owner[-1]["id"] if owner else None,
            "trace": self.trace_id,
            "name": name,
            "thread": st.thread,
            "start_s": perf_counter() - self.t0,
            "end_s": None,
        }
        with self._lock:
            span["id"] = len(self._spans)
            self._spans.append(span)
        st.spans.append(span)
        return span

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Merge the per-thread counters into plain JSON-ready dicts."""
        calls, incl, self_, errors, edges = Counter(), Counter(), Counter(), Counter(), Counter()
        keys: dict[str, set] = defaultdict(set)
        f_evals = 0
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            calls.update(st.calls)
            incl.update(st.incl)
            self_.update(st.self_)
            errors.update(st.errors)
            edges.update(st.edges)
            for k, v in st.keys.items():
                keys[k] |= v
            f_evals += st.f_evals
        functions = {
            name: {
                "calls": calls[name],
                "incl_s": incl[name],
                "self_s": self_[name],
                "errors": {exc: n for (fn, exc), n in sorted(errors.items()) if fn == name},
            }
            for name in sorted(set(calls) | set(self.wrapped))
        }

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        derived = {
            "model.apply_linear_per_exit_check": ratio(
                edges[("model.chart_exit_index", "model.apply_linear")], calls["model.chart_exit_index"]
            ),
            "cascade.evals_per_invert": ratio(
                edges[("cascade.CurveHandle.invert_x", "cascade.CurveHandle.eval")], calls["cascade.CurveHandle.invert_x"]
            ),
            "rects.build_sn.redundant_calls": calls["rects.build_sn"] - len(keys["rects.build_sn"]),
            "numerics.solve_newton.f_evals": f_evals,
            "numerics.solve_newton.fallbacks": calls["numerics._bisect_or_fail"],
        }
        return {
            "functions": functions,
            "derived": derived,
            "edges": [[caller, callee, n] for (caller, callee), n in sorted(edges.items(), key=lambda e: (str(e[0][0]), e[0][1]))],
            "spans": self._spans,
        }


def _counting(st: _ThreadStats, f):
    def counted(x):
        st.f_evals += 1
        return f(x)

    return counted


def _build_sn_key(fn):
    sig = inspect.signature(fn)

    def key(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        return (bound.arguments["sys"], bound.arguments["n"])

    return key
