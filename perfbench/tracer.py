"""Outside-in tracing of the package's modules.

The tracer wraps every public function of each layer module and installs the
wrapper wherever a module of the package binds that function, so calls
between modules (``realizable.cli.check_realizable``,
``realizable.transforms.check_realizable``, ...) and within one module (the
checker's own ``dold_transform``) all pass through it.  Nothing in the
package changes; ``uninstall`` puts every original back.

Most functions record a span: name, start, end, parent span and operation
id.  Spans stay in memory until the run ends.  Per-index helpers, called
about N ln N times per check, only add to a call count and summed time.
They never call a spanned function, so every span's children are spans or
helpers, and a span's self time is its duration minus its child spans'
durations minus the time of the helpers it called directly.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable

LAYERS = ("cli", "seqio", "realizability", "numtheory", "sequences", "transforms", "local", "construct")

# called once per index or per term: counted and timed, no span each
HELPERS = frozenset(
    {
        "numtheory.mobius",
        "numtheory.divisors",
        "numtheory.factorize",
        "numtheory.is_prime",
        "numtheory.padic_valuation",
        "numtheory.primes_upto",
        "realizability.dold_transform",
        "transforms.time_change_value",
        "construct.fixed_points",
    }
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    op: str
    name: str
    start: float
    end: float
    helper_s: float  # time of helper calls made directly from this span


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    out = {s.id: (s.end - s.start) - s.helper_s for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


# extra per-call quantities: name -> f(args, result) -> (metric, value, how)
MEASURES: dict[str, Callable] = {
    "seqio.parse_bfile": lambda args, result: ("bytes", len(args[0]), "sum"),
    "seqio.format_bfile": lambda args, result: ("bytes", len(result), "sum"),
    "seqio.dumps_doc": lambda args, result: ("bytes", len(result), "sum"),
    "realizability.check_realizable": lambda args, result: (
        "max_term_bits",
        max(t.bit_length() for t in args[0].terms),
        "max",
    ),
    "sequences.linear_recurrence_term": lambda args, result: ("max_bits", result.bit_length(), "max"),
    "construct.explicit_permutation": lambda args, result: ("points", len(result), "sum"),
}


class Tracer:
    """Spans and helper totals of one traced pass over ``package``."""

    def __init__(self, package):
        self.package = package
        self.op = ""
        self.spans: list[Span] = []
        self.helpers: dict[str, list[float]] = {}  # name -> [calls, s, self_s]
        self.extra: dict[str, float] = {}
        self._stack: list[list] = []  # [name, span id or None, child_s, helper_s]
        self._active: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []
        self._next_id = 0

    # ----------------------------------------------------------- install

    def public_functions(self) -> dict[str, object]:
        """'layer.name' -> original callable, for each layer's __all__."""
        out = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for attr in module.__all__:
                obj = getattr(module, attr)
                if callable(obj) and not inspect.isclass(obj):
                    out[f"{layer}.{attr}"] = obj
        return out

    def install(self) -> None:
        originals = self.public_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        prefix = self.package.__name__
        modules = [m for key, m in sys.modules.items() if key == prefix or key.startswith(prefix + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def leftover_wrappers(self) -> list[str]:
        """'module.attr' for every binding in the package still wrapped."""
        prefix = self.package.__name__
        return [
            f"{key}.{attr}"
            for key, module in list(sys.modules.items())
            if key == prefix or key.startswith(prefix + ".")
            for attr, value in vars(module).items()
            if hasattr(value, "traced_name")
        ]

    # -------------------------------------------------------------- wrap

    def _wrap(self, name: str, fn):
        helper = name in HELPERS
        measure = MEASURES.get(name)
        stack, active, clock = self._stack, self._active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None
            if not helper:
                span_id = self._next_id
                self._next_id += 1
            frame = [name, span_id, 0.0, 0.0]
            outermost = active.get(name, 0) == 0
            active[name] = active.get(name, 0) + 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                self._close(frame, start, end, outermost)
            if measure is not None:
                metric, value, how = measure(args, result)
                self.add(f"{name}.{metric}", value, how)
            return result

        wrapper.traced_name = name
        return wrapper

    def _close(self, frame: list, start: float, end: float, outermost: bool) -> None:
        name, span_id, child_s, helper_s = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
            if span_id is None:
                parent[3] += duration
        if span_id is None:
            totals = self.helpers.setdefault(name, [0, 0.0, 0.0])
            totals[0] += 1
            totals[1] += duration if outermost else 0.0
            totals[2] += duration - child_s
        else:
            parent_span = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            self.spans.append(Span(span_id, parent_span, self.op, name, start, end, helper_s))

    def add(self, key: str, value: float, how: str = "sum") -> None:
        """Add to, or with how="max" raise, a counter reported by totals()."""
        old = self.extra.get(key, 0)
        self.extra[key] = max(old, value) if how == "max" else old + value

    # ------------------------------------------------------------ totals

    def totals(self) -> dict[str, float]:
        """'<name>.calls', '<name>.s' (inclusive, outermost calls only) and
        '<name>.self_s' for every function called, plus the extra counters."""
        out: dict[str, float] = {}
        selfs = self_times(self.spans)
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
            out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0.0) + selfs[s.id]
            nested = False
            parent = s.parent
            while parent is not None:
                if by_id[parent].name == s.name:
                    nested = True
                    break
                parent = by_id[parent].parent
            if not nested:
                out[f"{s.name}.s"] = out.get(f"{s.name}.s", 0.0) + (s.end - s.start)
        for name, (calls, total, own) in self.helpers.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = own
        out.update(self.extra)
        return out
