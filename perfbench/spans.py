"""In-memory spans around the library's public functions, installed from outside.

`Tracer.install` replaces every public function of the traced modules, in
every ffdyck namespace that binds it, with a wrapper; `remove` puts the
originals back, so untraced batches run the library untouched.  A span is
opened only where a call crosses from one layer (module) into another or
arrives from the benchmark itself; calls inside a layer are counted but not
spanned.  Each span records the op that caused it, its start and end, and
the time its child spans took, so self time = duration - child time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from types import ModuleType

LAYERS = ("bell", "counting", "series", "words", "grammar", "trees", "codes")


class Span:
    __slots__ = ("name", "layer", "op", "start", "end", "child", "work", "failed")

    def __init__(self, name: str, layer: str, op: int, start: float):
        self.name = name
        self.layer = layer
        self.op = op
        self.start = start
        self.end = start
        self.child = 0.0
        self.work = 0
        self.failed = False

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def _letters(args: tuple, kwargs: dict, result: object) -> int:
    word = args[0] if args else kwargs.get("word", "")
    return len(word) if isinstance(word, str) else 0


def _length(args: tuple, kwargs: dict, result: object) -> int:
    return len(result)  # type: ignore[arg-type]


# Work a boundary call did, read from its arguments and result.
WORK = {
    "u_series": _length,
    "d_series": _length,
    "l_series": _length,
    "generate_u_words": _length,
    "generate_d_words": _length,
    "expand_l_words": _length,
    "brute_enumerate_u": _length,
    "brute_enumerate_d": _length,
    "is_in_u": _letters,
    "is_in_d": _letters,
    "is_factor_free": _letters,
    "is_in_u_lattice": _letters,
    "build_code": lambda a, k, r: len(r.words),
}


class Tracer:
    def __init__(self, package: ModuleType):
        self.package = package
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.stack: list[Span] = []
        self.op = -1
        # Calls made while paused (the benchmark's own checks) are not traced.
        self.paused = True
        self._saved: list[tuple[ModuleType, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        work = WORK.get(name)
        calls = self.calls
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            calls[name] = calls.get(name, 0) + 1
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            span = Span(name, layer, self.op, clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                if stack:
                    stack[-1].child += span.end - span.start
                self.spans.append(span)
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [getattr(self.package, layer) for layer in LAYERS]
        namespaces = modules + [self.package]
        for layer, module in zip(LAYERS, modules):
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(fn, name, layer)
                for ns in namespaces:
                    if vars(ns).get(name) is fn:
                        self._saved.append((ns, name, fn))
                        setattr(ns, name, wrapped)

    def remove(self) -> None:
        for ns, name, fn in reversed(self._saved):
            setattr(ns, name, fn)
        self._saved.clear()

    def take(self) -> tuple[list[Span], dict[str, int]]:
        """Spans and call counts since the last take, then reset both."""
        spans, calls = self.spans, dict(self.calls)
        self.spans = []
        self.calls.clear()
        return spans, calls


def write_spans(path, batches: list[list[Span]], t0: float) -> None:
    """One JSON object per span; times in seconds from the start of the run."""
    with open(path, "w", encoding="utf-8") as fh:
        for batch, spans in enumerate(batches):
            for s in spans:
                fh.write(
                    json.dumps(
                        {
                            "batch": batch,
                            "op": s.op,
                            "name": s.name,
                            "layer": s.layer,
                            "start": round(s.start - t0, 7),
                            "end": round(s.end - t0, 7),
                            "self": round(s.self_time, 7),
                            "work": s.work,
                            "failed": s.failed,
                        }
                    )
                    + "\n"
                )
