"""Span tracer that times calls into the library's layers from outside.

Each hook replaces one function in the module where its caller looks the name
up (``cdsk.driver.solve_alpha_coupled`` is called by ``run_cdsk`` through the
``cdsk.driver`` globals, ``tune_lambda`` by the CLI through ``cdsk.cli``), so
no code under ``src/`` changes.  A hook whose name no longer exists, because a
refactor deleted or renamed the function, is recorded as absent and its layer
reports zero calls instead of failing the run.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory while its hooks are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a block."""
        index = self._open(name)
        try:
            yield self.spans[index]
        except BaseException as exc:
            self._close(index, exc)
            raise
        self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name=name, start=time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, error: BaseException | None = None) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        if error is not None:
            span.error = type(error).__name__
        self._stack.pop()
        return span

    def hook(self, module, attr: str, layer: str, observe=None) -> None:
        """Wrap ``module.attr`` so each call records a span named ``layer``.

        ``observe(span, bound_arguments, result)`` may copy facts about the
        call's result into ``span.info``.
        """
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            index = self._open(layer)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self._close(index, exc)
                raise
            span = self._close(index)
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    observe(span, bound.arguments, result)
                except (AttributeError, KeyError, TypeError) as exc:
                    # a refactored signature or result type loses the detail,
                    # not the run
                    span.info["observe_error"] = repr(exc)
            return result

        setattr(module, attr, traced)
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Span time of ``name`` minus the part its direct children cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        total = 0.0
        for index, span in enumerate(self.spans):
            if span.name != name:
                continue
            covered, reach = 0.0, span.start
            for child in sorted(children.get(index, []), key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += span.seconds - covered
        return total

