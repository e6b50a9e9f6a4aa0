"""Span tracer that wraps functions at their import sites, for the traced run.

A target names one layer and the places it is reached from, as
``"package.module:attr"`` or ``"package.module:Class.method"``. Installing the
tracer replaces each site with a wrapper that records a span per call:
duration, and self time (duration minus the spans of traced callees), both
in CPU time of the calling thread, the clock the trials are timed with.
Spans are aggregated in memory per (scope, target); the caller sets
``scope`` to say which phase of a trial is running. A site that no longer
exists is reported in ``absent`` instead of raising.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from time import thread_time_ns
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One traced layer: a metric name, its call sites, and what to record."""

    name: str
    sites: tuple[str, ...]
    timed: bool = True  # False: count calls only (for very hot, very cheap calls)
    observe: Optional[Callable[[tuple, object], dict[str, int]]] = None


@dataclass
class Stat:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    counters: dict[str, int] = field(default_factory=dict)


def _resolve(site: str):
    """(owner, attr) for a site, or None when the module or attribute is gone."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Install with ``with tracer:``; the originals are restored on exit."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.scope = ""
        self.stats: dict[tuple[str, str], Stat] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []  # child-span time accumulated per open span
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        absent = []
        for target in self.targets:
            wrappers: dict[int, Callable] = {}
            found = False
            for site in target.sites:
                resolved = _resolve(site)
                if resolved is None:
                    continue
                found = True
                owner, attr = resolved
                original = getattr(owner, attr)
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    wrapper = wrappers[id(original)] = self._wrap(target, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            if not found:
                absent.append(target.name)
        self.absent = absent
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._stack.clear()

    def _stat(self, name: str) -> Stat:
        key = (self.scope, name)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        return stat

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name, observe, stack = target.name, target.observe, self._stack

        if not target.timed:

            def counted(*args, **kwargs):
                self._stat(name).calls += 1
                return fn(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = thread_time_ns() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += span
                stat = self._stat(name)
                stat.calls += 1
                stat.total_ns += span
                stat.self_ns += span - children
            if observe is not None:
                counters = stat.counters
                for key, value in observe(args, result).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        return traced

    def total(self, name: str, scopes: Optional[Callable[[str], bool]] = None) -> Stat:
        """Sum of one target's stats over the scopes the predicate accepts (all by default)."""
        out = Stat()
        for (scope, key), stat in self.stats.items():
            if key != name or (scopes is not None and not scopes(scope)):
                continue
            out.calls += stat.calls
            out.total_ns += stat.total_ns
            out.self_ns += stat.self_ns
            for k, v in stat.counters.items():
                out.counters[k] = out.counters.get(k, 0) + v
        return out
