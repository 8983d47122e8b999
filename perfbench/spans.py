"""Spans around calls into queuemc, installed from outside the package.

A target names a module-level function (``"payloads.pack_request"``) or a
class attribute (``"fabric.Queue.push"``) of the ``queuemc`` package.
Installing a target rebinds it, in every loaded queuemc module that holds
the same object, to a wrapper that times each call. Nothing under ``src/``
changes, and :meth:`Tracer.uninstall` restores the original bindings.
Code outside the package reaches a traced function only through its module
(``engine.run_chains``), never through a name imported from it.

Spans are aggregated in memory per thread as (calls, inclusive seconds,
self seconds). A span's self time is its duration minus the durations of
the wrapped calls made inside it on the same thread, so a layer's own cost
can be told apart from the layers it calls. Wrappers bind at call time for
functions and at attribute lookup for methods: a bound method taken before
:meth:`Tracer.install` (a queue trigger, for instance) stays unwrapped, so
sessions are built after installing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

PACKAGE = "queuemc"


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict[str, list]] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []
        self.installed: list[str] = []
        self.absent: dict[str, str] = {}

    def install(self, targets) -> None:
        for target in targets:
            try:
                self._install_one(target)
            except (ImportError, AttributeError) as exc:
                self.absent[target] = f"target missing: {exc}"
            else:
                self.installed.append(target)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def reset(self) -> None:
        """Forget every span recorded so far; wrappers stay installed."""
        with self._lock:
            for table in self._tables:
                table.clear()

    def stats(self, target: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) summed over threads."""
        calls, incl, self_s = 0, 0.0, 0.0
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            row = table.get(target)
            if row is not None:
                calls += row[0]
                incl += row[1]
                self_s += row[2]
        return calls, incl, self_s

    def guard(self) -> dict[str, str]:
        """Targets that are missing or recorded no call, with the reason."""
        out = dict(self.absent)
        for target in self.installed:
            if self.stats(target)[0] == 0:
                out[target] = "recorded no call"
        return out

    def _install_one(self, target: str) -> None:
        mod_name, _, path = target.partition(".")
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        if "." in path:
            cls_name, _, attr = path.partition(".")
            owner = getattr(module, cls_name)
            original = getattr(owner, attr)
            own = attr in vars(owner)
            setattr(owner, attr, self._wrap(target, original))
            self._patches.append((owner, attr, original, own))
            return
        original = getattr(module, path)
        wrapper = self._wrap(target, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original, True))

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def _wrap(self, target: str, fn):
        perf = time.perf_counter
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, table = state()
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                row = table.get(target)
                if row is None:
                    row = table[target] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - child

        return wrapper
