"""Call spans and counters for qtorus functions, installed from outside the library.

A ``Tracer`` replaces a library function by a timing wrapper at every
place the function is bound: module globals (``from .zlattice import
smith_normal_form`` binds it again in each importing module), class
attributes (``FieldElement.__rmul__`` is the same function as
``__mul__``) and module-level tables of tuples (``selftest.CRITERIA``).
Each wrapper pushes a span on one stack; a span's self time is its
duration minus the time of the spans opened inside it.  ``uninstall``
restores every original binding.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _qtorus_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "qtorus" or name.startswith("qtorus."))
    ]


def binding_sites(func):
    """Every (owner, attribute) in the loaded qtorus modules bound to ``func``.

    Owners are modules and the classes they define.  A module-level
    tuple whose items are tuples holding ``func`` is reported as
    (module, attribute) too; ``_rebind`` rebuilds it.
    """
    sites = []
    for mod in _qtorus_modules():
        for key, val in list(vars(mod).items()):
            if val is func:
                sites.append((mod, key))
            elif isinstance(val, tuple) and any(
                isinstance(item, tuple) and any(x is func for x in item) for item in val
            ):
                sites.append((mod, key))
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                for ckey, cval in list(vars(val).items()):
                    if cval is func:
                        sites.append((val, ckey))
    return sites


def _rebind(owner, key, old, new):
    val = getattr(owner, key)
    if isinstance(val, tuple):
        val = tuple(
            tuple(new if x is old else x for x in item) if isinstance(item, tuple) else item
            for item in val
        )
        setattr(owner, key, val)
    else:
        setattr(owner, key, new)


def resolve(module, qualname):
    """The object named ``qualname`` in ``module``, or None if it is gone."""
    obj = sys.modules.get(module)
    for part in qualname.split("."):
        if obj is None:
            return None
        obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
    return obj


class Tracer:
    """Span stack, per-name call counts and times, and named counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.counts = defaultdict(int)
        self.keys = defaultdict(set)
        self.missing = []
        self._stack = []
        self._undo = []
        self._objects = {}

    def object_seq(self, obj):
        """A run-stable number for ``obj``; keeps it alive so ids are never reused."""
        got = self._objects.get(id(obj))
        if got is None:
            got = (len(self._objects), obj)
            self._objects[id(obj)] = got
        return got[0]

    def self_time(self, name):
        return self.total[name] - self.child[name]

    def _wrap(self, name, func, on_call):
        stack, clock = self._stack, time.perf_counter
        calls, total, child = self.calls, self.total, self.child

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                dt = clock() - start
                inner = stack.pop()
                calls[name] += 1
                total[name] += dt
                child[name] += inner
                if stack:
                    stack[-1] += dt

        return wrapper

    def install(self, specs):
        """Wrap each (name, func, on_call) at all of its binding sites."""
        for name, func, on_call in specs:
            if func is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, func, on_call)
            for owner, key in binding_sites(func):
                before = getattr(owner, key)
                _rebind(owner, key, func, wrapper)
                self._undo.append((owner, key, before))

    def uninstall(self):
        for owner, key, before in reversed(self._undo):
            setattr(owner, key, before)
        self._undo.clear()
