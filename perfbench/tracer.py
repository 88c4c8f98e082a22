"""Span tracer over solidyn's public functions, installed by rebinding.

Several solidyn modules import their collaborators by name (``from .stepping
import strang_step``), so wrapping one module attribute would miss the calls
made through the others.  ``Tracer.install`` therefore rebinds every global
of every loaded ``solidyn`` module that *is* the original function object,
and sets methods on their defining class; ``restore`` puts every original
object back.

Spans are folded into per-name totals as they close instead of being kept:
a run makes hundreds of thousands of calls.  A span's self time is its
duration minus the durations of the spans opened directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time


class LayerStats:
    """Totals for one traced function."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0

    @property
    def us_per_call(self):
        return 1e6 * self.total_s / self.calls if self.calls else 0.0


class Tracer:
    """Wraps ``package.module.func`` and ``package.module.Class.method``.

    Use as a context manager; ``stats`` maps each target name (without the
    package prefix) to its ``LayerStats``.  ``observers`` maps a target name
    to a callable that receives each value the target returns.
    """

    def __init__(self, targets, package="solidyn", clock=time.perf_counter,
                 observers=None):
        self.targets = tuple(targets)
        self.package = package
        self.clock = clock
        self.observers = dict(observers or {})
        self.stats = {name: LayerStats() for name in self.targets}
        self._stack = []
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- installation ---------------------------------------------------

    def _resolve(self, name):
        module_name, _, attr = name.partition(".")
        owner = importlib.import_module(f"{self.package}.{module_name}")
        *classes, func_name = attr.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name)
        original = vars(owner).get(func_name)
        if not callable(original) or isinstance(original, type):
            raise TypeError(f"{name} is not a plain function")
        return owner, func_name, original, bool(classes)

    def _modules(self):
        # Import every submodule first: one imported while the wrappers are
        # installed would bind a wrapper by name and keep it after restore.
        package = importlib.import_module(self.package)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{self.package}.{info.name}")
        prefix = self.package + "."
        return [mod for key, mod in list(sys.modules.items())
                if mod is not None and (key == self.package
                                        or key.startswith(prefix))]

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        resolved = [self._resolve(name) for name in self.targets]
        modules = self._modules()
        for name, (owner, func_name, original, is_method) in zip(
                self.targets, resolved):
            wrapper = self._wrap(name, original)
            if is_method:
                self._rebind(owner, func_name, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def restore(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = self.clock
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - children[0]
                if stack:
                    stack[-1][0] += duration
            if observe is not None:
                observe(result)
            return result

        return traced
