"""Layer-boundary tracer for the ovtl benchmark.

The tracer wraps every public function of every ``ovtl`` module, the public
methods and cached properties of the classes those modules define, and the
``numpy.fft`` / ``numpy.linalg`` entry points, in timing spans.  Plain
properties are left alone: they are cheap accessors called very often.  A layer is a module
(``spectral``, ``opfield``, ...) or one of the numpy groups ``numpy.fft``,
``numpy.eig`` (the eigenvalue solvers) and ``numpy.linalg`` (the rest).

A span opens only where a call crosses from one layer into another; a call
inside a layer runs in its caller's span, so a layer's self time is the time
its spans cover minus the time their child spans cover.  Counters are
updated on every call, boundary or not.

Each wrapper is bound in every namespace that holds the original function:
``from .opfield import gram`` leaves ``ovtl.sqfn.gram`` pointing at the same
object as ``ovtl.opfield.gram``, and both must be rebound.  ``check_bindings``
lists any reference to an original that a traced run would miss.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import pkgutil
import time
import types
from collections import defaultdict

FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
EIG_FUNCS = ("eig", "eigh", "eigvals", "eigvalsh")

ROOT_LAYER = "bench"


def ovtl_modules() -> list:
    """The ``ovtl`` package and every module in it, imported."""
    import ovtl

    mods = [ovtl]
    for info in sorted(pkgutil.iter_modules(ovtl.__path__), key=lambda i: i.name):
        mods.append(importlib.import_module(f"ovtl.{info.name}"))
    return mods


def _is_plain_callable(obj) -> bool:
    return callable(obj) and not isinstance(obj, type)


def _is_function(obj) -> bool:
    """A Python function, or one behind ``functools.lru_cache``."""
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


class Tally:
    """Self seconds per layer and counter values, accumulated while current."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)


class Tracer:
    """Spans and counters for one benchmark process.

    ``install`` rebinds the wrappers, ``uninstall`` restores the originals;
    both can be called repeatedly.  Times and counts go to the current
    :class:`Tally`, which the caller may swap.
    """

    def __init__(self):
        self.tally = Tally()
        self._stack = []         # open spans: [layer, child_seconds]
        self._originals = {}     # id(original) -> original
        self._wrappers = {}      # id(original) -> wrapper
        self._bindings = []      # (namespace, attr, original_entry, wrapped_entry)
        self._class_entries = []  # (cls, attr, original_entry) wrapped methods
        self._cached_properties = []  # functools.cached_property objects wrapped
        self._hooks = self._counter_hooks()
        self.installed = False
        self._prepare()

    # -- counters ---------------------------------------------------------

    def _counter_hooks(self) -> dict:
        """Counter updates keyed by "layer.name"; each gets (args, kwargs,
        result, caller layer) after a call returns."""

        def add(key, value=1):
            self.tally.counts[key] += value

        def fft(args, kwargs, result, caller):
            a = _arg(args, kwargs, 0, "a")
            add("spectral.fft_calls")
            add("spectral.fft_bytes", getattr(a, "nbytes", 0) + getattr(result, "nbytes", 0))

        def eig(args, kwargs, result, caller):
            a = _arg(args, kwargs, 0, "a")
            add("opfield.eig_calls")
            add("opfield.eig_matrices", math.prod(a.shape[:-2]) if a.ndim > 2 else 1)

        def gram(args, kwargs, result, caller):
            add("opfield.gram_calls")

        def level(args, kwargs, result, caller):
            add("sqfn.levels")

        def ball(args, kwargs, result, caller):
            add("sqfn.ball_correlations")

        def tent(args, kwargs, result, caller):
            add("atomics.tent_atoms", len(result))

        def decomposition(args, kwargs, result, caller):
            add("atomics.smooth_atoms", len(result.low_pairs) + len(result.high_pairs))
            add("atomics.kept_high_atoms", len(result.high_pairs))
            add("atomics.subatoms", sum(len(getattr(a, "subatoms", ()))
                                        for _, a in result.high_pairs))

        def validation(args, kwargs, result, caller):
            add("atomics.validations")

        def certificate(args, kwargs, result, caller):
            add("fmult.trials", result.trials)

        def hsigma(args, kwargs, result, caller):
            if caller == "fmult":
                add("fmult.hsigma_evals")

        def wrote_field(args, kwargs, result, caller):
            add("fieldio.bytes_written", _file_size(_arg(args, kwargs, 0, "path")))

        def wrote_decomposition(args, kwargs, result, caller):
            add("fieldio.bytes_written",
                _file_size(_arg(args, kwargs, 0, "manifest_path"))
                + _file_size(_arg(args, kwargs, 1, "blob_path")))

        def read_field(args, kwargs, result, caller):
            add("fieldio.bytes_read", _file_size(_arg(args, kwargs, 0, "path")))

        def read_blob(args, kwargs, result, caller):
            add("fieldio.bytes_read",
                _file_size(_arg(args, kwargs, 0, "blob_path"))
                + _file_size(_arg(args, kwargs, 1, "manifest_path")))

        def normsuite_entry(args, kwargs, result, caller):
            if caller != "normsuite":
                add("normsuite.calls")

        hooks = {f"numpy.fft.{name}": fft for name in FFT_FUNCS}
        hooks.update({f"numpy.eig.{name}": eig for name in EIG_FUNCS})
        hooks.update({
            "opfield.gram": gram,
            "opfield.PSDAccumulator.add_gram": level,
            "opfield.PSDAccumulator.add_psd": level,
            "sqfn.ball_average": ball,
            "atomics.tent_atomize": tent,
            "atomics.smooth_decompose_tl": decomposition,
            "atomics.smooth_decompose_h1": decomposition,
            "atomics.validate_h_atom": validation,
            "atomics.validate_tent_atom": validation,
            "atomics.validate_smooth_atom": validation,
            "fmult.empirical_square_bound": certificate,
            "fmult.empirical_conic_bound": certificate,
            "spectral.hsigma_norm": hsigma,
            "spectral.hsigma_norm_profile": hsigma,
            "fieldio.write_field": wrote_field,
            "fieldio.write_decomposition": wrote_decomposition,
            "fieldio.read_field": read_field,
            "fieldio.read_decomposition_blob": read_blob,
            "fieldio.load_config": read_field,
            "normsuite.*": normsuite_entry,
        })
        return hooks

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        key = f"{layer}.{name}"
        hook = self._hooks.get(key)
        if hook is None and layer == "normsuite" and "." not in name:
            hook = self._hooks["normsuite.*"]  # every public normsuite function
        stack = self._stack
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            if caller == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    dt = t1 - t0
                    tracer.tally.self_s[layer] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt
            if hook is not None:
                hook(args, kwargs, result, caller)
            return result

        return traced

    def _targets(self):
        """Yield (layer, name, original) for every function to wrap, and
        record the class-dict entries of wrapped methods."""
        import numpy.fft
        import numpy.linalg

        for name in FFT_FUNCS:
            if hasattr(numpy.fft, name):
                yield "numpy.fft", name, getattr(numpy.fft, name)
        for name in sorted(vars(numpy.linalg)):
            obj = getattr(numpy.linalg, name)
            if name.startswith("_") or name == "test" or not _is_plain_callable(obj):
                continue
            yield ("numpy.eig" if name in EIG_FUNCS else "numpy.linalg"), name, obj
        for mod in ovtl_modules()[1:]:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for attr, entry in sorted(vars(obj).items()):
                        if attr.startswith("_"):
                            continue
                        if isinstance(entry, functools.cached_property):
                            self._cached_properties.append(entry)
                            yield layer, f"{name}.{attr}", entry.func
                            continue
                        func = entry.__func__ if isinstance(entry, (staticmethod, classmethod)) else entry
                        if _is_function(func):
                            self._class_entries.append((obj, attr, entry))
                            yield layer, f"{name}.{attr}", func
                elif _is_function(obj):
                    yield layer, name, obj

    def _namespaces(self) -> list:
        import numpy.fft
        import numpy.linalg

        return [numpy.fft, numpy.linalg] + ovtl_modules()

    def _prepare(self) -> None:
        for layer, name, fn in self._targets():
            if id(fn) not in self._wrappers:
                self._originals[id(fn)] = fn
                self._wrappers[id(fn)] = self._wrap(fn, layer, name)
        for ns in self._namespaces():
            for attr, value in sorted(vars(ns).items()):
                if id(value) in self._wrappers and self._originals[id(value)] is value:
                    self._bindings.append((ns, attr, value, self._wrappers[id(value)]))
        for cls, attr, entry in self._class_entries:
            func = entry.__func__ if isinstance(entry, (staticmethod, classmethod)) else entry
            wrapped = self._wrappers[id(func)]
            if isinstance(entry, (staticmethod, classmethod)):
                wrapped = type(entry)(wrapped)
            self._bindings.append((cls, attr, entry, wrapped))
        for prop in self._cached_properties:
            self._bindings.append((prop, "func", prop.func, self._wrappers[id(prop.func)]))

    def install(self) -> None:
        for ns, attr, _, wrapped in self._bindings:
            setattr(ns, attr, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._bindings:
            setattr(ns, attr, original)
        self.installed = False

    # -- self-test ---------------------------------------------------------

    def check_bindings(self) -> list:
        """Return a description of every place a traced run would miss.

        With the tracer installed, no namespace, class dict or default
        argument of an ``ovtl`` function may still hold an original; with it
        uninstalled, no namespace or class dict may still hold a wrapper.
        """
        wrapper_ids = {id(w) for w in self._wrappers.values()}
        spaces = [(ns.__name__, vars(ns)) for ns in self._namespaces()]
        for mod in ovtl_modules()[1:]:
            for name, obj in vars(mod).items():
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    spaces.append((f"{mod.__name__}.{name}", vars(obj)))
                    spaces += [(f"{mod.__name__}.{name}.{attr}", vars(entry))
                               for attr, entry in vars(obj).items()
                               if isinstance(entry, functools.cached_property)]
        problems = []
        for where, space in spaces:
            for attr, value in list(space.items()):
                inner = value.__func__ if isinstance(value, (staticmethod, classmethod)) else value
                if not self.installed:
                    if id(inner) in wrapper_ids:
                        problems.append(f"{where}.{attr} still holds a wrapper after uninstall")
                    continue
                if self._is_original(inner):
                    problems.append(f"{where}.{attr} still holds the untraced function")
                for default in (getattr(inner, "__defaults__", None) or ()):
                    if self._is_original(default):
                        problems.append(f"{where}.{attr} has an untraced default argument")
        return problems

    def _is_original(self, obj) -> bool:
        return self._originals.get(id(obj), self) is obj

    # -- jobs ----------------------------------------------------------------

    def run(self, fn, *args):
        """Call ``fn`` under a root span of layer ``bench``; return
        (result, wall seconds)."""
        frame = [ROOT_LAYER, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.tally.self_s[ROOT_LAYER] += (t1 - t0) - frame[1]
        return result, t1 - t0


def self_test(tracer: Tracer) -> list:
    """Check that ``tracer`` reaches every alias; return the problems found.

    Installs the tracer, checks every binding, calls ``gram`` through its
    ``ovtl.sqfn`` alias and ``PSDAccumulator.eigenvalues`` through its class,
    uninstalls, checks that every original is back, and resets the tracer.
    """
    import numpy as np

    from ovtl import lattice, opfield, sqfn

    tracer.tally = Tally()
    tracer.install()
    problems = tracer.check_bindings()
    tracer.run(sqfn.gram, np.zeros((4, 2, 2), dtype=complex))
    if tracer.tally.counts["opfield.gram_calls"] != 1:
        problems.append("a call through the alias ovtl.sqfn.gram was not traced")
    tracer.tally = Tally()
    acc = opfield.PSDAccumulator(lattice.Grid(1, 16), 2)
    tracer.run(acc.eigenvalues)
    if tracer.tally.counts["opfield.eig_calls"] != 1:
        problems.append("numpy.linalg.eigvalsh called from opfield was not traced")
    if tracer.tally.self_s["opfield"] <= 0.0:
        problems.append("PSDAccumulator.eigenvalues opened no span")
    tracer.uninstall()
    problems += tracer.check_bindings()
    tracer.tally = Tally()
    return problems
