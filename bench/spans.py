"""Span tracing around the public functions of the csmres layers.

The tracer wraps functions from outside the program.  A module that did
``from .specfun import hyp2f1_grid`` holds its own reference, so every
module namespace that binds a public function gets the wrapper, not only
the function's home module.  Spans are kept in memory and saved once, when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("specfun", "model", "wavefun", "binbasis", "eploop", "cli")
_LAYER_MODULES = tuple(f"csmres.{m}" for m in LAYERS)


def _modules() -> list:
    """The layer modules (imported here) and every other loaded csmres
    module."""
    for name in _LAYER_MODULES:
        importlib.import_module(name)
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "csmres" or name.startswith("csmres."))]


def _is_public(obj) -> bool:
    """A function defined in a layer module whose name has no leading
    underscore (wrappers copy both from the function they wrap)."""
    return (inspect.isfunction(obj) and obj.__module__ in _LAYER_MODULES
            and not obj.__name__.startswith("_"))


def _size_of(index: int, keyword: str):
    """Counter of grid points: the size of one array argument."""
    def count(args, kwargs) -> int:
        value = args[index] if len(args) > index else kwargs.get(keyword)
        return int(np.size(value))
    return count


def public_functions() -> dict:
    """``id(fn) -> ("layer.name", fn)`` for every public layer function."""
    found = {}
    for mod in _modules():
        for attr, obj in vars(mod).items():
            if _is_public(obj) and obj.__module__ == mod.__name__:
                layer = mod.__name__.rsplit(".", 1)[1]
                found[id(obj)] = (f"{layer}.{attr}", obj)
    return found


def patch(wrappers: dict) -> list:
    """Bind ``wrappers[id(fn)]`` in place of ``fn`` in every loaded csmres
    module that binds ``fn``; returns what ``unpatch`` needs to undo it."""
    patched = []
    for mod in _modules():
        for attr, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
                patched.append((mod, attr, obj))
    return patched


def unpatch(patched: list) -> None:
    for mod, attr, obj in reversed(patched):
        setattr(mod, attr, obj)


# Functions whose spans also record how many grid points they were given.
POINT_COUNTERS = {
    "specfun.hyp2f1_grid": _size_of(3, "u"),
    "wavefun.raw_psi": _size_of(4, "x"),
}


class Tracer:
    """Records one span per call: name, start, end, parent and points."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.rows: list[list] = []
        self._stack = [-1]
        self._patched: list[tuple] = []
        self._wrapper_ids: set[int] = set()

    def wrap(self, name: str, fn):
        name_ix = len(self.names)
        self.names.append(name)
        points = POINT_COUNTERS.get(name)
        rows, stack, clock = self.rows, self._stack, self.clock

        def traced(*args, **kwargs):
            row = [name_ix, 0.0, 0.0, stack[-1],
                   points(args, kwargs) if points else 0]
            stack.append(len(rows))
            rows.append(row)
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every public csmres function in every module binding it.

        A function is public when its name has no leading underscore and it
        is defined in one of ``LAYERS``.  It is replaced in every loaded
        ``csmres`` module that binds it as an attribute.  The cli reaches
        its subcommands through a dict, which is left alone, so their time
        stays in ``cli.main``.
        """
        wrappers = {key: self.wrap(name, fn)
                    for key, (name, fn) in public_functions().items()}
        self._wrapper_ids = {id(w) for w in wrappers.values()}
        self._patched = patch(wrappers)

    def unwrapped(self) -> list[str]:
        """Attributes of loaded csmres modules that still bind a public
        function without its wrapper: none after a complete ``install``."""
        return [f"{mod.__name__}.{attr}" for mod in _modules()
                for attr, obj in vars(mod).items()
                if _is_public(obj) and id(obj) not in self._wrapper_ids]

    def uninstall(self) -> None:
        unpatch(self._patched)
        self._patched = []

    def save(self, path) -> None:
        rows = np.array(self.rows, dtype=float).reshape(-1, 5)
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_ix=rows[:, 0].astype(np.int64), start=rows[:, 1],
                 end=rows[:, 2], parent=rows[:, 3].astype(np.int64),
                 points=rows[:, 4].astype(np.int64))


def load(path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def self_times(spans: dict) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Calls nest (one thread), so children never overlap one another.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def under(spans: dict, ancestor: str) -> np.ndarray:
    """Mask of spans that have a span named ``ancestor`` above them."""
    names = list(spans["names"])
    if ancestor not in names:
        return np.zeros(len(spans["parent"]), dtype=bool)
    target = names.index(ancestor)
    name_ix = spans["name_ix"]
    parent = spans["parent"]
    inside = np.zeros(len(parent), dtype=bool)
    # spans are recorded in call order, so a parent precedes its children
    for i in range(len(parent)):
        p = parent[i]
        if p >= 0:
            inside[i] = inside[p] or name_ix[p] == target
    return inside
