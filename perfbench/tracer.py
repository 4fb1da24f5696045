"""Outside-in span recording for one traced CLI invocation.

The tracer rebinds public functions of the linrep modules from outside:
every module namespace that holds a traced function gets a wrapper that
records a span (name, start, end, parent).  Nothing inside the package
changes.  The fair multiset ordering is a generator, so its wrapper times
each ``next``; the supplier returned by ``window_plentiful_supply`` is
wrapped when it is handed out.

Spans stay in memory as lists and are exported once, at the end.
"""

from __future__ import annotations

import inspect
from math import comb
from time import perf_counter

import linrep
from linrep import builder_diff, builder_target, builder_unique, cli, forms, repcount

MODULES = (linrep, repcount, forms, builder_unique, builder_target, builder_diff, cli)

# Spans are named "<layer>.<function>"; the layer is the module name.
ENTRY_POINTS = {
    repcount: ("class_counts", "rep_function", "count_at"),
    builder_unique: ("build",),
    builder_target: ("build_for_target", "check_counts_against_target"),
    builder_diff: ("build_infinite_case", "build_unbounded_case", "extract_plentiful",
                   "is_plentiful"),
}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, attrs]
        self._stack: list[int] = []
        self._largest = None  # (set size, counts) of the largest class_counts call

    def _open(self, name: str, attrs=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append([name, perf_counter(), None, parent, attrs])
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_class_counts(self, fn):
        def traced(form, ground_set, *args, **kwargs):
            size, arity = len(ground_set), form.arity
            if not size:
                tuples = 0
            elif len(set(form.coefficients)) == 1:
                tuples = comb(size + arity - 1, arity)
            else:
                tuples = size**arity
            idx = self._open("repcount.class_counts", {"size": size, "tuples": tuples})
            try:
                counts = fn(form, ground_set, *args, **kwargs)
            finally:
                self._close(idx)
            if self._largest is None or size >= self._largest[0]:
                self._largest = (size, counts)
            return counts

        return traced

    def wrap_ordering(self, fn):
        tracer = self

        class TimedIterator:
            def __init__(self, it):
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer._open("builder_target.ordering_next")
                try:
                    return next(self._it)
                finally:
                    tracer._close(idx)

        class TimedOrdering:
            def __init__(self, inner):
                self._inner = inner

            def __iter__(self):
                return TimedIterator(iter(self._inner))

            def __getattr__(self, attr):
                return getattr(self._inner, attr)

        def traced(*args, **kwargs):
            return TimedOrdering(fn(*args, **kwargs))

        return traced

    def wrap_supply_factory(self, fn):
        def traced(*args, **kwargs):
            idx = self._open("builder_diff.window_plentiful_supply")
            try:
                supplier = fn(*args, **kwargs)
            finally:
                self._close(idx)
            return self.wrap("builder_diff.supply", supplier)

        return traced

    def _replacements(self) -> dict:
        """Original function -> wrapper, for every traced public function."""
        out = {}
        for module, names in ENTRY_POINTS.items():
            for name in names:
                fn = getattr(module, name)
                if name == "class_counts":
                    out[fn] = self.wrap_class_counts(fn)
                else:
                    out[fn] = self.wrap(f"{_short(module)}.{name}", fn)
        out[builder_target.enumerate_multiset] = self.wrap_ordering(
            builder_target.enumerate_multiset
        )
        out[builder_diff.window_plentiful_supply] = self.wrap_supply_factory(
            builder_diff.window_plentiful_supply
        )
        for name, fn in vars(cli).items():
            if name == "main" or name.startswith("cmd_"):
                out[fn] = self.wrap(f"cli.{name}", fn)
        for name, fn in vars(forms).items():
            if inspect.isfunction(fn) and fn.__module__ == forms.__name__ and name[0] != "_":
                out[fn] = self.wrap(f"forms.{name}", fn)
        return out

    def install(self) -> None:
        """Rebind each traced function in every module namespace that holds it."""
        replacements = self._replacements()
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    setattr(module, name, replacements[value])
        parse = forms.LinearForm.parse.__func__
        forms.LinearForm.parse = classmethod(self.wrap("forms.LinearForm.parse", parse))

    def export(self) -> dict:
        classes = 0
        if self._largest is not None:
            classes = sum(self._largest[1].values())
        return {"spans": self.spans, "largest_set_classes": classes}
