"""In-memory span recorder that wraps the program's functions from outside.

The program itself carries no instrumentation. A Tracer replaces public
functions and methods with timing wrappers *where they are looked up*:
``schedule.py`` does ``from .budget import allocate``, so the name that
must be replaced is ``blockprune.schedule.allocate``, not only
``blockprune.budget.allocate``. ``patch_function`` therefore rebinds every
module-level reference to the original object inside the package.

A span is ``[name, start, end, parent, attrs]``; ``parent`` is the index of
the span that was open when this one started (-1 at top level). All spans
of one tracer share its ``run_id``.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    def __init__(self, run_id, package="blockprune"):
        self.run_id = run_id
        self.package = package
        self.spans = []
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------------

    def open(self, name, attrs=None):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, attrs]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def close(self, rec):
        rec[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, attrs=None):
        rec = self.open(name, attrs)
        try:
            yield rec
        finally:
            self.close(rec)

    def annotate(self, attrs):
        """Set the attributes of the innermost open span."""
        self.spans[self._stack[-1]][ATTRS] = attrs

    def wrap(self, name, fn, namer=None, note=None):
        """Timing wrapper; ``namer(args)`` may pick the span name per call and
        ``note(args)`` returns attributes taken at entry."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.open(namer(args) if namer else name, note(args) if note else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(rec)

        return wrapper

    def wrap_generator(self, name, fn):
        """Generator wrapper: one span per ``next``, so lazy work is timed
        where it happens instead of at the call that builds the generator."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(rec)
                yield item

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch_function(self, original, wrapper):
        """Rebind every module-level name in the package that refers to
        ``original``. Returns the number of names rebound."""
        count = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package
                                   or modname.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
                    count += 1
        if count == 0:
            raise LookupError(f"{original!r} is not referenced in {self.package}")
        return count

    def patch_attr(self, owner, attr, wrapper):
        """Replace one attribute (a method on a class, or one module's name)."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def unpatch(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id,
                                     "attrs": attrs}) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic


def duration(span):
    return span[END] - span[START]


def self_times(spans):
    """Per-span self time: duration minus the part covered by direct children.

    Children of one parent may overlap only if they were recorded out of
    band (spans built after the fact); the covered length is therefore the
    length of the union of the children's intervals, clipped to the parent.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cur_start, cur_end = 0.0, None, None
        for c in sorted(children[i], key=lambda j: spans[j][START]):
            a = max(spans[c][START], s[START])
            b = min(spans[c][END], s[END])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(duration(s) - covered)
    return out


def outermost_busy(spans, name, skip_under=None):
    """Total seconds and call count of spans called ``name``, counting only
    the outermost of nested same-name spans, so nesting is not summed twice.
    Spans below one called ``skip_under`` are left out."""
    total, calls = 0.0, 0
    for s in spans:
        if s[NAME] != name:
            continue
        outermost, p = True, s[PARENT]
        while p >= 0:
            if spans[p][NAME] == skip_under:
                break
            outermost = outermost and spans[p][NAME] != name
            p = spans[p][PARENT]
        if p < 0 and outermost:
            total += duration(s)
            calls += 1
    return total, calls


def has_ancestor(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False
