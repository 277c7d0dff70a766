"""Span recording around the calls into each conemetric layer.

The wrappers are installed from outside the package: they replace the
names that ``conemetric.cli``, ``conemetric.factorization`` and
``conemetric.liouville`` look up at call time, and the originals are put
back when the traced block ends.  Spans are kept in memory and written out
once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

# (module attribute, span name); a name may wrap lookups in several modules
# so that nested calls, e.g. the second inverse_map inside expansion_coeffs,
# become child spans
WRAPPED = (
    ("cli._emit", "cli.emit"),
    ("cli._emit_csv", "cli.emit"),
    ("cli.solve_liouville", "liouville.solve"),
    ("liouville.spsolve", "liouville.linear_solve"),
    ("cli.spectrum_near_two", "liouville.spectrum_near_two"),
    ("liouville.eigsh", "liouville.eigsh"),
    ("cli.projected_solve", "liouville.projected_solve"),
    ("cli.football_eigenfunction", "spectrum.football_eigenfunction"),
    ("cli.extract_eigf_coeffs", "pairing.extract_eigf_coeffs"),
    ("cli.inverse_map", "factorization.inverse_map"),
    ("factorization.inverse_map", "factorization.inverse_map"),
    ("cli.expansion_coeffs", "factorization.expansion_coeffs"),
    ("cli.jacobian", "factorization.jacobian"),
    ("factorization.jacobian", "factorization.jacobian"),
)

ROOT = "cli.main"


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, items]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1

    def span(self, name, fn, count_items=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1, self.op, 0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if count_items:
                    rec[5] = len(out)
                return out
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every WRAPPED lookup of ``package`` for the with-block."""
        saved = []
        try:
            for target, name in WRAPPED:
                mod_name, attr = target.split(".")
                mod = getattr(package, mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.span(
                    name, orig, count_items=name.endswith("inverse_map")))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def self_times(self):
        """Per span name: (self seconds, inclusive seconds, calls, items)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _items in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0, 0])
        for i, (name, start, end, _parent, _op, items) in enumerate(
                self.spans):
            acc = out[name]
            acc[0] += end - start - child[i]
            acc[1] += end - start
            acc[2] += 1
            acc[3] += items
        return out

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": names,
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                                 for s in self.spans]}, fh)
