"""Span recorder and counting field for the benchmark's traced run.

Spans are recorded from the benchmark's side of each public call into
biproj: (name, start, end, operation id), kept in memory and written out
when the run ends.  Untraced runs use a recorder that calls straight
through, so the end-to-end numbers carry no tracing cost.
"""

import time


class Recorder:
    def __init__(self, on):
        self.on = on
        self.spans = []
        self.op = 0
        self.max_matrix_cells = 0

    def call(self, name, fn, *args):
        if not self.on:
            return fn(*args)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, t0, time.perf_counter(), self.op))

    def count(self, name):
        return sum(1 for span in self.spans if span[0] == name)

    def durations_ms(self, name):
        return [(end - start) * 1000.0 for n, start, end, _ in self.spans if n == name]


class CountingField:
    """A biproj field that times and counts rref, reduce_rows and rank.

    Every other attribute (kind, p, scalar, zeros, ...) is the wrapped
    field's own, so the oracle takes the same branches as with the bare
    field.  The wrapped field's internal calls (rank -> rref) are not
    counted, only the oracle's calls into the field.
    """

    def __init__(self, inner, recorder):
        self._inner = inner
        self._rec = recorder

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _timed(self, name, matrix, *rest):
        self._rec.max_matrix_cells = max(self._rec.max_matrix_cells, int(matrix.size))
        return self._rec.call("fields." + name, getattr(self._inner, name), matrix, *rest)

    def rref(self, A):
        return self._timed("rref", A)

    def reduce_rows(self, W, ech):
        return self._timed("reduce_rows", W, ech)

    def rank(self, A):
        return self._timed("rank", A)
