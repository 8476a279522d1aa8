"""Per-layer tracing from outside the program.

The tracer replaces public functions of the diagforge modules with
wrappers wherever a module binds them (``diagforge.cli.certify`` as well
as ``diagforge.certify.certify``), and ``DenseMatrix.__init__`` on the
class.  Each wrapper records a span with its parent, timed in process
CPU seconds like the end-to-end run; a layer's number is its self time,
the span's duration minus the time its child spans cover.
A call into a layer from inside the same span (recursive emission)
adds no span of its own.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

# (module, attribute, span name); a function bound in several modules is
# wrapped at every binding so that no call path escapes the tracer
PATCHES = (
    ("diagforge.cli", "load_problem", "cli.parse"),
    ("diagforge.cli", "parse_vector", "cli.parse"),
    ("diagforge.cli", "parse_matrix", "cli.parse"),
    ("diagforge.cli", "emit_scalar", "cli.emit"),
    ("diagforge.cli", "emit_nested", "cli.emit"),
    ("diagforge.cli", "emit_matrix", "cli.emit"),
    ("diagforge.cli", "write_output", "cli.emit"),
    ("diagforge.cli", "realize_mixed", "nonneg.realize"),
    ("diagforge.nonneg", "construct_3x3", "nonneg.construct_3x3"),
    ("diagforge.matrix", "exact_nullspace", "nonneg.glue"),
    ("diagforge.cli", "similar_with_diagonal", "similarity.similar"),
    ("diagforge.eigen", "all_nonzero_eigenvector", "similarity.eigvec"),
    ("diagforge.eigen", "char_poly", "eigen.char_poly"),
    ("diagforge.eigen", "eigenvalues", "eigen.eigenvalues"),
    ("diagforge.certify", "eigenvalues", "eigen.eigenvalues"),
    ("diagforge.eigen", "match_multisets", "eigen.match"),
    ("diagforge.certify", "match_multisets", "eigen.match"),
    ("diagforge.cli", "certify", "certify"),
    ("diagforge.certify", "certify", "certify"),
)

# spans recorded in full (id, parent id, name, start, end) for the trace
# file; later spans only feed the per-layer totals
SPAN_RECORD_CAP = 20_000


class Tracer:
    """Span stack, per-layer self time and call counts for one process."""

    def __init__(self):
        self.stack = []  # [span id, name, start, child seconds]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.nonfinite_spectra = 0
        self.spans = []
        self.next_id = 0
        self.saved = []

    def enter(self, name: str) -> list:
        frame = [self.next_id, name, time.process_time(), 0.0]
        self.next_id += 1
        self.calls[name] += 1
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = time.process_time()
        self.stack.pop()
        span_id, name, start, child = frame
        elapsed = end - start
        self.self_s[name] += elapsed - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += elapsed
        if len(self.spans) < SPAN_RECORD_CAP:
            self.spans.append(
                (span_id, parent[0] if parent else None, name, start, end)
            )

    def wrap(self, fn, name: str):
        tracer = self
        is_eigen = name == "eigen.eigenvalues"

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span = name
            if is_eigen:
                span = "eigen.exact_roots" if args[0].exact else "eigen.qr"
            frame = tracer.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if is_eigen and not all(
                math.isfinite(z.real) and math.isfinite(z.imag)
                for z in result.values
            ):
                tracer.nonfinite_spectra += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every patch point; undone by :meth:`uninstall`."""
        import importlib

        wrappers = {}
        for mod_name, attr, name in PATCHES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            if fn not in wrappers:
                wrappers[fn] = self.wrap(fn, name)
            self.saved.append((mod, attr, fn))
            setattr(mod, attr, wrappers[fn])
        from diagforge.matrix import DenseMatrix

        init = DenseMatrix.__init__
        self.saved.append((DenseMatrix, "__init__", init))
        DenseMatrix.__init__ = self.wrap(init, "matrix.dense_init")

    def uninstall(self) -> None:
        for obj, attr, fn in reversed(self.saved):
            setattr(obj, attr, fn)
        self.saved.clear()
