"""Per-module spans around tdhom's coarse entry points, installed from
outside the package.

Each module is one layer.  A wrapper records a span per call; a layer's
self time is its spans' durations minus the durations of the wrapped spans
nested directly inside them, so recursive calls (`iterated_terms` calls
itself) are not counted twice and the self times of one job add up to the
time spent under the outermost spans.  Size counters are read from
arguments and results; the time they take is charged to no layer.

Modules import these names with `from .x import y`, so a wrapper replaces
the original in every tdhom module that holds it, and `traced()` puts every
original back when it exits.
"""

import functools
import importlib
import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "files", "algebra", "maps", "coalgebra", "convolution",
          "cohomology", "td_structures", "lie_rinehart", "linalg")

COUNTERS = ("coalgebra.delta_nnz", "convolution.entries",
            "linalg.eliminations", "linalg.cells", "linalg.nnz")

# (module, qualified name, counter hook).  Per-element functions such as
# apply_basis, eval_basis and coefficient stay unwrapped: their call counts
# would cost more to record than the work they do.
ENTRY_POINTS = (
    ("cli", "build_verify_report", None),
    ("cli", "build_cohomology_report", None),
    ("files", "load_path", None),
    ("files", "parse_structure", None),
    ("algebra", "check_lie", None),
    ("algebra", "check_module", None),
    ("algebra", "check_associative", None),
    ("algebra", "check_poisson", None),
    ("maps", "MultilinearMap.compose_at", None),
    ("coalgebra", "check_coassociativity", None),
    ("coalgebra", "Coalgebra.iterated_terms", "delta"),
    ("convolution", "InducedOperator.materialize", "materialized"),
    ("convolution", "twisted_term", None),
    ("convolution", "MaterializedOperator.add", None),
    ("convolution", "MaterializedOperator.argument_permute", None),
    ("convolution", "MaterializedOperator.first_difference", None),
    ("cohomology", "ce_differential", None),
    ("cohomology", "ce_complex", None),
    ("cohomology", "induction_matrix", None),
    ("cohomology", "TDComplexData.__init__", None),
    ("cohomology", "td_differential_induced", None),
    ("cohomology", "td_differential_direct", None),
    ("cohomology", "TDCochain.same_as", None),
    ("linalg", "rank", "elimination"),
    ("linalg", "kernel_basis", "elimination"),
    ("linalg", "pivot_columns", "elimination"),
    ("linalg", "solve", "elimination"),
    ("linalg", "RationalMatrix.matmul", None),
    ("linalg", "SparseColumns.to_dense", None),
    ("td_structures", "check_td_lie", None),
    ("td_structures", "check_td_poisson", None),
    ("td_structures", "check_td_module", None),
    ("lie_rinehart", "check_lr", None),
    ("lie_rinehart", "check_td_lr", None),
    ("lie_rinehart", "blinear_subspace", None),
    ("lie_rinehart", "check_subcomplex", None),
)


class Tracer:
    """Self time and call count per layer, plus size counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.matrices = set()
        # one entry per open span: time covered by its finished children
        self._open = []

    def span(self, layer, fn, hook=None):
        """fn wrapped to record a span of the layer on every call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook == "elimination":
                self._uncharged(self._count_matrix, args[0])
            self._open.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                self.self_s[layer] += duration - self._open.pop()
                self.calls[layer] += 1
                if self._open:
                    self._open[-1] += duration
            if hook == "delta":
                self._uncharged(self._count_delta, result)
            elif hook == "materialized":
                self.counters["convolution.entries"] += len(result.entries)
            return result

        return wrapper

    def _uncharged(self, count, value):
        """Run a counter so its time is charged to no layer: the enclosing
        span sees it as a child with no layer of its own."""
        start = self.clock()
        count(value)
        if self._open:
            self._open[-1] += self.clock() - start

    def _count_delta(self, terms):
        self.counters["coalgebra.delta_nnz"] += sum(
            len(expansion) for expansion in terms.values())

    def _count_matrix(self, m):
        self.counters["linalg.eliminations"] += 1
        self.counters["linalg.cells"] += m.rows * m.cols
        self.counters["linalg.nnz"] += sum(1 for x in m.entries if x != 0)
        self.matrices.add((m.rows, m.cols, tuple(m.entries)))

    def distinct_frac(self):
        """Distinct matrices, compared by content, per elimination."""
        n = self.counters["linalg.eliminations"]
        return len(self.matrices) / n if n else 0.0


def _tdhom_namespaces():
    return [mod.__dict__ for name, mod in sorted(sys.modules.items())
            if name == "tdhom" or name.startswith("tdhom.")]


@contextmanager
def traced(tracer):
    """Install the tracer's wrappers for the duration of the block."""
    for layer in LAYERS:
        importlib.import_module("tdhom." + layer)
    namespaces = _tdhom_namespaces()
    restore = []
    try:
        for layer, qualname, hook in ENTRY_POINTS:
            module = sys.modules["tdhom." + layer]
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                restore.append((owner, attr, original))
                setattr(owner, attr, tracer.span(layer, original, hook))
                continue
            original = module.__dict__[attr]
            wrapper = tracer.span(layer, original, hook)
            for ns in namespaces:
                for name, value in list(ns.items()):
                    if value is original:
                        restore.append((ns, name, original))
                        ns[name] = wrapper
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
