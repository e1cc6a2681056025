"""In-memory span tracer installed around vdwdim's public functions.

Nothing under ``src/`` knows about this module.  ``install`` replaces each
traced function in every namespace where callers look it up: the defining
module, every ``vdwdim`` module that imported it by name, the package
re-exports, and the ``moment`` methods of the atom classes.  ``oracle`` calls
``np.linalg.eigvalsh`` through the numpy module, so that attribute is wrapped
as ``oracle.eigensolve``; nothing else in the package calls it.

A span records its name, its start and end, the span that caused it and the
benchmark op it belongs to.  A layer's self time is its duration minus the
time covered by its child spans, so the self times of one op add up to the
op's wall time.
"""

import functools
import inspect
import math
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id, op id, name, start, end)
        self.stats = {}  # name -> {"calls", "self_s", "total_s", counters...}
        self.op = None
        self._stack = []  # [span id, name, start, child seconds]
        self._next_id = 0

    def _row(self, name):
        row = self.stats.get(name)
        if row is None:
            row = self.stats[name] = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        return row

    def enter(self, name):
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        row = self._row(name)
        row["calls"] += 1
        row["self_s"] += duration - child
        row["total_s"] += duration
        self.spans.append(
            (span_id, parent[0] if parent else None, self.op, name, start, end)
        )

    def wrap(self, name, fn, counter=None):
        """``fn`` inside a span; ``counter(bound_args, result)`` adds counts."""
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                row = self.stats[name]
                for key, amount in counter(bound.arguments, result).items():
                    row[key] = row.get(key, 0) + amount
            return result

        return traced

    def dump(self):
        """Spans and per-layer rows as plain JSON-ready data."""
        return {"stats": self.stats, "spans": [list(s) for s in self.spans]}


def _monomials(args, series):
    return {"monomials": series.monomial_count()}


def _series_evals(args, out):
    return {"evals": len(args["coeffs"]) * len(args["pts_a"])}


def _grid_evals(args, out):
    return {"evals": len(args["coeffs"]) * len(args["xa"]) * len(args["xb"])}


def _sample_evals(args, out):
    return {"evals": len(args["pts_a"])}


def _pair_evals(args, out):
    return {"evals": len(args["pts_a"]) * len(args["pts_b"])}


def _basis_dim(args, result):
    return {"basis_dim": (result.cutoff + 1) ** 2}


def _product_states(args, out):
    per_atom = math.comb(args["cutoff"] + args["series"].dim, args["series"].dim)
    return {"states": per_atom**2}


# (module, function, counter): span names are "<module>.<function>".
TARGETS = (
    ("multipole", "expand_interaction", _monomials),
    ("multipole", "truncation_residual", None),
    ("kernels", "series_batch", _series_evals),
    ("kernels", "four_site_batch", _sample_evals),
    ("kernels", "four_site_grid_1d", None),
    ("kernels", "series_grid_1d", _grid_evals),
    ("kernels", "pair_expectation", _pair_evals),
    ("perturbation", "first_order_expectation", None),
    ("perturbation", "second_order_sum", _product_states),
    ("perturbation", "total_energy_curve", None),
    ("drude_exact", "exact_correction", None),
    ("potential", "v_a_numeric", None),
    ("oracle", "oscillator_basis_diag", _basis_dim),
    ("oracle", "direct_first_order", None),
    ("verify", "run", None),
    ("cli", "main", None),
)


def install(tracer):
    """Wrap every target in all loaded vdwdim namespaces."""
    import numpy.linalg

    import vdwdim.atoms
    import vdwdim.cli  # noqa: F401  (loads every traced module)

    namespaces = [
        mod.__dict__
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "vdwdim" or name.startswith("vdwdim."))
    ]
    for module, attr, counter in TARGETS:
        original = getattr(sys.modules[f"vdwdim.{module}"], attr)
        traced = tracer.wrap(f"{module}.{attr}", original, counter)
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    ns[key] = traced
    for cls in vars(vdwdim.atoms).values():
        if isinstance(cls, type) and "moment" in vars(cls):
            setattr(cls, "moment", tracer.wrap("atoms.moment", vars(cls)["moment"]))
    numpy.linalg.eigvalsh = tracer.wrap("oracle.eigensolve", numpy.linalg.eigvalsh)
