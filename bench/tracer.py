"""Per-layer spans recorded around hyperlin's entry points, from outside.

``Tracer.install`` replaces each target function with a wrapper wherever a
hyperlin module binds it (module globals, dispatch dicts such as
``spectra._MATRIX_BUILDERS``, and class attributes), and ``uninstall`` puts
every original back. Nothing is wrapped unless a tracer is installed, so an
untraced run calls the program exactly as a user would.

A span's self time is its duration minus the durations of its direct
children and of the pauses taken inside it (``Tracer.pause``, for the
benchmark's own work during an op); self times of one op therefore sum to
at most its wall time.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

#: (module, attribute, span name, counter name or None, counter function).
#: A dotted attribute names a method or classmethod on a class.
TARGETS = (
    ("hypergraph", "parse", "hypergraph.parse", None, None),
    ("hypergraph", "Hypergraph.from_json", "hypergraph.parse", None, None),
    ("hypergraph", "Hypergraph.from_lines", "hypergraph.parse", None, None),
    ("hypergraph", "incidence_matrix", "hypergraph.incidence", None, None),
    ("hypergraph", "incidence_graph_adjacency", "hypergraph.incidence", None, None),
    ("linalg", "rref", "linalg.rref", "cells", lambda a, out: a[0].rows * a[0].cols),
    ("linalg", "nullspace", "linalg.nullspace", None, None),
    ("linalg", "determinant", "linalg.determinant", None, None),
    ("linalg", "solve", "linalg.solve", None, None),
    ("linalg", "RationalMatrix.__matmul__", "linalg.matmul", None, None),
    ("structures", "find_equal_edge_partitions", "structures.partitions", "found", lambda a, out: len(out)),
    ("structures", "verify_equal_edge_partition", "structures.verify_partition", None, None),
    ("structures", "units", "structures.units", None, None),
    ("structures", "unit_contraction", "structures.units", None, None),
    ("structures", "verify_unit_maximality", "structures.units", None, None),
    ("spectra", "build_Q", "spectra.build", None, None),
    ("spectra", "build_A", "spectra.build", None, None),
    ("spectra", "build_D", "spectra.build", None, None),
    ("spectra", "build_K", "spectra.build", None, None),
    ("spectra", "build_L", "spectra.build", None, None),
    ("spectra", "eigenvalues_sym", "spectra.eig", None, None),
    ("spectra", "verify_Q_annihilation", "spectra.verify", None, None),
    ("spectra", "verify_A_eigenvalue", "spectra.verify", None, None),
    ("spectra", "verify_L_eigenvalue", "spectra.verify", None, None),
    ("randwalk", "transition_matrix", "randwalk.transition", None, None),
    ("randwalk", "hitting_times", "randwalk.hitting", None, None),
    ("randwalk", "first_hit_probabilities", "randwalk.first_hit", None, None),
    ("randwalk", "verify_partition_transition", "randwalk.verify_partition", None, None),
    ("randwalk", "simulate", "randwalk.simulate", "draws", lambda a, out: out.trajectories * (out.steps + 1)),
    ("centrality", "rw_closeness", "centrality.rw_closeness", None, None),
    ("centrality", "rw_betweenness", "centrality.rw_betweenness", None, None),
    ("centrality", "perron_centrality", "centrality.perron", "iterations", lambda a, out: out.parameters["iterations"]),
    ("cli", "main", "cli", None, None),
)


class Tracer:
    """Collects spans ``[name, parent, start, end, count]`` while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: ``(parent span index or -1, seconds)`` of each pause.
        self.pauses: list[tuple[int, float]] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if count is not None:
                rec[4] = count(args, out)
            return out

        return wrapper

    def pause(self, fn):
        """Call ``fn()`` and leave its time out of the open span's self time.

        Pauses are kept apart from ``spans``, so one taken by a signal
        handler in the middle of a wrapper cannot shift span indices.
        """
        parent = self._stack[-1] if self._stack else -1
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self.pauses.append((parent, perf_counter() - t0))

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "hyperlin" or k.startswith("hyperlin."))
        ]
        for mod_name, attr, name, _, count in TARGETS:
            module = sys.modules[f"hyperlin.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, count))
                else:
                    new = self._wrap(raw, name, count)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw, False))
                continue
            orig = getattr(module, attr)
            new = self._wrap(orig, name, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, new)
                        self._undo.append((m, key, orig, False))
                    elif isinstance(value, dict):
                        for dk, dv in list(value.items()):
                            if dv is orig:
                                value[dk] = new
                                self._undo.append((value, dk, orig, True))

    def uninstall(self) -> None:
        for owner, key, orig, is_dict in reversed(self._undo):
            if is_dict:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.pauses.clear()
        self._stack.clear()

    def layer_totals(self) -> dict[str, float]:
        """Self seconds, call counts and counters per span name.

        Keys are ``<name>.self_s``, ``<name>.calls`` and ``<name>.<counter>``.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for parent, seconds in self.pauses:
            if parent >= 0:
                child[parent] += seconds
        counters = {t[2]: t[3] for t in TARGETS if t[3]}
        out: dict[str, float] = {}
        for i, (name, _, start, end, count) in enumerate(self.spans):
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start) - child[i]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            if name in counters:
                key = f"{name}.{counters[name]}"
                out[key] = out.get(key, 0) + count
        return out
