"""Span tracing of the levelsurf layers, installed from outside the library.

While installed, a :class:`Tracer` replaces every library function that
``levelsurf.cli`` looks up in its own namespace, and the ``write_*``
functions of ``levelsurf.io``, with a wrapper that records a span.  A span
carries its name, layer (the library module), start, end, parent span,
the CLI call it belongs to and the run id.  Spans stay in memory until
the run writes them out.

Counts (tets, cut tets, PCG iterations, bytes written, ...) are read from
the return values after a span closes.  The time that takes is summed in
``bookkeeping_s`` and charged to no layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

LAYERS = ["tet_grid", "level_set", "surface_extract", "mesh_quality",
          "surface_fem", "sparse_linalg", "io"]
PRECONDS = ["none", "jacobi", "ilu0", "milu0"]
FALLBACK_ERRORS = ("ZeroPivotError", "LinAlgError")
MIB = 2.0 ** 20


@dataclass
class Span:
    name: str                 # "<layer>.<function>" or "cli.main"
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1          # index of the enclosing span, -1 for none
    call: int = -1            # index of the enclosing cli.main span
    run: str = ""
    error: str = ""           # exception type name if the call raised
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _n_tets(args, kwargs, mesh):
    return {"n_tets": mesh.n_tets,
            "mesh_bytes": mesh.nodes.nbytes + mesh.tets.nbytes}


def _surface(args, kwargs, surface):
    mesh = args[0] if args else kwargs["mesh"]
    return {"n_triangles": surface.n_triangles,
            "cut_tets": len(np.unique(surface.tri_parent)),
            "tets_visited": mesh.n_tets}


def _nnz(args, kwargs, matrix):
    return {"nnz": int(matrix.nnz)}


def _bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _pcg(args, kwargs, result):
    counts = {"precond": str(kwargs.get("precond") or "none")}
    if result is not None:
        stats = result[1]
        counts.update(iters=stats.iterations, converged=stats.converged)
    return counts


# Count readers by span name.  Each is called as reader(args, kwargs,
# result) after the span closes; only "sparse_linalg.pcg" is also called
# with result None when the call raised, to record the preconditioner.
COUNTERS = {
    "tet_grid.build_uniform_mesh": _n_tets,
    "surface_extract.extract_surface": _surface,
    "surface_fem.assemble_mass": _nnz,
    "surface_fem.assemble_stiffness": _nnz,
    "sparse_linalg.pcg": _pcg,
}


def _layer_of(fn) -> str:
    """The levelsurf module a function comes from, or '' for anything else."""
    if not inspect.isfunction(fn):
        return ""
    package, _, module = fn.__module__.partition(".")
    if package != "levelsurf" or module in ("", "cli"):
        return ""
    return module


class Tracer:
    """Records spans around the library calls made by ``levelsurf.cli``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.bookkeeping_s = 0.0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, cli, lsio) -> None:
        """Wrap the library names ``cli`` calls and the ``lsio.write_*``."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, fn in list(vars(cli).items()):
            layer = _layer_of(fn)
            if layer:
                self._patch(cli, name, fn, layer)
        for name, fn in list(vars(lsio).items()):
            if name.startswith("write_") and inspect.isfunction(fn):
                self._patch(lsio, name, fn, "io")

    def restore(self) -> None:
        """Put every wrapped name back to the original function."""
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)

    def _patch(self, owner, name, fn, layer) -> None:
        span_name = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(span_name, _bytes if layer == "io" else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(span_name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(index, error=type(exc).__name__)
                if counter is _pcg:
                    self.spans[index].counts = _pcg(args, kwargs, None)
                raise
            self.close(index)
            if counter is not None:
                t0 = time.perf_counter()
                self.spans[index].counts = counter(args, kwargs, result)
                self.bookkeeping_s += time.perf_counter() - t0
            return result

        self._saved.append((owner, name, fn))
        setattr(owner, name, traced)

    # -- spans ------------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if layer == "cli":
            call = len(self.spans)
        else:
            call = self.spans[parent].call if parent >= 0 else -1
        self.spans.append(Span(name=name, layer=layer, start=0.0,
                               parent=parent, call=call, run=self.run_id))
        self._stack.append(len(self.spans) - 1)
        self.spans[-1].start = time.perf_counter()
        return len(self.spans) - 1

    def close(self, index: int, error: str = "") -> None:
        end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        self.spans[index].end = end
        self.spans[index].error = error

    @contextmanager
    def span(self, name: str, layer: str):
        """Record a span around a block, e.g. one ``cli.main`` call."""
        index = self.open(name, layer)
        try:
            yield
        except BaseException as exc:
            self.close(index, error=type(exc).__name__)
            raise
        self.close(index)

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span), sort_keys=True) + "\n")


# Functions whose self time is reported as "<name>.s".
TIMED = [
    "tet_grid.build_uniform_mesh",
    "level_set.interpolate_nodal",
    "level_set.snap_small_values",
    "surface_extract.extract_surface",
    "mesh_quality.quality_report",
    "surface_fem.assemble_mass",
    "surface_fem.assemble_stiffness",
    "surface_fem.diag_scale",
    "surface_fem.interpolate",
    "surface_fem.l2_error",
    "surface_fem.h1_semi_error",
    "sparse_linalg.spd_cond",
    "sparse_linalg.effective_cond",
    "sparse_linalg.pcg",
    "sparse_linalg.build_reference_matrix",
]

# Every per-layer metric of a traced run: (name, unit, better).  Counts
# repeat exactly from pass to pass; "mesh_mb" is computed from the sizes
# of the nodes and tets arrays, not measured.
PER_LAYER_METRICS = (
    [(f"{name}.s", "s", "lower") for name in TIMED]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS if layer != "io"]
    + [
        ("tet_grid.n_tets", "count", "lower"),
        ("tet_grid.mesh_mb", "MiB-computed", "lower"),
        ("surface_extract.cut_tets", "count", "lower"),
        ("surface_extract.cut_frac", "ratio", "higher"),
        ("surface_extract.n_triangles", "count", "lower"),
        ("surface_fem.nnz", "count", "lower"),
        ("sparse_linalg.eig.failures", "count", "lower"),
        ("sparse_linalg.pcg.iters", "count", "lower"),
        ("sparse_linalg.pcg.s_per_iter", "s", "lower"),
        ("sparse_linalg.pcg.fallbacks", "count", "lower"),
    ]
    + [(f"sparse_linalg.pcg.{p}.{k}", u, "lower")
       for p in PRECONDS for k, u in (("s", "s"), ("iters", "count"))]
    + [
        ("io.write.s", "s", "lower"),
        ("io.bytes", "bytes", "lower"),
        ("cli.uncovered_s", "s", "lower"),
        ("proc.cpu_s", "s", "lower"),
        ("trace.untraced_run_s", "s", "lower"),
        ("trace.traced_run_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def self_times(spans: list[Span], offset: int = 0) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``spans`` is ``tracer.spans[offset:]``; it must hold every child of
    every span in it, as the spans of whole passes do.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= offset:
            own[span.parent - offset] -= span.duration
    return own


def layer_metrics(spans: list[Span], offset: int, pass_s: float,
                  bookkeeping_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its spans.

    ``pass_s`` is the pass's wall time and ``bookkeeping_s`` the part of
    it spent reading counts; ``cli.uncovered_s`` is what is left of the
    pass after the self times of every library span and the bookkeeping.
    """
    by_name = defaultdict(float)
    by_layer = defaultdict(float)
    counts = defaultdict(int)
    for span, own in zip(spans, self_times(spans, offset)):
        by_name[span.name] += own
        by_layer[span.layer] += own
        c = span.counts
        if span.name == "tet_grid.build_uniform_mesh":
            counts["n_tets"] += c["n_tets"]
            counts["mesh_mb"] = max(counts["mesh_mb"], c["mesh_bytes"] / MIB)
        elif span.name == "surface_extract.extract_surface":
            counts["cut_tets"] += c["cut_tets"]
            counts["tets_visited"] += c["tets_visited"]
            counts["n_triangles"] += c["n_triangles"]
        elif span.name in ("surface_fem.assemble_mass",
                           "surface_fem.assemble_stiffness"):
            counts["nnz"] += c["nnz"]
        elif span.name in ("sparse_linalg.spd_cond",
                           "sparse_linalg.effective_cond"):
            counts["eig_failures"] += span.error == "EigNonConvergence"
        elif span.name == "sparse_linalg.pcg":
            by_name[f"pcg.{c['precond']}"] += own
            counts[f"iters.{c['precond']}"] += c.get("iters", 0)
            counts["pcg_iters"] += c.get("iters", 0)
            counts["fallbacks"] += (c["precond"] == "ilu0"
                                    and span.error in FALLBACK_ERRORS)
        elif span.layer == "io":
            counts["io_bytes"] += c["bytes"]

    covered = sum(t for layer, t in by_layer.items() if layer != "cli")
    metrics = {f"{name}.s": by_name[name] for name in TIMED}
    metrics.update({f"{layer}.self_s": by_layer[layer]
                    for layer in LAYERS if layer != "io"})
    metrics.update({
        "tet_grid.n_tets": counts["n_tets"],
        "tet_grid.mesh_mb": counts["mesh_mb"],
        "surface_extract.cut_tets": counts["cut_tets"],
        "surface_extract.cut_frac": (counts["cut_tets"] / counts["tets_visited"]
                                     if counts["tets_visited"] else 0.0),
        "surface_extract.n_triangles": counts["n_triangles"],
        "surface_fem.nnz": counts["nnz"],
        "sparse_linalg.eig.failures": counts["eig_failures"],
        "sparse_linalg.pcg.iters": counts["pcg_iters"],
        "sparse_linalg.pcg.s_per_iter": (
            by_name["sparse_linalg.pcg"] / counts["pcg_iters"]
            if counts["pcg_iters"] else 0.0),
        "sparse_linalg.pcg.fallbacks": counts["fallbacks"],
        "io.write.s": by_layer["io"],
        "io.bytes": counts["io_bytes"],
        "cli.uncovered_s": pass_s - covered - bookkeeping_s,
    })
    for p in PRECONDS:
        metrics[f"sparse_linalg.pcg.{p}.s"] = by_name[f"pcg.{p}"]
        metrics[f"sparse_linalg.pcg.{p}.iters"] = counts[f"iters.{p}"]
    return metrics
