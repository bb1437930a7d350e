"""Spans around the calls into tentstab's layers, recorded from outside.

The tracer replaces each target function at every binding through which
the program reaches it: the defining module, every module that imported
it by name, the package namespace, and class attributes for static
methods.  Each call then records a span (name, start, end, parent span,
job id) into growable arrays kept in memory; spans are written
out once, when the run ends.  A span's self time is its duration minus the
durations of its child spans, which in one thread never overlap.

``geom2d._clip_verts`` is counted, not spanned: only the half-plane steps
that do not come from inside another geom2d call are counted, that is the
steps ``density._split`` makes.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, NamedTuple, Optional

import numpy as np

from tentstab import cli, density, experiments, geom2d, ioutil, maps


def _hit(args, kwargs, result):
    return () if result.is_empty else (("hits", 1),)


def _branches(args, kwargs, result):
    return (("branches", len(result.branches)),)


def _grid_cells(args, kwargs, result):
    return (("cells", len(result.cells)),)


def _ulam(args, kwargs, result):
    return (("cells", len(result.grid.cells)), ("nnz", result.matrix.nnz))


def _ulam_bytes_per_iter(op) -> int:
    """Bytes one power-iteration step moves, computed from array sizes:
    the CSR product with the adjoint reads each nonzero's value and column
    index and every row pointer, and reads and writes one n-vector."""
    a = op.matrix
    n = a.shape[0]
    return (
        a.nnz * (a.data.itemsize + a.indices.itemsize)
        + (n + 1) * a.indptr.itemsize
        + 2 * n * 8
    )


def _fixed(args, kwargs, result):
    op = args[0] if args else kwargs["op"]
    iters = result.iterations
    return (("iterations", iters), ("bytes", iters * _ulam_bytes_per_iter(op)))


def _out_cells(args, kwargs, result):
    return (("out_cells", len(result.cells)),)


def _steps(index: int):
    def probe(args, kwargs, result):
        n = args[index] if len(args) > index else kwargs["n"]
        extra = (("reseeds", result.reseeds),) if hasattr(result, "reseeds") else ()
        return (("steps", n),) + extra

    return probe


def _bytes_written(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return (("bytes", len(text.encode())),)


class Target(NamedTuple):
    """A function to trace: where it is defined, and its metric prefix."""

    owner: object
    attr: str
    name: str
    probe: Optional[Callable] = None
    span: bool = True


TARGETS = (
    Target(geom2d, "intersect", "geom2d.intersect", _hit),
    Target(geom2d, "_clip_verts", "geom2d.clip_verts", span=False),
    Target(geom2d, "inradius", "geom2d.inradius"),
    Target(geom2d, "monomial_integral", "geom2d.monomial_integral"),
    Target(maps, "power", "maps.power", _branches),
    Target(maps, "certify", "maps.certify"),
    Target(density.UlamGrid, "build", "density.UlamGrid.build", _grid_cells),
    Target(density, "build_ulam", "density.build_ulam", _ulam),
    Target(density, "ulam_fixed", "density.ulam_fixed", _fixed),
    Target(density, "stationary_masses", "density.stationary_masses"),
    Target(density, "push_forward", "density.push_forward", _out_cells),
    Target(density, "variation", "density.variation"),
    Target(density, "project_to_grid", "density.project_to_grid"),
    Target(density, "cesaro_fixed_density", "density.cesaro_fixed_density"),
    Target(density, "density_csv", "density.density_csv"),
    Target(density, "ulam_matrix_csv", "density.ulam_matrix_csv"),
    Target(experiments, "stability_sweep", "experiments.stability_sweep"),
    Target(experiments, "orbit_stats", "experiments.orbit_stats", _steps(2)),
    Target(experiments, "lyapunov_exponent", "experiments.lyapunov_exponent", _steps(2)),
    Target(experiments, "birkhoff_average", "experiments.birkhoff_average", _steps(3)),
    Target(experiments, "tent1d_ulam", "experiments.tent1d_ulam"),
    Target(cli, "run", "cli"),
    Target(ioutil, "atomic_write_text", "ioutil.atomic_write_text", _bytes_written),
)


def _plain(value):
    """The function behind a static or class method descriptor."""
    if isinstance(value, (staticmethod, classmethod)):
        return value.__func__
    return value


def _bindings(originals: dict):
    """Every (container, key, target index, where) under which a tentstab
    module, class, or module-level dict, list or tuple holds one of the
    original functions (keyed by id).  Containers are dicts or classes."""
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "tentstab" or mod_name.startswith("tentstab.")):
            continue
        for key, value in list(vars(mod).items()):
            where = f"{mod_name}.{key}"
            if id(value) in originals:
                yield vars(mod), key, originals[id(value)], where
            elif isinstance(value, type) and value.__module__ == mod_name:
                for ckey, cvalue in list(vars(value).items()):
                    if id(_plain(cvalue)) in originals:
                        yield value, ckey, originals[id(_plain(cvalue))], f"{where}.{ckey}"
            elif isinstance(value, dict):
                for dkey, dvalue in value.items():
                    if id(dvalue) in originals:
                        yield value, dkey, originals[id(dvalue)], f"{where}[{dkey!r}]"
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if id(item) in originals:
                        yield value, None, originals[id(item)], f"{where}[...]"


class PassTrace(NamedTuple):
    """Spans and counters of one traced pass."""

    names: tuple[str, ...]
    spanned: tuple[bool, ...]
    start: np.ndarray
    end: np.ndarray
    name: np.ndarray
    parent: np.ndarray
    job: np.ndarray
    counts: dict

    def self_times(self) -> np.ndarray:
        dur = self.end - self.start
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return dur - child

    def call_counts(self) -> dict:
        per_name = np.bincount(self.name, minlength=len(self.names))
        return {
            n: int(c) for n, c, s in zip(self.names, per_name, self.spanned) if s
        }


class Tracer:
    """Installs span-recording wrappers and collects one pass at a time."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = tuple(t.name for t in targets)
        self._geom_ids = {i for i, n in enumerate(self.names) if n.startswith("geom2d.")}
        self._originals = {id(_plain(vars(t.owner)[t.attr])): i for i, t in enumerate(targets)}
        self._functions = [_plain(vars(t.owner)[t.attr]) for t in targets]
        self._restore: list = []
        self.job = -1
        self.reset()

    def reset(self) -> None:
        self._start = array("d")
        self._end = array("d")
        self._name = array("i")
        self._parent = array("i")
        self._job = array("i")
        self._stack = [-1]
        self._counts: Counter = Counter()

    def _wrap(self, index: int):
        fn = self._functions[index]
        target = self.targets[index]
        tracer = self

        if not target.span:
            geom_ids = self._geom_ids

            def counted(*args, **kwargs):
                top = tracer._stack[-1]
                if top < 0 or tracer._name[top] not in geom_ids:
                    tracer._counts[(index, "calls")] += 1
                return fn(*args, **kwargs)

            return counted

        probe = target.probe

        def spanned(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer._start)
            tracer._start.append(0.0)
            tracer._end.append(0.0)
            tracer._name.append(index)
            tracer._parent.append(stack[-1])
            tracer._job.append(tracer.job)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._start[idx] = t0
                tracer._end[idx] = t1
            if probe is not None:
                counts = tracer._counts
                for key, value in probe(args, kwargs, result):
                    counts[(index, key)] += value
            return result

        return spanned

    def install(self) -> None:
        """Wrap every binding of every target; raise if one has none."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        bindings = list(_bindings(self._originals))
        for container, _, index, where in bindings:
            if not isinstance(container, (type, dict)):
                raise RuntimeError(f"{where} holds {self.names[index]} in a sequence")
        found = {index for _, _, index, _ in bindings}
        missing = [self.names[i] for i in range(len(self.targets)) if i not in found]
        if missing:
            raise RuntimeError(f"no binding found for {', '.join(missing)}")
        wrappers = [self._wrap(i) for i in range(len(self.targets))]
        for container, key, index, _ in bindings:
            if isinstance(container, type):
                original = vars(container)[key]
                new = wrappers[index]
                if isinstance(original, staticmethod):
                    new = staticmethod(new)
                setattr(container, key, new)
            else:
                original = container[key]
                container[key] = wrappers[index]
            self._restore.append((container, key, original))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._restore):
            if isinstance(container, type):
                setattr(container, key, original)
            else:
                container[key] = original
        self._restore = []

    def escaped(self) -> list[str]:
        """Bindings of a target function that still reach the unwrapped
        original; empty when the wrapping is complete."""
        return [
            f"{self.names[index]} at {where}"
            for _, _, index, where in _bindings(self._originals)
        ]

    def collect(self) -> PassTrace:
        """The spans and counters recorded since the last reset."""
        counts = {(self.names[i], k): v for (i, k), v in self._counts.items()}
        return PassTrace(
            self.names,
            tuple(t.span for t in self.targets),
            np.array(self._start, dtype=np.float64),
            np.array(self._end, dtype=np.float64),
            np.array(self._name, dtype=np.int32),
            np.array(self._parent, dtype=np.int32),
            np.array(self._job, dtype=np.int32),
            counts,
        )


def counters(trace: PassTrace) -> dict:
    """Everything in a pass that must repeat exactly: calls per span name
    and probe counters."""
    out = {f"{n}.calls": c for n, c in trace.call_counts().items()}
    out.update({f"{n}.{k}": v for (n, k), v in trace.counts.items()})
    return out


def save_spans(path: str, trace: PassTrace) -> None:
    np.savez(
        path,
        names=np.array(trace.names),
        start=trace.start,
        end=trace.end,
        name=trace.name,
        parent=trace.parent,
        job=trace.job,
    )
