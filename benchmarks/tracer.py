"""In-memory span tracing of hypervis from outside the package.

`Tracer.install()` replaces public functions with wrappers at the module
attribute their callers look up, e.g. `sinh_integral` both as
`visibility.sinh_integral` and `procsim.sinh_integral`, because each module
imported the name itself. A wrapper records one span (layer, parent, start,
end) plus the work it did, counted from the arguments or the result. Spans
stay in flat arrays until the run ends. Counting that needs a pass over a
result array (finite hits) runs in a `tracing.count` span of its own, so it
is not charged to any layer.

Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

from hypervis import acceptance, closedform, harness, intersect, procsim, visibility

ESTIMATOR = "visibility.estimator"
SWEEP = "visibility.sweep"
COUNT = "tracing.count"
ANNULI = ("procsim.boolean_annulus", "procsim.hyperplane_annulus")


def _size(args, out) -> int:
    return np.size(out)


def _first_len(args, out) -> int:
    return len(out[0])


def _finite(args, out) -> int:
    return int(np.count_nonzero(np.isfinite(out)))


# (module, attribute, layer, work, useful). `work` counts what a call did from
# (args, result) and is cheap; `useful` counts useful outcomes, may need a pass
# over the result, and runs in a tracing.count span.
WRAPPED = [
    (visibility, "grain_hits_from_base", "visibility.grain_hits", _size, _finite),
    (visibility, "plane_hits_from_base", "visibility.plane_hits", _size, _finite),
    (visibility, "_boolean_ranges", SWEEP, None, None),
    (visibility, "_hyperplane_ranges", SWEEP, None, None),
    (visibility, "sample_visibility_ranges", ESTIMATOR, None, None),
    (visibility, "sample_zero_cell_ranges", ESTIMATOR, None, None),
    (visibility, "estimate_visible_volume", ESTIMATOR, None, None),
    (visibility, "estimate_zero_cell_volume", ESTIMATOR, None, None),
    (visibility, "estimate_visible_volume_stratified", "visibility.stratified", None, None),
    (procsim, "sample_boolean_annulus", "procsim.boolean_annulus", _first_len, None),
    (procsim, "sample_hyperplane_annulus", "procsim.hyperplane_annulus", _first_len, None),
    (procsim, "sample_radial_annulus", "procsim.radial_inverse", _size, None),
    (procsim, "sample_plane_distances", "procsim.radial_inverse", _size, None),
    (procsim, "plane_measure", "procsim.plane_measure", None, None),
    (procsim, "band_first_touches", "procsim.band_first_touches", _size, None),
    (procsim, "sample_boolean", "procsim.sample_boolean", lambda a, out: out.n_grains, None),
    (procsim, "sample_hyperplanes", "procsim.sample_hyperplanes", lambda a, out: out.n_planes, None),
    (closedform, "sinh_integral", "closedform.sinh_integral", _size, None),
    (visibility, "sinh_integral", "closedform.sinh_integral", _size, None),
    (procsim, "sinh_integral", "closedform.sinh_integral", _size, None),
    (closedform, "ball_volume", "closedform.ball_volume", None, None),
    (procsim, "ball_volume", "closedform.ball_volume", None, None),
    (intersect, "ball_volume", "closedform.ball_volume", None, None),
    (closedform, "radius_at_volume", "closedform.radius_at_volume", None, None),
    (visibility, "radius_at_volume", "closedform.radius_at_volume", None, None),
    (visibility, "stream", "rng.stream", None, None),
    (intersect, "stream", "rng.stream", None, None),
    (acceptance, "stream", "rng.stream", None, None),
    (intersect, "estimate_intersection_density", "intersect", None, None),
    (harness, "run", "harness.run", None, None),
    (harness, "ks_exponential", "harness.ks_exponential", None, None),
]


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.useful = array("q")
        self.intersect_pairs = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the given layer."""
        return self._wrapper(fn, layer)(*args, **kwargs)

    def _wrapper(self, fn, layer: str, work=None, useful=None):
        layer_id, count_id = self._layer_id(layer), self._layer_id(COUNT)
        layers, parents, starts, ends = self.layer, self.parent, self.start, self.end
        works, usefuls, stack = self.work, self.useful, self._stack

        def open_span(lid: int) -> int:
            idx = len(starts)
            layers.append(lid)
            parents.append(stack[-1])
            works.append(0)
            usefuls.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            return idx

        def traced(*args, **kwargs):
            idx = open_span(layer_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if work is not None:
                works[idx] = work(args, out)
            if useful is not None:
                cidx = open_span(count_id)
                usefuls[idx] = useful(args, out)
                ends[cidx] = perf_counter()
                stack.pop()
            return out

        return traced

    def _count_pairs(self, fn):
        def counted(centers, radii, r_win):
            n = len(radii)
            self.intersect_pairs += n * (n - 1) // 2
            return fn(centers, radii, r_win)

        return counted

    def install(self) -> None:
        for module, attr, layer, work, useful in WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, layer, work, useful))
        fn = intersect._count_crossings_vectorized
        self._saved.append((intersect, "_count_crossings_vectorized", fn))
        intersect._count_crossings_vectorized = self._count_pairs(fn)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
            "useful": np.frombuffer(self.useful, dtype=np.int64).copy(),
        }


class SpanTable:
    """Per-layer aggregates over a finished trace."""

    def __init__(self, tracer: Tracer):
        self.layers = list(tracer.layers)
        s = tracer.arrays()
        self.layer, self.parent, self.start, self.end = s["layer"], s["parent"], s["start"], s["end"]
        self.work, self.useful = s["work"], s["useful"]
        self.duration = self.end - self.start
        child = np.zeros(len(self.duration))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.layers.index(n) for n in names if n in self.layers]
        return np.isin(self.layer, ids)

    def covered(self, *names: str) -> float:
        """Seconds inside spans of the given layers, each instant counted once."""
        inside = self.mask(*names)
        below = np.zeros(len(inside), dtype=bool)  # has an ancestor among the layers
        has_parent = self.parent >= 0
        while True:  # propagate down one generation per round
            nxt = below.copy()
            nxt[has_parent] = inside[self.parent[has_parent]] | below[self.parent[has_parent]]
            if np.array_equal(nxt, below):
                break
            below = nxt
        return float(self.duration[inside & ~below].sum())

    def self_s(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total(self, column: np.ndarray, *names: str) -> int:
        return int(column[self.mask(*names)].sum())

    def self_by_layer(self) -> dict[str, float]:
        return {name: self.self_s(name) for name in self.layers}

    def children_of(self, parent_names: tuple[str, ...], child_name: str) -> np.ndarray:
        """Indices of child_name spans whose parent is a span of one of parent_names."""
        kids = np.flatnonzero(self.mask(child_name) & (self.parent >= 0))
        return kids[self.mask(*parent_names)[self.parent[kids]]]

    def rep_latencies(self) -> np.ndarray:
        """Per-replication seconds: between successive rng.stream calls of one estimator span,
        the last replication ending with the estimator."""
        streams = self.children_of((ESTIMATOR,), "rng.stream")
        out = []
        for est in np.unique(self.parent[streams]):
            starts = self.start[streams[self.parent[streams] == est]]
            out.append(np.diff(np.append(starts, self.end[est])))
        return np.concatenate(out) if out else np.empty(0)


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(t: SpanTable, intersect_pairs: int) -> dict[str, float]:
    """The per-layer metrics the benchmark reports, 0 for layers a workload does not run."""
    m: dict[str, float] = {}
    for short, layer in (("grain_hits", "visibility.grain_hits"), ("plane_hits", "visibility.plane_hits")):
        s, pairs, finite = t.covered(layer), t.total(t.work, layer), t.total(t.useful, layer)
        m[f"visibility.{short}.s"] = s
        m[f"visibility.{short}.pairs"] = pairs
        m[f"visibility.{short}.hit_ratio"] = _rate(finite, pairs)
        m[f"visibility.{short}.pairs_per_s"] = _rate(pairs, s)

    reps = t.count(SWEEP)
    blocks = np.concatenate([t.children_of((SWEEP,), a) for a in ANNULI])
    m["visibility.sweep.self_s"] = t.self_s(SWEEP)
    m["visibility.sweep.reps"] = reps
    m["visibility.sweep.blocks_per_rep"] = _rate(len(blocks), reps)
    m["visibility.sweep.obstacles_per_rep"] = _rate(float(t.work[blocks].sum()), reps)
    lat = t.rep_latencies()
    m["visibility.rep_s.p50"] = float(np.quantile(lat, 0.5)) if len(lat) else 0.0
    m["visibility.rep_s.p99"] = float(np.quantile(lat, 0.99)) if len(lat) else 0.0
    m["visibility.rep_s.n"] = len(lat)

    for layer in ANNULI:
        s, obstacles = t.covered(layer), t.total(t.work, layer)
        m[f"{layer}.s"] = s
        m[f"{layer}.calls"] = t.count(layer)
        m[f"{layer}.obstacles"] = obstacles
        m[f"{layer}.obstacles_per_s"] = _rate(obstacles, s)
    s = t.covered("procsim.radial_inverse")
    m["procsim.radial_inverse.s"] = s
    m["procsim.radial_inverse.draws_per_s"] = _rate(t.total(t.work, "procsim.radial_inverse"), s)

    for layer in ("procsim.plane_measure", "closedform.sinh_integral", "closedform.radius_at_volume"):
        m[f"{layer}.s"] = t.covered(layer)
        m[f"{layer}.calls"] = t.count(layer)
    m["closedform.sinh_integral.values"] = t.total(t.work, "closedform.sinh_integral")
    m["closedform.ball_volume.s"] = t.covered("closedform.ball_volume")

    s = t.covered("procsim.band_first_touches")
    m["procsim.band_first_touches.s"] = s
    m["procsim.band_first_touches.sims_per_s"] = _rate(t.total(t.work, "procsim.band_first_touches"), s)
    m["procsim.sample_boolean.s"] = t.covered("procsim.sample_boolean")
    m["procsim.sample_boolean.grains"] = t.total(t.work, "procsim.sample_boolean")
    m["procsim.sample_hyperplanes.s"] = t.covered("procsim.sample_hyperplanes")
    m["procsim.sample_hyperplanes.planes"] = t.total(t.work, "procsim.sample_hyperplanes")
    m["visibility.stratified.self_s"] = t.self_s("visibility.stratified")
    m["intersect.self_s"] = t.self_s("intersect")
    m["intersect.pairs"] = intersect_pairs
    m["intersect.pairs_per_s"] = _rate(intersect_pairs, m["intersect.self_s"])

    m["rng.stream.s"] = t.covered("rng.stream")
    m["rng.stream.calls"] = t.count("rng.stream")
    m["harness.run.self_s"] = t.self_s("harness.run")
    m["harness.ks_exponential.s"] = t.covered("harness.ks_exponential")
    for number in sorted(acceptance.CRITERIA):
        m[f"acceptance.criterion_{number:02d}.s"] = t.covered(f"acceptance.criterion_{number:02d}")
    return m


def shares(t: SpanTable, traced_run_s: float) -> dict[str, float]:
    """Fractions of the traced run spent in the layers each workload was chosen to stress."""
    return {
        "hit_kernels": t.covered("visibility.grain_hits", "visibility.plane_hits") / traced_run_s,
        "radial_inverse": t.covered("procsim.radial_inverse") / traced_run_s,
        "profiles": t.covered("procsim.plane_measure", "closedform.sinh_integral", "closedform.radius_at_volume")
        / traced_run_s,
    }
