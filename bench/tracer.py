"""In-memory span tracer that wraps adselect's public functions from outside.

Spans are recorded around calls into each layer (dataset, detectors,
hypervolume, features, metamodel, ranking, pipeline, util). Nothing inside
the package is edited: every wrapped function is replaced at each point
Python looks it up at call time, which is

  * every module attribute (in any loaded ``adselect`` module) bound to it,
    so ``from .x import y`` copies are covered;
  * every default argument holding it (``fitter=detectors.fit`` is bound
    when ``features`` is imported, so patching ``detectors.fit`` alone would
    miss every feature-layer fit);
  * the per-family entries of ``detectors._FITTERS``;
  * class attributes for methods (``TrainedDetector.scores``,
    ``MetaModel.predict``).

Spans stay in memory and are summarised into per-layer metrics when the
repetition ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

FAMILIES = ("knn", "lof", "iforest", "hbos", "pca", "gaussian", "kde")

# (module, attribute path) of every wrapped callable; the span is named
# "<layer>.<attribute path>", the layer being the module's last component.
TARGETS = (
    ("adselect.dataset", "load_csv"),
    ("adselect.dataset", "subsample_outliers"),
    ("adselect.dataset", "stratified_split"),
    ("adselect.dataset", "strip_anomalies"),
    ("adselect.dataset", "scale_split"),
    ("adselect.dataset", "fit_robust_scaler"),
    ("adselect.dataset", "apply_scaler"),
    ("adselect.detectors", "fit"),
    ("adselect.detectors", "TrainedDetector.scores"),
    ("adselect.hypervolume", "fit_enclosing_ball"),
    ("adselect.hypervolume", "estimate_hypervolume"),
    ("adselect.features", "mc_cv_fpr"),
    ("adselect.features", "mc_cv_fpr_rates"),
    ("adselect.features", "build_landmarks"),
    ("adselect.features", "build_detector_instance"),
    ("adselect.features", "_detector_features"),
    ("adselect.metamodel", "fit_meta_model"),
    ("adselect.metamodel", "rf_fit"),
    ("adselect.metamodel", "MetaModel.predict"),
    ("adselect.metamodel", "save_model"),
    ("adselect.metamodel", "load_model"),
    ("adselect.metamodel", "drop_empty_landmarks"),
    ("adselect.ranking", "leave_one_out_evaluate"),
    ("adselect.ranking", "evaluate_methods"),
    ("adselect.pipeline", "assimilate_all"),
    ("adselect.pipeline", "assimilate_dataset"),
    ("adselect.pipeline", "assimilate_split"),
    ("adselect.pipeline", "evaluate_meta_datasets"),
    ("adselect.pipeline", "write_evaluation_files"),
    ("adselect.pipeline", "rank_candidates"),
    ("adselect.pipeline", "_candidate_features"),
    ("adselect.util", "pmap"),
)

PREPARE = {
    "dataset.subsample_outliers", "dataset.stratified_split", "dataset.strip_anomalies",
    "dataset.scale_split", "dataset.fit_robust_scaler", "dataset.apply_scaler",
}
MC_CV = {"features.mc_cv_fpr", "features.mc_cv_fpr_rates"}
PER_DETECTOR = {"features._detector_features", "pipeline._candidate_features"}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    workload: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _family(config: Any) -> str:
    return str(getattr(config, "algorithm", "?"))


def _attrs_for(name: str, args: dict, result: Any) -> dict:
    """Counters recorded on a span, taken from its arguments and result."""
    if name == "detectors.fit":
        return {"family": _family(args.get("config"))}
    if name == "detectors.TrainedDetector.scores":
        X = args.get("X")
        rows = len(X) if getattr(X, "ndim", 1) > 1 else 1
        return {"family": _family(getattr(args.get("self"), "config", None)), "points": rows}
    if name == "hypervolume.estimate_hypervolume":
        return {"samples": int(args.get("n", 0))}
    if name == "metamodel.rf_fit":
        trees = list(getattr(result, "trees", []))
        return {"trees": len(trees), "nodes": sum(len(getattr(t, "feature", ())) for t in trees)}
    if name == "metamodel.MetaModel.predict":
        return {"rows": int(getattr(args.get("md"), "n", 0))}
    return {}


class Tracer:
    """Collects spans for one repetition of one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "bench_span", default=None
        )

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """Record the with-block as a child span of the current one.

        Yields the span id and the attrs dict, which the block may fill in.
        """
        attrs = {} if attrs is None else attrs
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        start = time.perf_counter()
        try:
            yield sid, attrs
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(Span(sid, parent, name, start, end, self.workload, attrs))

    def _wrap(self, name: str, orig: Callable) -> Callable:
        sig = inspect.signature(orig)
        tracer = self

        if name == "util.pmap":
            @functools.wraps(orig)
            def pmap_wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                fn = bound.arguments["fn"]
                busy: list[float] = []  # seconds spent in each item's fn
                attrs = {"jobs": int(bound.arguments["jobs"]), "items": len(bound.arguments["items"]),
                         "busy": busy}
                with tracer.span(name, attrs) as (sid, _):
                    def timed(item):
                        # pool threads do not inherit context: parent explicitly
                        token = tracer._current.set(sid)
                        t0 = time.perf_counter()
                        try:
                            return fn(item)
                        finally:
                            busy.append(time.perf_counter() - t0)
                            tracer._current.reset(token)

                    bound.arguments["fn"] = timed
                    return orig(*bound.args, **bound.kwargs)
            return pmap_wrapper

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as (_, attrs):
                result = orig(*args, **kwargs)
                attrs.update(_attrs_for(name, sig.bind(*args, **kwargs).arguments, result))
                return result
        return wrapper

    def _wrap_family_fit(self, family: str, orig: Callable) -> Callable:
        @functools.wraps(orig)
        def entry(*args, **kwargs):
            with self.span(f"detectors.family_fit.{family}", {"family": family}):
                return orig(*args, **kwargs)
        return entry

    # -- installation ------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target at every call-time binding; return targets not found.

        Completeness is proven afterwards by the count self-check, not here.
        """
        modules = {n: m for n, m in sys.modules.items() if n == "adselect" or n.startswith("adselect.")}
        missing: list[str] = []
        replacements: dict[int, tuple[Callable, Callable]] = {}
        for mod_name, path in TARGETS:
            owner_path, _, attr = path.rpartition(".")
            owner: Any = modules.get(mod_name)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                missing.append(f"{mod_name}.{path}")
                continue
            wrapped = self._wrap(f"{mod_name.rsplit('.', 1)[-1]}.{path}", orig)
            if owner_path:  # a method: the class attribute is the call-time lookup
                setattr(owner, attr, wrapped)
            else:
                replacements[id(orig)] = (orig, wrapped)

        fitters = getattr(modules.get("adselect.detectors"), "_FITTERS", None)
        if isinstance(fitters, dict):
            for family, fn in list(fitters.items()):
                fitters[family] = self._wrap_family_fit(family, fn)
        else:
            missing.append("adselect.detectors._FITTERS")

        def swap(value: Any) -> Any:
            hit = replacements.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if swap(value) is not value:
                    setattr(mod, key, swap(value))
                for fn in _functions_in(value, mod.__name__):
                    if fn.__defaults__:
                        fn.__defaults__ = tuple(swap(v) for v in fn.__defaults__)
                    if fn.__kwdefaults__:
                        fn.__kwdefaults__ = {k: swap(v) for k, v in fn.__kwdefaults__.items()}
        return missing


def _functions_in(value: Any, module_name: str) -> list:
    """Plain functions defined in module_name: the value itself or a class's methods."""
    if inspect.isfunction(value) and value.__module__ == module_name:
        return [value]
    if inspect.isclass(value) and value.__module__ == module_name:
        out = []
        for member in vars(value).values():
            fn = getattr(member, "__func__", member)
            if inspect.isfunction(fn):
                out.append(fn)
        return out
    return []


# ---------------------------------------------------------------------------
# summaries


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class SpanIndex:
    """Parent/child lookups over one repetition's spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.children: dict[int | None, list[Span]] = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)

    def named(self, names: set[str] | str) -> list[Span]:
        names = {names} if isinstance(names, str) else names
        return [s for s in self.spans if s.name in names]

    def has_ancestor(self, span: Span, pred: Callable[[Span], bool]) -> bool:
        p = self.by_id.get(span.parent)
        while p is not None:
            if pred(p):
                return True
            p = self.by_id.get(p.parent)
        return False

    def outermost(self, names: set[str] | str) -> list[Span]:
        """Spans with one of the names, not nested in another such span."""
        names = {names} if isinstance(names, str) else names
        return [s for s in self.named(names) if not self.has_ancestor(s, lambda p: p.name in names)]

    def busy(self, names: set[str] | str) -> float:
        return sum(s.duration for s in self.outermost(names))

    def self_time(self, span: Span, exclude: Callable[[Span], bool] = lambda s: True) -> float:
        """Duration minus the union of the nearest descendants matching exclude."""
        covered: list[tuple[float, float]] = []
        stack = list(self.children.get(span.sid, []))
        while stack:
            c = stack.pop()
            if exclude(c):
                covered.append((c.start, c.end))
            else:
                stack.extend(self.children.get(c.sid, []))
        return span.duration - _union_length(covered, span.start, span.end)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer busy time, counts and ratios of one traced repetition."""
    ix = SpanIndex(spans)
    m: dict[str, float] = {}
    fits = ix.named("detectors.fit")
    scores = ix.named("detectors.TrainedDetector.scores")
    for f in FAMILIES:
        m[f"detectors.fit_s.{f}"] = sum(s.duration for s in fits if s.attrs.get("family") == f)
        m[f"detectors.fits.{f}"] = len(ix.named(f"detectors.family_fit.{f}"))
        fam_scores = [s for s in scores if s.attrs.get("family") == f]
        score_s = sum(s.duration for s in fam_scores)
        points = sum(s.attrs.get("points", 0) for s in fam_scores)
        m[f"detectors.score_s.{f}"] = score_s
        m[f"detectors.points.{f}"] = points
        m[f"detectors.mpts_per_s.{f}"] = points / score_s / 1e6 if score_s > 0 else 0.0

    hv = ix.outermost("hypervolume.estimate_hypervolume")
    m["hypervolume.estimate_s"] = sum(s.duration for s in hv)
    m["hypervolume.estimates"] = len(hv)
    m["hypervolume.samples"] = sum(s.attrs.get("samples", 0) for s in hv)
    m["hypervolume.sample_self_s"] = sum(
        ix.self_time(s, lambda c: c.name == "detectors.TrainedDetector.scores") for s in hv
    )
    m["hypervolume.ball_fit_s"] = ix.busy("hypervolume.fit_enclosing_ball")

    m["features.mc_cv_s"] = ix.busy(MC_CV)
    m["features.mc_cv_fits"] = sum(
        1 for s in ix.named({f"detectors.family_fit.{f}" for f in FAMILIES})
        if ix.has_ancestor(s, lambda p: p.name in MC_CV)
    )
    m["features.landmarks_s"] = ix.busy("features.build_landmarks")
    m["features.instances_s"] = ix.busy("features.build_detector_instance")
    per_det = sorted(s.duration for s in ix.outermost(PER_DETECTOR))
    m["features.detector_p50_s"] = _quantile(per_det, 0.5)
    m["features.detector_p90_s"] = _quantile(per_det, 0.9)
    m["features.detector_n"] = len(per_det)

    rf = ix.named("metamodel.rf_fit")
    m["metamodel.fit_s"] = ix.busy("metamodel.fit_meta_model")
    m["metamodel.trees"] = sum(s.attrs.get("trees", 0) for s in rf)
    m["metamodel.nodes"] = sum(s.attrs.get("nodes", 0) for s in rf)
    pred = ix.named("metamodel.MetaModel.predict")
    m["metamodel.predict_s"] = sum(s.duration for s in pred)
    m["metamodel.predict_rows"] = sum(s.attrs.get("rows", 0) for s in pred)
    m["metamodel.save_s"] = ix.busy("metamodel.save_model")
    m["metamodel.load_s"] = ix.busy("metamodel.load_model")

    loo = ix.outermost("ranking.leave_one_out_evaluate")
    m["ranking.loo_s"] = sum(s.duration for s in loo)
    m["ranking.loo_self_s"] = sum(
        ix.self_time(s, lambda c: c.name.startswith("metamodel.")) for s in loo
    )
    m["ranking.evaluate_methods_s"] = ix.busy("ranking.evaluate_methods")

    m["dataset.load_s"] = ix.busy("dataset.load_csv")
    m["dataset.prepare_s"] = ix.busy(PREPARE)
    m["pipeline.assimilate_dataset_s"] = ix.busy("pipeline.assimilate_dataset")
    m["pipeline.rank_candidates_s"] = ix.busy("pipeline.rank_candidates")
    m["pipeline.self_s"] = sum(ix.self_time(s) for s in ix.spans if s.name.startswith("pipeline."))

    pm = ix.outermost("util.pmap")
    wall = sum(s.duration for s in pm)
    busy = sum(sum(s.attrs.get("busy", ())) for s in pm)
    capacity = sum(s.duration * s.attrs.get("jobs", 1) for s in pm)
    m["util.pmap_s"] = wall
    m["util.pmap_busy_s"] = busy
    m["util.pmap_efficiency"] = busy / capacity if capacity > 0 else 0.0
    return m


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated quantile; 0.0 for an empty list."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)
