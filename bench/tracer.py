"""In-memory spans around the public functions at alphaloss's module
boundaries, installed from outside the package by rebinding the names the
calling module looks up, plus the per-layer metrics computed from them.

A span records its name (``<module>.<function>``), start and end
(``perf_counter_ns``), its parent span and the run id. Counts (points,
samples, elements) are read from call arguments at the same boundaries, so
they repeat exactly for a fixed command and seed. The ``information`` layer
is not wrapped: the workloads spend microseconds in it.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

OBJECTIVE = "risk.objective"
VALUES = "risk.risk_values_multi"
GRADS = "risk.risk_grads"
LOG_SIGMOID = "numerics.log_sigmoid_vec"
LOSS_MAPS = ("loss.loss_from_logp", "loss.grad_weight_from_logp")
REFERENCE = "ngd.projected_gd_reference"
NGD_RUN = "ngd.ngd_run"
PROJECT = "numerics.project_ball"
SWEEP = "slqc.slqc_sweep"
GRAD_INF = "slqc.estimate_grad_infimum"
EVOLVE = "slqc.evolve_bounds"
SAMPLE_BALL = "numerics.sample_ball"
MIN_EIGEN = "numerics.min_eigen_sym"
SAMPLE_GMM = "data.sample_gmm"
NORMALIZE = "data.normalize_features"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(thetas) -> np.ndarray:
    return np.atleast_2d(np.asarray(thetas, dtype=float))


class Tracer:
    """Spans and boundary counts of one traced command run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.counts = Counter()
        self.n = 0
        self.points: set[bytes] = set()
        self.order_pairs: set[tuple[bytes, float]] = set()
        self._reference_seen: set[bytes] | None = None
        self.fixed_point_step = 0

    # -- recording ---------------------------------------------------------

    def _current(self) -> str | None:
        return self.names[self.span_name[self._stack[-1]]] if self._stack else None

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording one span per call; ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` run outside the span's interval."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_start.append(0)
            self.span_end.append(0)
            self._stack.append(idx)
            self.span_start[idx] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = perf_counter_ns()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind the boundary functions in the modules that call them."""
        from alphaloss import cli, ngd, risk, slqc

        def traced_value_and_grad(*args, **kwargs):
            self.n = _arg(args, kwargs, 1, "data").n
            return self.wrap(OBJECTIVE, original_vag(*args, **kwargs), before=on_objective)

        def on_objective(args, kwargs):
            key = np.asarray(args[0], dtype=float).tobytes()
            self.points.add(key)
            seen = self._reference_seen
            if seen is not None:
                self.counts["reference_step"] += 1
                if not self.fixed_point_step and key in seen:
                    self.fixed_point_step = self.counts["reference_step"]
                seen.add(key)

        def on_values(args, kwargs):
            alphas = [float(a) for a in _arg(args, kwargs, 0, "alphas")]
            pts = _points(_arg(args, kwargs, 1, "thetas"))
            self.n = _arg(args, kwargs, 2, "data").n
            self.counts["terms"] += pts.shape[0] * self.n * len(alphas)
            self.counts["order_evals"] += pts.shape[0] * len(alphas)
            for row in pts:
                key = row.tobytes()
                self.points.add(key)
                self.order_pairs.update((key, a) for a in alphas)

        def on_grads(args, kwargs):
            pts = _points(_arg(args, kwargs, 1, "thetas"))
            data = _arg(args, kwargs, 2, "data")
            self.n = data.n
            self.counts["terms"] += pts.shape[0] * data.n * data.dim
            if self._current() == GRAD_INF:
                self.counts["grad_inf_qualifying"] += pts.shape[0]
            self.points.update(row.tobytes() for row in pts)

        def on_reference(args, kwargs):
            self.counts["reference_steps"] += int(_arg(args, kwargs, 2, "steps"))
            self._reference_seen = set()

        def after_reference(args, kwargs, result):
            self._reference_seen = None

        def after_ngd_run(args, kwargs, result):
            self.counts["run_iterations"] += result.iterations

        def on_count(key, index, name, measure=int):
            def before(args, kwargs):
                self.counts[key] += measure(_arg(args, kwargs, index, name))
            return before

        original_vag = cli.value_and_grad
        cli.value_and_grad = traced_value_and_grad
        risk.risk_values_multi = self.wrap(VALUES, risk.risk_values_multi, before=on_values)
        risk.risk_grads = slqc.risk_grads = self.wrap(GRADS, risk.risk_grads, before=on_grads)
        risk.log_sigmoid_vec = self.wrap(LOG_SIGMOID, risk.log_sigmoid_vec,
                                         before=on_count("log_sigmoid_elems", 0, "z", np.size))
        risk.loss_from_logp = self.wrap(LOSS_MAPS[0], risk.loss_from_logp,
                                        before=on_count("map_elems", 1, "logp", np.size))
        risk.grad_weight_from_logp = self.wrap(LOSS_MAPS[1], risk.grad_weight_from_logp,
                                               before=on_count("map_elems", 1, "logp", np.size))
        ngd.projected_gd_reference = self.wrap(REFERENCE, ngd.projected_gd_reference,
                                               before=on_reference, after=after_reference)
        ngd.ngd_run = self.wrap(NGD_RUN, ngd.ngd_run, after=after_ngd_run)
        ngd.project_ball = self.wrap(PROJECT, ngd.project_ball)
        slqc.slqc_sweep = self.wrap(SWEEP, slqc.slqc_sweep, before=on_count("sweep_points", 4, "n_points"))
        slqc.estimate_grad_infimum = self.wrap(GRAD_INF, slqc.estimate_grad_infimum,
                                               before=on_count("grad_inf_budget", 5, "budget"))
        slqc.evolve_bounds = self.wrap(EVOLVE, slqc.evolve_bounds)
        slqc.sample_ball = cli.sample_ball = self.wrap(SAMPLE_BALL, slqc.sample_ball)
        cli.min_eigen_sym = self.wrap(MIN_EIGEN, cli.min_eigen_sym)
        cli.sample_gmm = self.wrap(SAMPLE_GMM, cli.sample_gmm, before=on_count("gmm_samples", 1, "n"))
        cli.normalize_features = self.wrap(NORMALIZE, cli.normalize_features)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: Path):
        """Gzipped CSV, one line per span: id,parent,name,start_ns,end_ns,run_id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id,parent,name,start_ns,end_ns,run_id\n")
            for i, (nid, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                handle.write(f"{i},{parent},{self.names[nid]},{start},{end},{self.run_id}\n")

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced command, whose wall time was
        ``wall_s``. Every traced run reports every metric, so those of a
        layer the command never entered read 0, and so does
        ``risk.objective_us_p99`` below 1000 objective calls, where fewer
        than 10 samples lie beyond it."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.int64)
               - np.frombuffer(self.span_start, dtype=np.int64)).astype(float) / 1e9
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        ids = self._name_ids

        def mask(*span_names):
            return np.isin(names, [ids[s] for s in span_names if s in ids])

        def total(*span_names, of=dur):
            return float(of[mask(*span_names)].sum())

        def calls(*span_names):
            return int(mask(*span_names).sum())

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        c = self.counts
        objective = dur[mask(OBJECTIVE)] * 1e6
        loop_steps = c["reference_steps"] + c["run_iterations"]
        batch_s = total(VALUES, GRADS)
        log_sigmoid_s = total(LOG_SIGMOID)
        map_s = total(*LOSS_MAPS)
        gmm_s = total(SAMPLE_GMM)
        return {
            "risk.objective_calls": calls(OBJECTIVE),
            "risk.objective_us_p50": float(np.median(objective)) if objective.size else 0.0,
            "risk.objective_us_p99": float(np.percentile(objective, 99)) if objective.size >= 1000 else 0.0,
            "risk.objective_self_s": total(OBJECTIVE, of=self_time),
            "ngd.reference_steps": c["reference_steps"],
            "ngd.reference_fixed_point_step": self.fixed_point_step or c["reference_steps"],
            "ngd.reference_useful_ratio": per(self.fixed_point_step or c["reference_steps"],
                                              c["reference_steps"]),
            "ngd.reference_s": total(REFERENCE),
            "ngd.run_iterations": c["run_iterations"],
            "ngd.run_s": total(NGD_RUN),
            "ngd.loop_self_us_per_step": per(total(REFERENCE, NGD_RUN, of=self_time), loop_steps, 1e6),
            "numerics.project_ball_calls": calls(PROJECT),
            "numerics.project_ball_s": total(PROJECT),
            "risk.batch_calls": calls(VALUES, GRADS),
            "risk.batch_s": batch_s,
            "risk.batch_self_s": total(VALUES, GRADS, of=self_time),
            "risk.terms": c["terms"],
            "risk.ns_per_term": per(batch_s, c["terms"], 1e9),
            "risk.margin_passes_per_point": per(c["log_sigmoid_elems"], len(self.points) * self.n),
            "numerics.log_sigmoid_vec_calls": calls(LOG_SIGMOID),
            "numerics.log_sigmoid_vec_s": log_sigmoid_s,
            "numerics.log_sigmoid_vec_ns_per_elem": per(log_sigmoid_s, c["log_sigmoid_elems"], 1e9),
            "risk.order_evals_distinct_ratio": per(len(self.order_pairs), c["order_evals"]),
            "loss.map_calls": calls(*LOSS_MAPS),
            "loss.map_elems": c["map_elems"],
            "loss.map_s": map_s,
            "loss.map_ns_per_elem": per(map_s, c["map_elems"], 1e9),
            "slqc.sweep_points": c["sweep_points"],
            "slqc.sweep_s": total(SWEEP),
            "slqc.sweep_self_s": total(SWEEP, of=self_time),
            "slqc.grad_inf_s": total(GRAD_INF),
            "slqc.grad_inf_qualifying_ratio": per(c["grad_inf_qualifying"], c["grad_inf_budget"]),
            "slqc.evolve_s": total(EVOLVE),
            "numerics.sample_ball_calls": calls(SAMPLE_BALL),
            "numerics.sample_ball_s": total(SAMPLE_BALL),
            "numerics.min_eigen_sym_s": total(MIN_EIGEN),
            "data.sample_gmm_s": gmm_s,
            "data.sample_gmm_us_per_sample": per(gmm_s, c["gmm_samples"], 1e6),
            "data.normalize_s": total(NORMALIZE),
            "cli.self_s": wall_s - float(dur[~has_parent].sum()),
        }
