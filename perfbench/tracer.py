"""Spans and counters recorded around ddfv's public functions.

The benchmark wraps each function where its caller looks it up, for the
length of one repetition, and puts the original back afterwards; the
package itself carries no instrumentation.  Spans are kept in memory and
reduced to per-layer metrics when the repetition ends.

A layer's time is its self time: the span's duration minus the durations of
its direct child spans.  Self times of all spans add up to the time covered
by the outermost spans, which is what ``coverage`` compares with the wall
time of the repetition.
"""

import functools
import time
from contextlib import contextmanager

# Span names whose self times make up the set-up time: mesh generation,
# build_ddfv, projection of the initial data and the potential, and
# Assembly construction.
SETUP_SPANS = ("mesh.gen", "mesh.build_ddfv", "scheme.project",
               "scheme.assembly_init")

# Per-layer time metric of each span name (always its self time).
SPAN_METRICS = {
    "mesh.gen": "mesh.gen_s",
    "mesh.build_ddfv": "mesh.build_ddfv_s",
    "scheme.project": "scheme.project_s",
    "scheme.assembly_init": "scheme.assembly_init_s",
    "scheme.residual": "scheme.residual_s",
    "scheme.jacobian": "scheme.jacobian_s",
    "scheme.diagnostics": "scheme.diagnostics_s",
    "scheme.relative_energy": "scheme.relative_energy_s",
    "solver.newton": "solver.newton_self_s",
    "solver.linear_solve": "solver.linear_solve_self_s",
    "solver.lu_factor": "solver.lu_factor_s",
    "solver.lu_solve": "solver.lu_solve_s",
    "harness.simulate": "harness.simulate_self_s",
    "harness.errors": "harness.errors_s",
}

# Counters: the number of spans of a name, or a total taken from the
# values the wrapped functions return.
SPAN_COUNTS = {
    "scheme.residual": "scheme.residual_calls",
    "scheme.jacobian": "scheme.jacobian_calls",
    "solver.lu_factor": "solver.factorizations",
}
RESULT_COUNTS = ("solver.newton_iterations", "solver.backtracks",
                 "solver.floor_activations", "harness.steps")
COUNTERS = tuple(SPAN_COUNTS.values()) + RESULT_COUNTS


class Tracer:
    """Spans (name, start, end, parent) and counters of one repetition."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = dict.fromkeys(RESULT_COUNTS, 0)
        self._open = []

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result`` sees the
        return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(None)
            self._open.append(idx)
            self.starts.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = self.clock()
                self._open.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def add(self, counter, amount):
        self.counts[counter] += int(amount)

    def setup_s(self):
        selfs = self_times(self.starts, self.ends, self.parents)
        return sum(s for s, n in zip(selfs, self.names) if n in SETUP_SPANS)

    def layer_metrics(self, wall_s):
        """Every per-layer metric of this repetition, zero where no span
        fired."""
        selfs = self_times(self.starts, self.ends, self.parents)
        metrics = dict.fromkeys(SPAN_METRICS.values(), 0.0)
        metrics.update(dict.fromkeys(SPAN_COUNTS.values(), 0))
        for name, s in zip(self.names, selfs):
            metrics[SPAN_METRICS[name]] += s
            if name in SPAN_COUNTS:
                metrics[SPAN_COUNTS[name]] += 1
        metrics.update(self.counts)

        factor_ms = [1e3 * (e - s) for n, s, e in
                     zip(self.names, self.starts, self.ends)
                     if n == "solver.lu_factor"]
        step_ms = [1e3 * d for d in step_durations(
            self.names, self.starts, self.ends, self.parents)]
        metrics["solver.lu_factor_ms_p50"] = percentile(factor_ms, 50)
        metrics["solver.lu_factor_ms_p99"] = percentile(factor_ms, 99)
        metrics["harness.step_ms_p50"] = percentile(step_ms, 50)
        metrics["harness.step_ms_p99"] = percentile(step_ms, 99)
        metrics["trace.coverage"] = sum(selfs) / wall_s
        return metrics


def self_times(starts, ends, parents):
    """Duration of each span minus the durations of its direct children."""
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def step_durations(names, starts, ends, parents):
    """Per-step wall times inside every ``harness.simulate`` span.

    Each time step starts one Newton solve, so a step runs from the start
    of its Newton span to the start of the next one, and the last step to
    the end of the simulate span.
    """
    marks = {}
    for i, (name, parent) in enumerate(zip(names, parents)):
        if name == "solver.newton" and parent >= 0 \
                and names[parent] == "harness.simulate":
            marks.setdefault(parent, []).append(starts[i])
    out = []
    for sim, ts in marks.items():
        ts = ts + [ends[sim]]
        out.extend(b - a for a, b in zip(ts, ts[1:]))
    return out


def percentile(values, q):
    """q-th percentile with linear interpolation between order statistics
    (numpy's default method); 0.0 for no values."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class _TracedLinalg:
    """Stands in for ``scipy.sparse.linalg`` inside ``ddfv.solver`` so that
    LU factorisation and LU solve are timed apart."""

    def __init__(self, module, tracer):
        self._module = module
        factor = tracer.wrap("solver.lu_factor", module.splu)
        self.splu = lambda *a, **kw: _TracedFactor(factor(*a, **kw), tracer)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class _TracedFactor:
    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer.wrap("solver.lu_solve", lu.solve)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


@contextmanager
def instrument(tracer, full):
    """Wrap ddfv's public functions for the duration of the block.

    With ``full`` false only the set-up entry points are wrapped (a few
    calls per repetition), so ``setup_s`` is measured while the time loop
    runs untouched.  With ``full`` true every layer is traced.
    """
    from ddfv import harness, mesh, scheme, solver

    patches = []

    def patch(owner, attr, name, on_result=None):
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, on_result))

    def newton_counts(result):
        stats = result[1]
        tracer.add("solver.newton_iterations", stats.iterations)
        tracer.add("solver.backtracks", stats.backtracks)
        tracer.add("solver.floor_activations", stats.floor_activated)

    def step_count(result):
        tracer.add("harness.steps", len(result.records) - 1)

    for owner in (mesh, harness):
        patch(owner, "gen_family", "mesh.gen")
        patch(owner, "build_ddfv", "mesh.build_ddfv")
    for owner in (scheme, harness):
        patch(owner, "project_initial", "scheme.project")
    patch(harness, "nodal_initial", "scheme.project")
    patch(scheme, "project_potential", "scheme.project")
    patch(scheme.Assembly, "__init__", "scheme.assembly_init")
    if full:
        patch(scheme.Assembly, "system_vec", "scheme.residual")
        patch(scheme.Assembly, "system_jacobian", "scheme.jacobian")
        for attr in ("dissipation_vec", "penalty_bracket_vec"):
            patch(scheme.Assembly, attr, "scheme.diagnostics")
        for attr in ("energy", "bracket"):
            patch(harness, attr, "scheme.diagnostics")
        for attr in ("relative_energy", "stationary_state"):
            patch(harness, attr, "scheme.relative_energy")
        patch(harness, "newton_solve", "solver.newton", newton_counts)
        patch(solver, "linear_solve", "solver.linear_solve")
        patches.append((solver, "spla", solver.spla))
        solver.spla = _TracedLinalg(solver.spla, tracer)
        patch(harness, "simulate", "harness.simulate", step_count)
        for attr in ("error_u", "error_gradient", "norm_primal_dual_gap"):
            patch(harness, attr, "harness.errors")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
