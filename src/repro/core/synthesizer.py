"""End-to-end switch synthesis (the paper's flow, §3–§4).

:func:`synthesize` drives the whole pipeline on one
:class:`~repro.core.spec.SwitchSpec`:

1. enumerate candidate shortest paths on the switch model;
2. build the IQP (:mod:`repro.core.builder`) and solve it;
3. extract routing, scheduling and binding; derive the used channels;
4. identify essential valves and their status sequences;
5. reduce the switch to the application-specific structure;
6. optionally group valves for pressure sharing (clique cover);
7. verify every invariant independently.

**Deadlines.** ``options.time_limit`` starts one
:class:`~repro.deadline.Deadline` for the whole pipeline; every
time-consuming phase receives the *remaining* budget, so the total wall
time is bounded by the limit plus the short non-interruptible tail
(extract / analyze / verify and at most one greedy fallback). In
particular the pressure-sharing clique-cover ILP — historically
unbounded — now gets whatever budget the main solve left over and falls
back to the greedy cover when that runs out.

**Degradation ladder.** ``options.on_error`` decides what a failure
costs:

* ``"raise"`` — solver crashes and verification failures propagate
  (timeouts still return a ``TIMEOUT`` result);
* ``"capture"`` — crashes come back as a ``status=ERROR`` result with
  the exception text in ``result.error``;
* ``"degrade"`` (default) — a crash *or* an empty timeout first retries
  with the validated greedy heuristic; if that solves, the result is
  ``FEASIBLE`` with ``counters["degraded"] == 1`` and the original
  failure recorded in ``result.error``, otherwise the run falls through
  to the capture behaviour.

A proven-infeasible model is a conclusive answer, never "degraded".
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.builder import BuiltModel, SynthesisModelBuilder
from repro.core.pressure import share_pressure
from repro.core.solution import SynthesisResult, SynthesisStatus
from repro.core.spec import BindingPolicy, SwitchSpec
from repro.core.valves import analyze_valves
from repro.core.verify import verify_result
from repro.deadline import Deadline
from repro.errors import ReproError, VerificationError
from repro.obs.trace import Tracer, current_tracer, obs_event, use_tracer
from repro.opt import SolveStatus
from repro.opt.incremental import SolveContext
from repro.opt.solvers import check_backend_name, resolve_backend_name
from repro.perf import PhaseTimings
from repro.switches.paths import PathCatalog, enumerate_paths
from repro.switches.reduce import reduce_switch

#: Backends that can exploit a warm-start incumbent. HiGHS (scipy's
#: milp) has no incumbent-injection hook, so computing one for it would
#: be wasted work. Checked against the *base* name, so worker-count
#: specs like ``"parallel_bb:4"`` qualify too.
_WARM_BACKENDS = {"branch_bound", "parallel_bb"}

#: Valid values of :attr:`SynthesisOptions.on_error`.
ERROR_POLICIES = ("raise", "capture", "degrade")

#: The per-run counts a traced :func:`synthesize` publishes: each name
#: is a counter in the tracer's registry that adds up
#: ``result.counters[name]`` over runs. ``result.counters`` also holds
#: ``node_order_hash`` (an identity of the search order) and
#: ``bb_workers`` (a setting, published by ``parallel_bb`` as a gauge);
#: neither is a count, so neither is summed here.
PUBLISHED_COUNTS = (
    "nodes", "lp_calls", "lp_iterations", "cuts", "bb_rounds", "bb_steals",
    "bb_worker_restarts", "incumbent_seeded", "presolve_fixed",
    "resolve_cache_hit", "store_hit", "store_put", "store_warm_incumbent",
    "degraded", "pressure_degraded",
)


@dataclass
class SynthesisOptions:
    """Tunables for a synthesis run."""

    backend: str = "auto"
    time_limit: Optional[float] = None
    mip_gap: float = 1e-4                   # Gurobi's default relative gap
    path_slack: float = 0.0                 # mm beyond the shortest path
    max_paths_per_pair: Optional[int] = None
    pressure_sharing: bool = True
    pressure_method: str = "ilp"            # or "greedy"
    verify: bool = True
    verbose: bool = False
    #: Seed warm-start-capable backends with the greedy heuristic's
    #: solution as the initial incumbent (never changes the optimum).
    heuristic_incumbent: bool = True
    #: Failure policy: "raise", "capture" or "degrade" (see the module
    #: docstring for the ladder semantics).
    on_error: str = "degrade"
    #: Optional :class:`repro.obs.Tracer` installed for the duration of
    #: the run: every phase becomes a span, the solver internals emit
    #: incumbent/cut/deadline events, and the result counts named in
    #: :data:`PUBLISHED_COUNTS` are added to the tracer's metrics
    #: registry. ``None`` (the default) keeps tracing disabled at zero
    #: cost. Excluded from config fingerprints and equality — a tracer
    #: never changes what is computed.
    trace: Optional[Tracer] = field(default=None, compare=False, repr=False)
    #: Optional :class:`repro.store.Store`: the persistent solve cache
    #: consulted (Tier A exact results, Tier B warm artifacts) and
    #: populated by this run. ``None`` falls back to the ambient store
    #: (:func:`repro.store.active_store`), which is itself None unless
    #: installed or named by ``REPRO_STORE``. Like ``trace``, excluded
    #: from config fingerprints and equality — the cache never changes
    #: what is computed, only how fast (hits are re-verified by the
    #: independent checker before being trusted).
    store: Optional[Any] = field(default=None, compare=False, repr=False)
    #: Master switch for the persistent cache: False makes this run
    #: ignore any store (explicit or ambient) entirely — cold solve,
    #: no write-through. Excluded from fingerprints like ``store``.
    cache: bool = field(default=True, compare=False)

    def __post_init__(self) -> None:
        # The config fingerprint hashes field values as JSON, where 120
        # and 120.0 differ; coercing keeps a library-built options
        # object and a CLI- or HTTP-parsed one on the same store key.
        if self.time_limit is not None:
            self.time_limit = float(self.time_limit)
        self.mip_gap = float(self.mip_gap)
        self.path_slack = float(self.path_slack)


def build_catalog(spec: SwitchSpec, options: SynthesisOptions) -> PathCatalog:
    """Pre-enumerate the candidate paths for a spec (§3.1).

    Under the fixed policy only the bound pins can ever carry flows, so
    the catalog is restricted to them, which shrinks the model — the
    effect the paper observes as the much smaller fixed-policy runtime.
    """
    pins = None
    if spec.binding is BindingPolicy.FIXED and spec.fixed_binding:
        pins = sorted(set(spec.fixed_binding.values()))
    return enumerate_paths(
        spec.switch,
        pins=pins,
        slack=options.path_slack,
        max_paths_per_pair=options.max_paths_per_pair,
    )


def _context_key(spec: SwitchSpec, options: SynthesisOptions) -> Tuple:
    """The structural identity of a synthesis model.

    Everything that shapes the variables/constraints — but *not* the
    objective weights α/β, so weight sweeps hit the same cached model
    and only the objective is swapped.
    """
    return (
        spec.switch.structure_key(),
        tuple(spec.modules),
        tuple((f.id, f.source, f.target) for f in spec.flows),
        tuple(sorted(tuple(sorted(pair)) for pair in spec.conflicts)),
        spec.binding.value,
        tuple(sorted((spec.fixed_binding or {}).items())),
        tuple(spec.module_order or ()),
        spec.max_sets,
        spec.node_policy.value,
        spec.conflict_form.value,
        spec.scheduling_form.value,
        options.path_slack,
        options.max_paths_per_pair,
    )


def seed_context(spec: SwitchSpec, options: Optional[SynthesisOptions],
                 context: SolveContext, result: SynthesisResult) -> bool:
    """Pre-load ``context`` with an incumbent derived from ``result``.

    Builds (or reuses) the model for ``spec`` through the context and
    maps ``result``'s binding/routing/schedule onto its variables via
    :func:`repro.core.heuristic.model_assignment`. A later
    :func:`synthesize` call with the same spec/options/context then
    starts from this incumbent instead of the greedy heuristic — the
    seam the repair engine uses to carry a prior solution's surviving
    paths into the degraded re-solve. Returns False (and seeds nothing)
    when the result is not representable in the model, e.g. a routed
    path missing from the catalog. Warm starts are re-validated inside
    the solver, so a seed can speed the search up but never change the
    optimum.
    """
    from repro.core.heuristic import model_assignment

    options = options or SynthesisOptions()
    key = _context_key(spec, options)

    def _build() -> BuiltModel:
        catalog = build_catalog(spec, options)
        return SynthesisModelBuilder(spec, catalog).build()

    built = context.built_model(key, _build)
    assignment = model_assignment(built, result)
    if assignment is None:
        return False
    context.note_solution(
        key, {v.name: float(val) for v, val in assignment.items()})
    return True


def synthesize(spec: SwitchSpec,
               options: Optional[SynthesisOptions] = None,
               context: Optional[SolveContext] = None) -> SynthesisResult:
    """Synthesize an application-specific, contamination-free switch.

    ``context`` (optional) is a :class:`~repro.opt.incremental.SolveContext`
    shared across related calls: structurally identical specs reuse the
    built model (and its compiled arrays/cut pool), α/β re-weightings
    only swap the objective, and previous optima seed later solves as
    warm-start incumbents. Results are identical with or without a
    context — it only removes repeated work.

    ``options.time_limit`` bounds the *whole* pipeline (see the module
    docstring), and ``options.on_error`` selects the failure policy.
    An unknown ``options.backend`` raises :class:`~repro.errors.SolverError`
    under every policy: a misspelt name is a caller error, not a solver
    failure to degrade from.

    A persistent :class:`repro.store.Store` (``options.store``, or the
    ambient one unless ``options.cache`` is False) short-circuits the
    whole pipeline when it holds this exact case ⊕ config (Tier A —
    the stored result is re-verified by the independent checker before
    being returned), warms up near-miss runs (Tier B — path catalogs
    and incumbents), and receives this run's artifacts for future
    callers. Results are identical with or without a store.
    """
    options = options or SynthesisOptions()
    if options.on_error not in ERROR_POLICIES:
        raise ReproError(
            f"unknown on_error policy {options.on_error!r}; "
            f"expected one of {ERROR_POLICIES}"
        )
    check_backend_name(options.backend)
    store = _resolve_store(options)
    start = time.perf_counter()
    deadline = Deadline(options.time_limit)
    timings = PhaseTimings()
    counters: Dict[str, int] = {}

    with ExitStack() as stack:
        if options.trace is not None:
            stack.enter_context(use_tracer(options.trace))
        tracer = current_tracer()
        if tracer is not None:
            stack.enter_context(tracer.span(
                "synthesize", case=spec.name, backend=options.backend,
                binding=spec.binding.value, time_limit=options.time_limit,
            ))
        result = store_key = None
        if store is not None:
            from repro.store import load_result, result_key

            store_key = result_key(spec, options)
            with timings.phase("store"):
                result = load_result(store, store_key, spec)
            if result is not None:
                counters["store_hit"] = 1
                obs_event("cache_hit", kind="result", case=spec.name,
                          key=store_key[:16])
        if result is None:
            result = _run_pipeline(spec, options, context, deadline,
                                   timings, counters, store)
            if store is not None:
                # Write-through must never fail the solve it records.
                try:
                    from repro.store import store_result

                    if store_result(store, store_key, result):
                        counters["store_put"] = 1
                except Exception:
                    pass
        result.runtime = time.perf_counter() - start
        result.timings = timings
        result.counters = counters
        if tracer is not None:
            tracer.event("synthesis_result", case=spec.name,
                         status=result.status.value,
                         objective=result.objective,
                         runtime=round(result.runtime, 6))
            metrics = tracer.metrics
            metrics.counter("synthesize_runs").inc()
            metrics.histogram("synthesize_seconds").observe(result.runtime)
            for name in PUBLISHED_COUNTS:
                if name in counters:
                    metrics.counter(name).inc(counters[name])
    return result


def _resolve_store(options: SynthesisOptions):
    """The persistent store this run uses (None when caching is off)."""
    if not options.cache:
        return None
    if options.store is not None:
        return options.store
    from repro.store import active_store

    return active_store()


def _run_pipeline(spec: SwitchSpec, options: SynthesisOptions,
                  context: Optional[SolveContext], deadline: Deadline,
                  timings: PhaseTimings, counters: Dict[str, int],
                  store) -> SynthesisResult:
    """The exact pipeline under the degradation ladder.

    ``store`` (None when caching is disabled) is installed as the
    ambient store for the duration, so Tier-B consumers deeper in the
    stack (path enumeration) see the same cache this run was
    configured with (and, with ``cache=False``, see none even if one
    is ambient).
    """
    from repro.store import use_store

    with use_store(store):
        try:
            result = _pipeline(spec, options, context, deadline,
                               timings, counters, store)
        except Exception as exc:  # the ladder: capture / degrade
            if options.on_error == "raise":
                raise
            result = _recover(spec, options, timings, counters,
                              failure=f"{type(exc).__name__}: {exc}",
                              timeout=False)
        else:
            if result.status is SynthesisStatus.TIMEOUT \
                    and options.on_error == "degrade":
                obs_event("deadline", where="synthesize",
                          budget=options.time_limit)
                result = _recover(
                    spec, options, timings, counters,
                    failure=(f"exact solve exhausted the {options.time_limit}s "
                             "budget with no incumbent"),
                    timeout=True,
                )
    return result


def _recover(spec: SwitchSpec, options: SynthesisOptions,
             timings: PhaseTimings, counters: Dict[str, int], failure: str,
             timeout: bool) -> SynthesisResult:
    """Lower rungs of the degradation ladder (degrade, then capture).

    ``degrade`` retries with the greedy heuristic — its solution is
    validated by the same independent verifier, so a degraded result is
    *correct*, merely non-optimal. When the heuristic dead-ends too, the
    original failure is reported: a ``TIMEOUT`` result for timeouts, a
    ``status=ERROR`` result carrying the exception text otherwise.
    """
    if options.on_error == "degrade":
        from repro.core.heuristic import synthesize_greedy

        obs_event("degrade", where="synthesize", reason=failure,
                  timeout=timeout)
        fallback: Optional[SynthesisResult] = None
        try:
            with timings.phase("degrade"):
                fallback = synthesize_greedy(
                    spec, verify=options.verify,
                    pressure_sharing=options.pressure_sharing,
                )
        except Exception as exc:
            failure = (f"{failure}; greedy fallback failed: "
                       f"{type(exc).__name__}: {exc}")
        if fallback is not None and fallback.status.solved:
            counters["degraded"] = 1
            fallback.solver = "greedy(degraded)"
            fallback.error = failure
            return fallback
    status = SynthesisStatus.TIMEOUT if timeout else SynthesisStatus.ERROR
    return SynthesisResult(spec, status, error=failure)


def _pipeline(spec: SwitchSpec, options: SynthesisOptions,
              context: Optional[SolveContext], deadline: Deadline,
              timings: PhaseTimings, counters: Dict[str, int],
              store=None) -> SynthesisResult:
    """The exact pipeline: every phase runs on the remaining budget."""
    key = (_context_key(spec, options)
           if context is not None or store is not None else None)

    def _build() -> BuiltModel:
        with timings.phase("catalog"):
            catalog = build_catalog(spec, options)
        with timings.phase("build"):
            return SynthesisModelBuilder(spec, catalog).build()

    if context is None:
        built = _build()
    else:
        built = context.built_model(key, _build)
        if built.spec is not spec:
            if (built.spec.alpha, built.spec.beta) != (spec.alpha, spec.beta):
                with timings.phase("build"):
                    built.model.set_objective(
                        spec.alpha * built.n_sets_expr
                        + spec.beta * built.length_expr,
                        "min",
                    )
            built.spec = spec

    # Warm-start incumbent: a previous optimum from the context if one
    # exists, else the greedy heuristic's solution. Either is validated
    # inside Model.solve and can only speed the search up. Skipped when
    # the deadline is already gone — the main solve needs every second.
    warm_values = None
    warm_source = "warm"
    memo_hit = (built.model._version, options.backend,
                float(options.mip_gap)) in built.model._solutions
    if not memo_hit and not deadline.expired() \
            and resolve_backend_name(options.backend).partition(":")[0] \
            in _WARM_BACKENDS:
        if context is not None:
            stored = context.incumbent(key)
            if stored is not None:
                mapped = {v: stored.get(v.name) for v in built.model.variables}
                if all(val is not None for val in mapped.values()):
                    warm_values, warm_source = mapped, "context"
        if warm_values is None and store is not None:
            # Tier B: a persisted optimum for the same structure (the
            # objective weights are excluded from the key, so weight
            # sweeps warm-start each other across processes). The
            # incumbent is validated inside Model.solve like any other
            # warm start — it can only speed the search up.
            stored = _load_stored_incumbent(store, key)
            if stored is not None:
                mapped = {v: stored.get(v.name) for v in built.model.variables}
                if all(val is not None for val in mapped.values()):
                    warm_values, warm_source = mapped, "store"
                    counters["store_warm_incumbent"] = 1
        if warm_values is None and options.heuristic_incumbent:
            from repro.core.heuristic import model_assignment, synthesize_greedy

            with timings.phase("heuristic"):
                greedy = synthesize_greedy(spec, verify=False,
                                           pressure_sharing=False,
                                           time_limit=deadline.remaining())
                assignment = (model_assignment(built, greedy)
                              if greedy.status.solved else None)
            if assignment is not None:
                warm_values, warm_source = assignment, "heuristic"

    sol = built.model.solve(
        backend=options.backend,
        time_limit=deadline.remaining(),
        mip_gap=options.mip_gap,
        verbose=options.verbose,
        warm_start=warm_values,
        warm_source=warm_source,
    )
    # The model reports its own sub-phases (linearize/presolve/solve/...).
    timings.merge(sol.timings)
    counters.update(sol.counters)

    if sol.status is SolveStatus.OPTIMAL and sol.values is not None \
            and (context is not None or store is not None):
        values_by_name = {v.name: float(val) for v, val in sol.values.items()}
        if context is not None:
            context.note_solution(key, values_by_name)
        if store is not None:
            try:
                from repro.store import artifact_key, encode_incumbent

                store.put(artifact_key("incumbent", key), "incumbent",
                          encode_incumbent(values_by_name, sol.objective))
            except Exception:
                pass

    if sol.status is SolveStatus.INFEASIBLE:
        return SynthesisResult(spec, SynthesisStatus.NO_SOLUTION,
                               solver=sol.solver)
    if not sol.has_solution:
        return SynthesisResult(spec, SynthesisStatus.TIMEOUT,
                               solver=sol.solver)

    with timings.phase("extract"):
        result = _extract(built, sol)
    result.status = (SynthesisStatus.OPTIMAL if sol.is_optimal
                     else SynthesisStatus.FEASIBLE)
    result.solver = sol.solver
    result.objective = sol.objective

    with timings.phase("analyze"):
        result.valves = analyze_valves(
            spec.switch, result.flow_paths, result.flow_sets)
        result.reduced = reduce_switch(
            spec.switch, result.used_segments, result.valves.essential
        )
    if options.pressure_sharing and result.valves.essential:
        # The clique-cover ILP runs on whatever the main solve left
        # over and degrades to the greedy cover when that runs out, so
        # this phase can no longer blow through the time limit. Timed
        # as its own "pressure" phase so --profile shows it separately
        # from the pure valve analysis above.
        with timings.phase("pressure"):
            result.pressure = share_pressure(
                result.valves.status,
                valves=sorted(result.valves.essential),
                method=options.pressure_method,
                backend=options.backend,
                time_limit=deadline.remaining(),
                on_timeout="greedy",
            )
        if result.pressure.degraded:
            counters["pressure_degraded"] = 1

    if options.verify:
        with timings.phase("verify"):
            verify_result(result)
    return result


def _load_stored_incumbent(store, key: Tuple) -> Optional[Dict[str, float]]:
    """Tier B read of a persisted incumbent (None on miss/corruption)."""
    from repro.store import artifact_key, decode_incumbent

    skey = artifact_key("incumbent", key)
    payload = store.get(skey, "incumbent")
    if payload is None:
        return None
    try:
        return decode_incumbent(payload)
    except Exception:
        store.delete(skey)
        return None


def _extract(built: BuiltModel, sol) -> SynthesisResult:
    """Read routing / binding / scheduling out of a solved model."""
    spec = built.spec
    binding: Dict[str, str] = {}
    for (m, p), var in built.y.items():
        if sol.value(var) > 0.5:
            if m in binding:
                raise VerificationError(
                    f"module {m!r} bound to two pins in the solution")
            binding[m] = p

    flow_paths = {}
    paths_by_index = {p.index: p for p in built.catalog}
    for (fid, pidx), var in built.x.items():
        if sol.value(var) > 0.5:
            if fid in flow_paths:
                raise VerificationError(
                    f"flow {fid} assigned two paths in the solution")
            flow_paths[fid] = paths_by_index[pidx]
    # A feasibility claim with an unrouted flow is corrupted solver
    # output (the exactly-one-path constraint makes it impossible for an
    # honest solution); diagnose it here instead of crashing downstream.
    unrouted = sorted(f.id for f in spec.flows if f.id not in flow_paths)
    if unrouted:
        raise VerificationError(
            f"solution claims feasibility but assigns no path to "
            f"flow(s) {unrouted}")

    n_sets = spec.effective_max_sets()
    raw_sets: List[List[int]] = [[] for _ in range(n_sets)]
    for (fid, s), var in built.w.items():
        if sol.value(var) > 0.5:
            raw_sets[s].append(fid)
    flow_sets = [sorted(group) for group in raw_sets if group]
    scheduled = {fid for group in flow_sets for fid in group}
    unscheduled = sorted(f.id for f in spec.flows if f.id not in scheduled)
    if unscheduled:
        raise VerificationError(
            f"solution claims feasibility but schedules flow(s) "
            f"{unscheduled} into no flow set")

    used: set = set()
    for path in flow_paths.values():
        used.update(path.segments)

    return SynthesisResult(
        spec=spec,
        status=SynthesisStatus.OPTIMAL,
        binding=binding,
        flow_paths=flow_paths,
        flow_sets=flow_sets,
        used_segments=used,
    )
