"""The branch-and-bound engine and its multi-process machinery.

:class:`SubtreeExplorer` is the repo's one branch-and-bound node loop.
The ``branch_bound`` backend runs it as a single in-process task that
holds the whole node budget; the ``parallel_bb`` backend
(:mod:`repro.opt.solvers.parallel_bb`) decomposes the tree into
*subtree tasks* that a pool of worker processes — each owning a
persistent warm :class:`~repro.opt.incremental.IncrementalLP` —
explores.

Design invariants (the determinism contract, asserted by
``tests/test_parallel_bb.py``):

* **Round-synchronized search.** The coordinator keeps the global
  frontier as a best-first heap keyed ``(bound, path hash, path)``.
  Each round it pops a *fixed-size* batch (independent of the worker
  count), ships every subtree with the incumbent known at round start,
  and merges results at a barrier in sorted-path order. Which
  nodes get explored therefore depends only on the model — never on how
  many workers ran or which finished first.
* **Node identity is the branch path.** A node is named by the tuple of
  its branch decisions (``var*2 + is_ub`` per level). Ties in the heap
  break on a CRC32 of the path — a pure function of identity, never of
  arrival time. The rolling CRC32 over all explored paths is
  reported as ``node_order_hash`` in the solution's counters.
* **Tasks without side state.** A task's branching choice is a pure
  function of its node's LP solution (most-fractional, lowest index on
  ties), and nothing but the task's leftovers, counters and best
  solution flows back. Re-running a task (after a worker death)
  reproduces its result bit-for-bit, which is what makes SIGKILL
  recovery safe.
* **History-free LPs.** A task root starts its LP cold and every child
  hot-starts from its parent's basis, so a task's LP iteration counts
  never depend on which tasks its worker (or the coordinator) solved
  before. Workers solve with the coordinator's LP engine.

The shared-incumbent channel (a lock-free ``multiprocessing.Value``) is
*written* eagerly by every worker, but only *read* at round boundaries,
so which incumbent a task prunes against never depends on timing.

Worker IPC is a pair of simplex pipes per worker (no shared queues or
locks), so a SIGKILLed worker is observed as a plain ``EOFError`` on
its result pipe; the coordinator re-queues its in-flight task and
respawns the seat.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import pickle
import signal
import threading
import traceback
import zlib
from collections import deque
from heapq import heappop, heappush
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.deadline import Deadline
from repro.errors import SolverError
from repro.obs.trace import current_tracer
from repro.opt import incremental
from repro.opt.cuts import clique_cuts, cut_rows
from repro.opt.incremental import IncrementalLP

_INT_TOL = 1e-6

#: Nodes the coordinator expands serially before the first round, so the
#: initial frontier is wide enough to feed every worker.
ROOT_EXPAND_NODES = 32
#: Subtrees dispatched per round. Fixed (not scaled by worker count) —
#: this is what makes the explored node set worker-count independent.
DISPATCH_BATCH = 8
#: Node budget per subtree task; leftovers return to the global frontier.
TASK_NODE_BUDGET = 192

#: Environment override for the multiprocessing start method
#: ("fork"/"spawn"/"forkserver"); auto-selected when unset.
CTX_ENV = "REPRO_PARALLEL_BB_CTX"

Delta = Tuple[int, bool, float]
Path = Tuple[int, ...]


def encode_step(var: int, is_ub: bool) -> int:
    """One branch decision as an int (``var*2 + is_ub``)."""
    return var * 2 + (1 if is_ub else 0)


def path_tie(path: Path) -> int:
    """Heap tie-break for a node — a function of identity only.

    It hashes a leading 0 before the path, so the values (and with them
    every ``node_order_hash``) match the hashes the search has always
    reported.
    """
    data = np.asarray((0,) + path, dtype=np.int64).tobytes()
    return zlib.crc32(data)


def fold_hash(acc: int, value: int) -> int:
    """Fold one 32-bit value into a rolling order hash."""
    return zlib.crc32(int(value).to_bytes(8, "little"), acc) & 0xFFFFFFFF


def most_fractional(x: np.ndarray, branch_idx: np.ndarray) -> Optional[int]:
    """The branch variable for ``x``: the one farthest from integrality.

    None when every variable of ``branch_idx`` is integral within
    tolerance. Ties go to the lowest index (numpy's first argmax), so
    the choice is a pure function of ``x``.
    """
    if branch_idx.size == 0:
        return None
    vals = x[branch_idx]
    frac = np.abs(vals - np.round(vals))
    worst = int(np.argmax(frac))
    if frac[worst] <= _INT_TOL:
        return None
    return int(branch_idx[worst])


class SubtreeExplorer:
    """Best-first exploration of one subtree over a persistent LP.

    This is the only branch-and-bound node loop: ``branch_bound`` runs
    it as one in-process task, ``parallel_bb`` as many. One instance
    lives for a whole search (per worker, plus one in the coordinator):
    the model is loaded into the LP engine once, clique cuts added once,
    and every task only replays bound-delta chains. Each task root
    starts cold and every child hot-starts from its parent's basis, so
    a task's result is a function of the task alone.

    The policy is plain: best-first node order, most-fractional
    branching, and each child LP is its parent's bounds plus the one
    branched bound (:meth:`~repro.opt.incremental.IncrementalLP.
    tightened`). ``solver`` labels the telemetry events tasks emit.
    """

    def __init__(self, form, *, solver: str = "parallel_bb") -> None:
        self.form = form
        self.solver = solver
        self.lp = IncrementalLP(form)
        self.branch_idx = np.where(form.branch_integrality == 1)[0]
        cliques = clique_cuts(form)
        if cliques:
            self.lp.add_cuts(*cut_rows(form, cliques))
        self.cuts = len(cliques)

    def run_task(self, chain: Sequence[Delta], path: Path, *,
                 incumbent_val: float = math.inf,
                 node_budget: int = TASK_NODE_BUDGET,
                 mip_gap: float = 1e-9,
                 deadline: Optional[Deadline] = None,
                 shared_best=None) -> Dict[str, Any]:
        """Explore the subtree rooted at ``chain``/``path``.

        Deterministic given ``(form, chain, path, incumbent_val,
        node_budget)``. The deadline only stops the task early, at a node
        boundary: the node just popped goes back with the other open
        nodes as a leftover, so a stopped task never looks finished.
        ``shared_best`` (anything with a ``value`` attribute) is the best
        objective any task has found so far: a task announces an
        incumbent only when it beats that value, and never prunes
        against it.
        """
        lp = self.lp
        form = self.form
        tracer = current_tracer()
        lp0, it0 = lp.lp_calls, lp.lp_iterations
        local_inc = float(incumbent_val)
        best_val = math.inf
        best_x: Optional[np.ndarray] = None
        nodes = 0
        order = 0
        leftovers: List[Tuple[float, Path, Tuple[Delta, ...]]] = []

        def cutoff() -> float:
            if math.isinf(local_inc):
                return math.inf
            return local_inc - mip_gap * max(1.0, abs(local_inc))

        def found(value: float, x: np.ndarray) -> None:
            """An integral LP solution: keep it if it is this task's best."""
            nonlocal best_val, best_x, local_inc
            if value >= best_val:
                return
            best_val, best_x = value, x
            if value >= local_inc:
                return
            local_inc = value
            if shared_best is not None:
                if value >= shared_best.value:
                    return  # another task already found one as good
                # Lock-free write: a lost race only delays pruning or
                # repeats an announcement, never changes what the
                # deterministic merge will conclude.
                shared_best.value = value
            if tracer is not None:
                tracer.event("incumbent", solver=self.solver, nodes=nodes,
                             objective=form.report_objective(value),
                             source="search")

        chain = tuple(chain)
        lp.set_bounds(chain)
        # The task root starts cold, so a task's LPs (and its iteration
        # count) never depend on which tasks this explorer ran before —
        # a re-queued or stolen task reproduces its result exactly.
        lp.cold_start()
        res = lp.solve()
        root_status = int(res.status)
        out: Dict[str, Any] = {
            "path": path, "root_status": root_status, "nodes": 0,
            "lp_calls": lp.lp_calls - lp0,
            "lp_iterations": lp.lp_iterations - it0, "order": 0,
            "best_val": math.inf, "best_x": None, "leftovers": [],
        }
        if root_status != 0:
            return out
        if tracer is not None and not path:
            tracer.event("bound", solver=self.solver, nodes=0,
                         bound=form.report_objective(float(res.fun)))

        # Heap entries carry each node's LP solution and final basis;
        # both children hot-start from their parent's basis.
        heap: List[Tuple[float, int, Path, Tuple[Delta, ...], np.ndarray,
                         Any]] = [
            (float(res.fun), path_tie(path), path, chain, res.x,
             lp.basis())
        ]
        while heap:
            bound, tie, pth, chn, x, basis = heappop(heap)
            if bound >= cutoff():
                continue
            if (nodes >= node_budget
                    or (deadline is not None and deadline.expired())):
                leftovers.append((bound, pth, chn))
                leftovers.extend((b, p, c) for b, _, p, c, _, _ in heap)
                break
            nodes += 1
            order = fold_hash(order, tie)
            if tracer is not None and nodes % 1024 == 0:
                tracer.event("progress", solver=self.solver, nodes=nodes,
                             open=len(heap), lp_calls=lp.lp_calls - lp0,
                             bound=form.report_objective(bound))

            j = most_fractional(x, self.branch_idx)
            if j is None:
                found(bound, x)
                continue

            lp.set_bounds(chn)
            xj = x[j]
            for value, is_ub in ((float(math.floor(xj)), True),
                                 (float(math.ceil(xj)), False)):
                if not lp.lb[j] <= value <= lp.ub[j]:
                    continue  # the branch would empty the domain
                lp.set_basis(basis)
                with lp.tightened(j, is_ub, value):
                    child = lp.solve()
                if child.status != 0:
                    continue
                child_bound = float(child.fun)
                if most_fractional(child.x, self.branch_idx) is None:
                    found(child_bound, child.x)
                elif child_bound < cutoff():
                    child_path = pth + (encode_step(j, is_ub),)
                    heappush(heap, (child_bound, path_tie(child_path),
                                    child_path, chn + ((j, is_ub, value),),
                                    child.x, lp.basis()))

        out.update(
            nodes=nodes, lp_calls=lp.lp_calls - lp0,
            lp_iterations=lp.lp_iterations - it0, order=order,
            best_val=best_val, best_x=best_x, leftovers=leftovers,
        )
        return out


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

def _worker_main(wid: int, payload: bytes, task_r, res_w,
                 shared_best) -> None:
    """Worker entry point: build a warm explorer, then serve tasks.

    When the coordinating process traces, ``cfg["telemetry"]`` turns on
    a worker-local tracer: each task runs inside a ``bb_task`` span
    (stamped with the job's correlation ID) and the resulting telemetry
    batch rides back on the ``result`` message — telemetry never adds
    pipe traffic of its own, and a SIGKILLed worker simply loses its
    unsent batch, never tears one.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    shipper = None
    try:
        cfg = pickle.loads(payload)
        # Solve with the coordinator's LP engine: iteration counts are
        # part of the determinism contract, and they differ by engine.
        incremental.LP_ENGINE = cfg["lp_engine"]
        explorer = SubtreeExplorer(cfg["form"])
        if cfg.get("telemetry"):
            from repro.obs.telemetry import TelemetryShipper
            from repro.obs.trace import Tracer, use_tracer

            tracer = Tracer(f"bb-worker-{wid}")
            shipper = TelemetryShipper(tracer, source=f"bb-worker-{wid}")
            install = use_tracer(tracer)
            install.__enter__()  # worker-lifetime install; process exits with it
            if cfg.get("clock"):
                tracer.witness(cfg["clock"])
        res_w.send(("ready", wid))
    except Exception:  # pragma: no cover - construction failures
        try:
            res_w.send(("error", wid, traceback.format_exc()))
        except Exception:
            pass
        return
    from repro.obs.trace import correlate, obs_span

    while True:
        try:
            msg = task_r.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        task = msg[1]
        try:
            with correlate(task.get("corr")), \
                    obs_span("bb_task", worker=wid,
                             depth=len(task["path"])):
                result = explorer.run_task(
                    task["chain"], task["path"],
                    incumbent_val=task["incumbent"],
                    node_budget=task["budget"],
                    mip_gap=task["mip_gap"],
                    deadline=(Deadline.from_wire(task["deadline"])
                              if task["deadline"] is not None else None),
                    shared_best=shared_best)
            if shipper is not None:
                res_w.send(("result", wid, result, shipper.collect()))
            else:
                res_w.send(("result", wid, result))
        except Exception:
            try:
                res_w.send(("error", wid, traceback.format_exc()))
            except Exception:
                break


def pick_context() -> mp.context.BaseContext:
    """The multiprocessing context for the worker pool.

    ``fork`` gives by far the cheapest start (the compiled model and
    scipy are already in memory) but is unsafe under live threads (a
    service worker thread, say), so it is only auto-picked in
    single-threaded processes. ``REPRO_PARALLEL_BB_CTX`` overrides.
    """
    name = os.environ.get(CTX_ENV)
    if name:
        return mp.get_context(name)
    methods = mp.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return mp.get_context("fork")
    return mp.get_context("spawn")


class _Seat:
    """One worker seat: process + its two simplex pipes + in-flight task."""

    __slots__ = ("wid", "proc", "task_w", "res_r", "busy")

    def __init__(self, wid: int, proc, task_w, res_r) -> None:
        self.wid = wid
        self.proc = proc
        self.task_w = task_w
        self.res_r = res_r
        self.busy: Optional[Dict[str, Any]] = None

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()


class WorkerPool:
    """A pool of warm B&B workers with pipe IPC and death recovery.

    ``inline_fn`` is a coordinator-side fallback that runs one dispatch
    dict locally; it is used when every seat is lost, so a round always
    completes with the exact results the workers would have produced.
    """

    def __init__(self, form, workers: int, *,
                 inline_fn: Optional[Callable[[Dict[str, Any]],
                                              Dict[str, Any]]] = None,
                 tracer=None, start_timeout: float = 60.0) -> None:
        self.workers = workers
        self._payload = pickle.dumps(
            {"form": form, "lp_engine": incremental.LP_ENGINE,
             # Workers trace iff the coordinating process does; their
             # batches ride back on result messages and are absorbed
             # into this tracer (never touching search determinism).
             "telemetry": tracer is not None,
             "clock": getattr(tracer, "clock", 0) if tracer is not None
             else 0},
            protocol=pickle.HIGHEST_PROTOCOL)
        self._inline_fn = inline_fn
        self._tracer = tracer
        self._start_timeout = start_timeout
        self._ctx = pick_context()
        self.shared_best = self._ctx.Value("d", math.inf, lock=False)
        self._seats: List[_Seat] = []
        self.steals = 0
        self.restarts = 0

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, wid: int) -> _Seat:
        task_r, task_w = self._ctx.Pipe(duplex=False)
        res_r, res_w = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, self._payload, task_r, res_w, self.shared_best),
            daemon=True, name=f"bb-worker-{wid}")
        proc.start()
        task_r.close()
        res_w.close()
        return _Seat(wid, proc, task_w, res_r)

    def _await_ready(self, seat: _Seat, timeout: float) -> bool:
        if not seat.res_r.poll(timeout):
            return False
        try:
            msg = seat.res_r.recv()
        except (EOFError, OSError):
            return False
        if msg[0] == "error":
            raise SolverError(f"parallel_bb worker failed to start:\n{msg[2]}")
        return msg[0] == "ready"

    def start(self) -> bool:
        """Spawn and warm every seat; False means the pool is unusable."""
        try:
            self._seats = [self._spawn(i) for i in range(self.workers)]
            for seat in self._seats:
                if not self._await_ready(seat, self._start_timeout):
                    self.stop()
                    return False
        except SolverError:
            self.stop()
            raise
        except Exception:
            self.stop()
            return False
        return True

    def stop(self) -> None:
        for seat in self._seats:
            if seat.proc is None:
                continue
            try:
                seat.task_w.send(("stop",))
            except Exception:
                pass
        for seat in self._seats:
            if seat.proc is None:
                continue
            seat.proc.join(timeout=0.5)
            if seat.proc.is_alive():
                seat.proc.terminate()
                seat.proc.join(timeout=0.5)
                if seat.proc.is_alive():  # pragma: no cover
                    seat.proc.kill()
                    seat.proc.join(timeout=0.5)
            for conn in (seat.task_w, seat.res_r):
                try:
                    conn.close()
                except Exception:
                    pass
            seat.proc = None
        self._seats = []

    # -- death handling ------------------------------------------------
    def _on_death(self, seat: _Seat,
                  pending: "deque[Dict[str, Any]]") -> None:
        if self._tracer is not None:
            self._tracer.event("worker_down", worker=seat.wid,
                               had_task=seat.busy is not None)
        if seat.busy is not None:
            # Re-running a task is deterministic, so re-queueing the
            # exact dispatch dict reproduces the lost result.
            pending.appendleft(seat.busy)
            seat.busy = None
        if seat.proc is not None:
            seat.proc.join(timeout=0.5)
        for conn in (seat.task_w, seat.res_r):
            try:
                conn.close()
            except Exception:
                pass
        seat.proc = None
        try:
            fresh = self._spawn(seat.wid)
            if self._await_ready(fresh, self._start_timeout):
                seat.proc = fresh.proc
                seat.task_w = fresh.task_w
                seat.res_r = fresh.res_r
                self.restarts += 1
                if self._tracer is not None:
                    self._tracer.event("worker_respawned", worker=seat.wid)
        except Exception:  # pragma: no cover - respawn best-effort
            seat.proc = None

    # -- rounds --------------------------------------------------------
    def run_round(self, dispatches: Sequence[Dict[str, Any]], *,
                  kill_wid: Optional[int] = None) -> List[Dict[str, Any]]:
        """Run one round of subtree tasks and return their results.

        ``kill_wid`` (fault injection) SIGKILLs that seat once it holds
        a task, exercising the re-queue + respawn path deterministically
        from the caller's fault plan.
        """
        pending: "deque[Dict[str, Any]]" = deque(dispatches)
        results: List[Dict[str, Any]] = []
        want = len(pending)
        kill_pending = kill_wid is not None
        while len(results) < want:
            # A worker can also die idle, after its last result reached
            # the pipe: respawn it here, or the search would finish on
            # fewer seats. A seat whose respawn failed stays retired.
            for seat in self._seats:
                if seat.proc is not None and not seat.proc.is_alive():
                    self._on_death(seat, pending)
            alive = [s for s in self._seats if s.alive]
            if not alive:
                # Every seat lost and respawn failed: finish the round
                # in-process — same tasks, same deterministic results.
                while pending:
                    task = pending.popleft()
                    if self._inline_fn is None:  # pragma: no cover
                        raise SolverError("parallel_bb worker pool lost")
                    results.append(self._inline_fn(task))
                break
            for seat in alive:
                if not pending:
                    break
                if seat.busy is not None:
                    continue
                task = pending.popleft()
                try:
                    seat.task_w.send(("task", task))
                except (BrokenPipeError, OSError):
                    pending.appendleft(task)
                    self._on_death(seat, pending)
                    continue
                seat.busy = task
                if task.get("home") != seat.wid:
                    self.steals += 1
                    if self._tracer is not None:
                        self._tracer.event(
                            "steal", worker=seat.wid, home=task.get("home"),
                            depth=len(task["path"]))
            if kill_pending:
                target = kill_wid % max(len(self._seats), 1)
                victims = [s for s in self._seats
                           if s.alive and s.busy is not None]
                exact = [s for s in victims if s.wid == target]
                if exact:
                    victims = exact
                if victims:
                    os.kill(victims[0].proc.pid, signal.SIGKILL)
                    kill_pending = False
            busy = [s for s in self._seats if s.alive and s.busy is not None]
            if not busy:
                if pending:
                    continue
                break
            ready = _conn_wait([s.res_r for s in busy], timeout=0.1)
            for conn in ready:
                seat = next(s for s in busy if s.res_r is conn)
                try:
                    msg = conn.recv()
                except (EOFError, OSError, pickle.UnpicklingError):
                    self._on_death(seat, pending)
                    continue
                if msg[0] == "result":
                    results.append(msg[2])
                    if len(msg) > 3 and self._tracer is not None:
                        self._tracer.absorb_batch(msg[3])
                    seat.busy = None
                elif msg[0] == "error":
                    self.stop()
                    raise SolverError(
                        f"parallel_bb worker {seat.wid} failed:\n{msg[2]}")
        return results

    @property
    def alive_workers(self) -> int:
        return sum(1 for s in self._seats if s.alive)


__all__ = [
    "ROOT_EXPAND_NODES", "DISPATCH_BATCH", "TASK_NODE_BUDGET", "CTX_ENV",
    "encode_step", "path_tie", "fold_hash", "most_fractional",
    "SubtreeExplorer", "WorkerPool", "pick_context",
]
