"""`ParallelApp`: assemble, deploy, and drive a stack — futures first.

Where :class:`~repro.api.spec.StackSpec` *describes* a stack, a
:class:`ParallelApp` *is* one: it resolves the spec's registry names
into modules, assembles the :class:`~repro.parallel.composition.Composition`,
resolves the execution backend, and exposes a submission API built on
:mod:`repro.runtime.futures`:

* :meth:`ParallelApp.start` constructs the woven target (running the
  duplication advice) inside the app's execution context;
* :meth:`ParallelApp.submit` dispatches one work call and returns a
  :class:`~repro.runtime.futures.Future` immediately;
* :meth:`ParallelApp.map` dispatches many payloads — per item, or as
  *packs* through the compiled batched entry point
  (:func:`repro.aop.plan.batched_entry`): one advice pass and, under
  distribution, one message per pack.  Packs to methods declared
  ``oneway`` in the spec are fire-and-forget — the middleware sends one
  message and never waits for a reply.

On the simulation backend, calls made from *outside* the simulator are
transparently wrapped in a simulated process and driven to completion
(the returned future is already resolved); calls made from *inside* a
simulated process spawn sibling activities and return genuinely pending
futures.  On the thread backend every submission is a spawned activity
on a pooled thread (a parked one when any is idle).
The same application code therefore runs functionally and on the
simulated cluster — the paper's pluggable-platform claim, applied to the
API itself.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.aop.plan import batched_entry
from repro.aop.weaver import Weaver, default_weaver
from repro.api.registry import BACKENDS, MIDDLEWARES, STRATEGIES
from repro.api.spec import StackSpec
from repro.errors import (
    AdmissionError,
    DeadlineExceeded,
    DeploymentError,
    FutureError,
)
from repro.faults.schedule import install_faults, remove_faults
from repro.middleware.context import use_node
from repro.parallel.composition import Composition, ParallelModule
from repro.parallel.concern import Concern
from repro.parallel.concurrency import concurrency_module
from repro.parallel.partition.base import CallPiece
from repro.runtime.admission import AdmissionController, Deadline, use_envelope
from repro.runtime.backend import ExecutionBackend, use_backend
from repro.runtime.futures import Future, FutureGroup
from repro.runtime.simbackend import SimBackend
from repro.sim import current_process

__all__ = ["ParallelApp", "AppBuilder"]


class ParallelApp:
    """One assembled, deployable, submittable parallel application."""

    def __init__(self, spec: StackSpec):
        spec.validate()
        self.spec = spec
        self.weaver: Weaver = spec.weaver if spec.weaver is not None else default_weaver
        self.instance: Any = None
        self.partition: Any = None
        self.async_aspect: Any = None
        self.distribution: Any = None
        self.middleware: Any = None
        self.extra_middleware: Any = None
        self.modules: dict[str, ParallelModule] = {}
        creation = spec.creation_pointcut
        work = spec.work_pointcut
        name = spec.name if spec.name is not None else f"{spec.strategy}+{spec.middleware}"
        self.composition = Composition(name)

        # -- partition -----------------------------------------------------
        builder = STRATEGIES.get(spec.strategy)
        module = builder(spec.splitter, creation, work, **spec.strategy_options)
        if module is not None:
            self._plug(module)
            self.partition = getattr(module, "coordinator", None)

        # -- concurrency (unless merged into the partition module) ---------
        merged = module is not None and getattr(module, "provides_concurrency", False)
        if spec.concurrency and not merged:
            conc = concurrency_module(work, work)
            self._plug(conc)
            self.async_aspect = conc.async_aspect  # type: ignore[attr-defined]

        # -- execution backend (before distribution: the process bundle
        # parks its workers on the app's backend, and backend='process'
        # auto-promotes middleware 'none' → 'process') -----------------
        self.backend = self._resolve_backend(spec)

        # -- distribution --------------------------------------------------
        middleware_name = spec.middleware
        if (
            middleware_name == "none"
            and getattr(self.backend, "name", "") == "process"
        ):
            # backend='process' without a middleware is inert (servants
            # would never leave the parent); the promotion is what makes
            # the one-knob spec change deliver out-of-process execution
            middleware_name = "process"
        bundle = MIDDLEWARES.get(middleware_name)
        bundle_kwargs = dict(spec.middleware_options)
        if getattr(bundle, "wants_backend", False):
            bundle_kwargs.setdefault("backend", self.backend)
        self.middleware, self.extra_middleware, dist_module = bundle(
            spec.cluster,
            creation,
            work,
            placement=spec.placement,
            oneway=spec.oneway,
            **bundle_kwargs,
        )
        if dist_module is not None:
            self._plug(dist_module)
            self.distribution = getattr(dist_module, "aspect", None)

        # -- instrumentation + optimisations -------------------------------
        if spec.cost is not None:
            self._plug(
                ParallelModule("cost-model", Concern.INSTRUMENTATION, [spec.cost])
            )
        for index, extra in enumerate(spec.optimisations):
            if isinstance(extra, ParallelModule):
                self._plug(extra)
            else:  # a bare aspect: wrap it as its own module
                concern = getattr(extra, "concern", Concern.OPTIMISATION)
                self._plug(
                    ParallelModule(f"optimisation-{index}", concern, [extra])
                )

        #: the simulator driving a sim-backend app (None on threads)
        self.sim = getattr(self.backend, "sim", None)
        #: bounded admission table — submit()/map() acquire a slot per
        #: call and the spec's overflow policy applies beyond
        #: max_in_flight (an unbounded table still tracks slots for
        #: observability when max_in_flight is None)
        self.admission = AdmissionController(
            limit=spec.max_in_flight,
            policy=spec.overflow,
            backend=self.backend,
            name=self.composition.name,
        )
        #: the cluster-level tenant plane (spec.tenant/spec.scheduler):
        #: when installed, every submission unit acquires a TenantGrant
        #: before its admission slot; the tenant must already be
        #: registered, so typos fail at construction time
        self.scheduler = spec.scheduler
        self.tenant = spec.tenant
        if self.scheduler is not None:
            self.scheduler.ensure_tenant(self.tenant)
        self._submissions = 0
        #: the spec's fault schedule while installed on the fault plane
        #: (deploy installs it, undeploy removes it)
        self._faults_active: Any = None

    @staticmethod
    def _resolve_backend(spec: StackSpec) -> ExecutionBackend:
        backend = spec.backend
        if backend is None:
            if spec.middleware == "process":
                backend = "process"
            else:
                backend = "sim" if spec.cluster is not None else "thread"
        if isinstance(backend, str):
            return BACKENDS.get(backend)(cluster=spec.cluster)
        if not isinstance(backend, ExecutionBackend):
            raise DeploymentError(
                f"StackSpec.backend must be a registry name or an "
                f"ExecutionBackend, got {backend!r}"
            )
        return backend

    def _plug(self, module: ParallelModule) -> ParallelModule:
        self.composition.plug(module)
        self.modules[module.name] = module
        return module

    # -- lifecycle ----------------------------------------------------------

    def deploy(self) -> "ParallelApp":
        """Weave the target and deploy every module.  A spec-level fault
        schedule goes live on the ambient fault plane here and comes
        down at :meth:`undeploy` — the deployment's lifetime IS the
        schedule's."""
        self.composition.deploy(self.weaver, targets=[self.spec.target])
        if self.spec.faults is not None and self._faults_active is None:
            self._faults_active = install_faults(self.spec.faults)
        return self

    def undeploy(self) -> None:
        """Undeploy every module (the target class stays woven)."""
        if self._faults_active is not None:
            remove_faults(self._faults_active)
            self._faults_active = None
        self.composition.undeploy()

    def shutdown(self) -> None:
        """Stop middleware server activities (end of run)."""
        for mw in (self.middleware, self.extra_middleware):
            if mw is not None:
                mw.shutdown()

    def __enter__(self) -> "ParallelApp":
        return self.deploy()

    def __exit__(self, *exc: Any) -> None:
        self.undeploy()
        self.shutdown()

    def describe(self) -> str:
        """Table-1-style description of the assembled composition."""
        return self.composition.describe()

    @property
    def in_flight(self) -> int:
        """Live per-call dispatch tickets on the partition coordinator —
        how many splits this deployed stack is serving right now."""
        return getattr(self.partition, "in_flight", 0)

    @property
    def peak_in_flight(self) -> int:
        """Most splits ever in flight at once on this deployed stack
        (the overlap high-water mark the stress tests assert on)."""
        return getattr(self.partition, "peak_in_flight", 0)

    # -- admission observability ---------------------------------------------

    @property
    def admitted(self) -> int:
        """Admission slots currently held (submissions between admit
        and their future resolving)."""
        return self.admission.admitted

    def stats(self) -> dict:
        """Read-only deployment snapshot: the admission table's
        :meth:`~repro.runtime.admission.AdmissionController.stats` plus
        the live split counters (and the tenant name when this app
        submits through a cluster scheduler)."""
        snapshot = self.admission.stats()
        snapshot["in_flight"] = self.in_flight
        snapshot["peak_in_flight"] = self.peak_in_flight
        if self.tenant is not None:
            snapshot["tenant"] = self.tenant
        return snapshot

    def plan_stats(self) -> dict:
        """Compiler visibility for this app's weaver: a read-only
        snapshot of :class:`~repro.aop.plan.PlanStats` — compile counts,
        the per-kind plan histograms (``kinds`` / ``batch_kinds``), and
        the runtime ``interpreter_calls`` fallback counter.  Benchmarks
        and users assert "no interpreter on this path" by checking that
        ``interpreter_calls`` does not move across a hot loop; only
        dynamic-residue chains (``within``/``args`` residues) increment
        it.
        """
        return self.weaver.plan_stats.summary()

    def trace(self, ticket_id: int) -> dict | None:
        """The span timeline of one dispatch ticket.

        ``ticket_id`` is a dispatch-context id — take it from
        ``future.admission.ticket_id`` after a submission dispatched, or
        from the ``trace`` attribute of a
        :class:`~repro.errors.DeadlineExceeded`.  Live tickets are
        snapshotted in place; retired ones come from the partition
        coordinator's bounded history.  Returns ``None`` for unknown or
        evicted ids (and always for partition-less specs, which open no
        tickets).
        """
        owner = self.partition
        if owner is None or not hasattr(owner, "trace_of"):
            return None
        return owner.trace_of(ticket_id)

    def traces(self) -> list[dict]:
        """Recent ticket timelines, oldest first: every live ticket plus
        the retired ones still in the bounded history."""
        owner = self.partition
        if owner is None or not hasattr(owner, "trace_history"):
            return []
        return owner.trace_history()

    # -- execution context ---------------------------------------------------

    def _contextualise(self, fn: Callable[[], Any]) -> Callable[[], Any]:
        """Wrap ``fn`` so it runs under this app's backend (and, when a
        cluster exists, placed on its head node)."""
        cluster = self.spec.cluster

        def body() -> Any:
            with use_backend(self.backend):
                if cluster is not None:
                    with use_node(cluster.head):
                        return fn()
                return fn()

        return body

    def _outside_simulation(self) -> bool:
        return isinstance(self.backend, SimBackend) and current_process() is None

    def execute(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn()`` inside the app's execution context and return its
        result — driving the simulator when called from outside it."""
        body = self._contextualise(fn)
        if self._outside_simulation():
            out: dict[str, Any] = {}

            def main() -> None:
                out["result"] = body()

            self.sim.spawn(main, name="api.execute")
            self.sim.run()
            return out["result"]
        return body()

    def _dispatch(self, perform: Callable[[], None], name: str) -> None:
        """Run ``perform`` asynchronously in context: a spawned activity
        inside a live execution, a driven simulation run from outside."""
        body = self._contextualise(perform)
        if self._outside_simulation():
            self.sim.spawn(body, name=name)
            self.sim.run()
            return
        self.backend.spawn(body, name=name)

    # -- submission ----------------------------------------------------------

    def start(self, *args: Any, **kwargs: Any) -> Any:
        """Construct the (woven) target instance — the client-visible
        object whose calls the stack intercepts.  Runs the duplication
        advice, so workers/stages exist afterwards."""
        target = self.spec.target

        def build() -> Any:
            return target(*args, **kwargs)

        self.instance = self.execute(build)
        return self.instance

    def _entry_instance(self) -> Any:
        if self.instance is None:
            raise DeploymentError(
                "no target instance yet — call app.start(*ctor_args) "
                "inside the deployed context first"
            )
        return self.instance

    def _check_oneway(self, oneway: bool) -> None:
        if oneway and self.spec.resolved_work_method not in self.spec.oneway:
            raise DeploymentError(
                f"method {self.spec.resolved_work_method!r} is not declared "
                f"oneway in the spec (oneway={list(self.spec.oneway)}); "
                f"fire-and-forget must be declared so the transport knows"
            )

    def _deadline(self, timeout: float | None) -> Deadline | None:
        """Build the call's deadline: the explicit ``timeout=`` wins,
        the spec's default applies otherwise, None means no deadline."""
        budget = timeout if timeout is not None else self.spec.timeout
        if budget is None:
            return None
        return Deadline(budget, clock=self.backend.now)

    def _admit(self, deadline: Deadline | None, name: str) -> Any:
        """Acquire the call's capacity: the cluster-level tenant grant
        first (when a scheduler is installed — quotas, fairness and the
        tenant's own overflow policy apply there), then the
        deployment's admission slot.  The grant rides the slot and is
        released with it; a deployment-level rejection refunds the
        grant before propagating, so cluster capacity never leaks."""
        grant = None
        if self.scheduler is not None:
            grant = self.scheduler.acquire(
                self.tenant, deadline=deadline, name=name
            )
        try:
            slot = self.admission.admit(
                deadline=deadline, name=name, retry=self.spec.retry
            )
        except BaseException:
            if grant is not None:
                grant.release()
            raise
        if grant is not None:
            slot.grant = grant
            grant.attach_slot(slot)
        return slot

    def submit(
        self,
        *args: Any,
        oneway: bool = False,
        timeout: float | None = None,
        **kwargs: Any,
    ) -> Future:
        """Dispatch one work call; returns a :class:`Future` immediately.

        The call enters the woven method (running the full advice chain:
        split, spawn, redirect...); nested futures produced by the
        concurrency aspect are transparently unwrapped.  With
        ``oneway=True`` (the method must be declared in
        ``spec.oneway``) the future resolves to ``None`` as soon as the
        send completes.

        Admission control: the call first acquires a slot in the app's
        bounded admission table.  Beyond ``spec.max_in_flight`` the
        spec's overflow policy applies — ``block`` parks THIS caller
        until a slot frees, ``fail`` raises
        :class:`~repro.errors.AdmissionRejected` here, ``shed-oldest``
        cancels the oldest in-flight call (its future raises
        :class:`~repro.errors.CallShed`).  ``timeout=`` (or the spec's
        default) arms a per-call deadline: expiry cancels the call's
        dispatch ticket at the next boundary, unwinds its collector, and
        the future raises :class:`~repro.errors.DeadlineExceeded`
        carrying the ticket's trace.  The admission slot rides on the
        returned future as ``future.admission`` (its ``ticket_id``
        resolves traces via :meth:`trace`).

        Like ``oneway``, the ``timeout`` keyword is reserved by the
        submission API and never forwarded to the work method — a work
        method with its own ``timeout`` parameter must receive it
        positionally (or via a payload tuple through :meth:`map`).
        """
        self._check_oneway(oneway)
        instance = self._entry_instance()
        method = self.spec.resolved_work_method
        deadline = self._deadline(timeout)
        # acquire before dispatching: this is where backpressure (block),
        # rejection (fail) and shedding happen — in the submitter
        slot = self._admit(deadline, name=f"submit.{method}")
        self._submissions += 1
        future = Future(
            name=f"submit.{method}.{self._submissions}", backend=self.backend
        )
        future.admission = slot  # type: ignore[attr-defined]
        # middleware-less oneway (asyncio only, per validation): no
        # transport drops the reply, so the backend detaches the
        # outcome itself — a fire-and-forget loop task
        native_oneway = oneway and self.spec.middleware == "none"

        def perform() -> None:
            self._run_admitted(
                slot,
                method,
                produce=lambda: getattr(instance, method)(*args, **kwargs),
                deliver=lambda result: (
                    None if future.resolved else future.set_result(result)
                ),
                fail=lambda exc: (
                    None if future.resolved else future.set_exception(exc)
                ),
                detach=native_oneway,
            )

        try:
            self._dispatch(perform, name=future.name)
        except BaseException:
            # the activity never started, so perform's release will
            # never run — give the capacity back before re-raising
            slot.release()
            raise
        return future

    def _run_admitted(
        self,
        slot: Any,
        method: str,
        produce: Callable[[], Any],
        deliver: Callable[[Any], None],
        fail: Callable[[Exception], None],
        detach: bool = False,
    ) -> None:
        """The admission lifecycle shared by every dispatched unit
        (single submits and whole packs): re-check the slot (it may
        have been shed while the activity waited to run), run the woven
        call under the slot's envelope, enforce the strict completion
        deadline, close the deliver-vs-cancel race atomically, and —
        crucially — release the slot *before* resolving the caller's
        future, so a submitter waking from ``result()`` never finds the
        finished call still counted against ``max_in_flight``.

        ``detach=True`` is the middleware-less oneway path: the produced
        outcome is handed to the backend fire-and-forget (an unawaited
        loop task on asyncio) and the caller's future resolves to
        ``None`` as soon as the send completed."""
        try:
            slot.check()
            with use_envelope(slot):
                result = produce()
                if detach:
                    self.backend.detach(result)
                    result = None
                else:
                    if isinstance(result, Future):
                        result = self._await_nested(result, slot.deadline)
                    # an async servant's coroutine (raw, or carried
                    # through a thread-spawned future untouched) runs to
                    # completion on the backend's loop here — a targeted
                    # error on backends without one
                    result = self.backend.finish(result)
            self._enforce_completion_deadline(slot, method)
            # atomic deliver-vs-cancel: a unit shed (or expired)
            # mid-flight must not deliver — its slot was already handed
            # to someone else — while a delivered one cannot be shed
            cancelled = slot.finish()
            if cancelled is not None:
                raise cancelled
            slot.release()  # free capacity before waking the waiter
            deliver(result)
        except Exception as exc:  # noqa: BLE001 - delivered via futures
            slot.release()  # likewise: capacity first, then the error
            fail(exc)
        finally:
            slot.release()  # idempotent backstop for exotic unwinds

    def _enforce_completion_deadline(self, slot: Any, method: str) -> None:
        """Deadlines are strict: a call whose result arrives after its
        budget drained fails with :class:`DeadlineExceeded` (carrying
        the ticket's trace when one opened) instead of delivering late —
        even when no cooperative boundary noticed the expiry in flight.
        """
        deadline = slot.deadline
        if deadline is None or not deadline.expired:
            return
        trace = (
            self.trace(slot.ticket_id) if slot.ticket_id is not None else None
        )
        raise DeadlineExceeded(
            f"submit.{method}: call completed after its deadline of "
            f"{deadline.budget}s drained",
            trace=trace,
        )

    @staticmethod
    def _await_nested(result: Future, deadline: Deadline | None) -> Any:
        """Unwrap a nested future, bounding the wait by the deadline
        (how partition-less specs honour ``timeout=``)."""
        if deadline is None:
            return result.result()
        try:
            return result.result(timeout=max(deadline.remaining(), 0.0))
        except FutureError:
            deadline.check("awaiting the call's result")
            raise

    def map(
        self,
        items: Iterable[Any],
        pack: bool | int = False,
        oneway: bool = False,
        timeout: float | None = None,
    ) -> FutureGroup:
        """Dispatch one work call per payload; returns a
        :class:`FutureGroup` of per-item futures in payload order.

        Each item is the work method's positional argument (pass tuples
        for multi-argument calls).  ``pack`` switches to *batched*
        submission: payloads are grouped (``True`` = one pack, an int =
        packs of that size) and each pack rides the compiled batched
        entry point — the advice chain runs once per pack around a
        :class:`~repro.aop.plan.BatchJoinPoint` and, under distribution,
        the whole pack is one message.  On partitioned specs the
        partition layer routes each whole pack at the top level
        (``routes_packs`` strategies: farm and dynamic-farm send a pack
        to one worker, the pipeline streams it through the stages) — one
        advice pass and one message per pack per worker.  Strategies
        whose work call cannot carry independent packs (heartbeat's
        iteration loop, divide-and-conquer's recursion) are rejected
        eagerly.  With ``oneway=True`` packs are sent fire-and-forget
        and every future resolves to ``None``.

        Admission control applies per submission unit: one slot per
        item unpacked, one slot per pack when packing — so a bounded
        ``max_in_flight`` backpressures (or rejects / sheds) a large
        ``map`` exactly like a burst of submits.  ``timeout=`` arms the
        same per-call deadline as :meth:`submit` on every unit.
        """
        payloads = [item if isinstance(item, tuple) else (item,) for item in items]
        if not pack:
            # each unit is admitted independently; a rejected unit
            # fails ITS OWN future instead of aborting the map — the
            # caller always gets the full group back, so handles to
            # already-dispatched in-flight work are never stranded
            group = FutureGroup()
            for index, payload in enumerate(payloads):
                try:
                    group.add(
                        self.submit(*payload, oneway=oneway, timeout=timeout)
                    )
                except AdmissionError as exc:
                    rejected = Future(
                        name=f"map.rejected.{index}", backend=self.backend
                    )
                    rejected.set_exception(exc)
                    group.add(rejected)
            return group
        if self.partition is not None and not self.spec.pack_routable:
            raise DeploymentError(
                f"pack submission is not routable on strategy "
                f"{self.spec.strategy!r}: its work call cannot carry "
                f"independent packs (only strategies that route whole "
                f"packs per worker — farm, dynamic-farm, pipeline — or "
                f"partition-less specs support map(pack=...)); use plain "
                f"map()/submit() or the CommunicationPackingAspect for "
                f"split-level packing"
            )
        self._check_oneway(oneway)
        instance = self._entry_instance()
        method = self.spec.resolved_work_method
        if not payloads:
            return FutureGroup()  # nothing to pack
        size = len(payloads) if pack is True else int(pack)
        if size < 1:
            raise DeploymentError(f"pack size must be >= 1, got {size}")
        group = FutureGroup()
        # futures must live on the app's backend (like submit's), not the
        # ambient one — a sim-process caller waiting on a thread-event
        # future would deadlock the simulation's only OS thread
        futures = [
            group.add(Future(name=f"map.{method}.{i}", backend=self.backend))
            for i in range(len(payloads))
        ]

        def perform_pack(start: int, pieces: list[CallPiece], slot: Any) -> None:
            def produce() -> Any:
                return batched_entry(instance, method, self.weaver)(pieces)

            def deliver(results: Any) -> None:
                if results is None:  # oneway pack: no reply at all
                    results = [None] * len(pieces)
                for offset, result in enumerate(results):
                    if not futures[start + offset].resolved:
                        futures[start + offset].set_result(result)

            def fail(exc: Exception) -> None:
                for offset in range(len(pieces)):
                    if not futures[start + offset].resolved:
                        futures[start + offset].set_exception(exc)

            self._run_admitted(
                slot,
                method,
                produce,
                deliver,
                fail,
                detach=oneway and self.spec.middleware == "none",
            )

        for start in range(0, len(payloads), size):
            chunk = payloads[start : start + size]
            pieces = [
                CallPiece(index, payload) for index, payload in enumerate(chunk)
            ]
            # one admission unit per pack: blocking/failing/shedding
            # happens HERE, in the mapping caller, pack by pack — a
            # rejected pack fails its own futures and the map goes on,
            # keeping every handle in the returned group reachable
            try:
                slot = self._admit(
                    self._deadline(timeout), name=f"map.pack.{method}"
                )
            except AdmissionError as exc:
                for offset in range(len(chunk)):
                    futures[start + offset].set_exception(exc)
                continue
            for offset in range(len(chunk)):
                futures[start + offset].admission = slot  # type: ignore[attr-defined]
            try:
                self._dispatch(
                    lambda s=start, p=pieces, a=slot: perform_pack(s, p, a),
                    name=f"map.pack.{method}.{start}",
                )
            except BaseException:
                slot.release()  # the pack activity never started
                raise
        return group

    def call(self, *args: Any, **kwargs: Any) -> Any:
        """Synchronous convenience: ``submit(...).result()``."""
        return self.submit(*args, **kwargs).result()

    # -- fluent construction --------------------------------------------------

    @classmethod
    def of(cls, target: type) -> "AppBuilder":
        """Start a fluent builder: ``ParallelApp.of(X).work("f").build()``."""
        return AppBuilder(target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ParallelApp {self.composition.name} target={self.spec.target.__name__}>"


class AppBuilder:
    """Fluent accumulator producing a validated :class:`ParallelApp`.

    Every setter returns the builder; :meth:`build` validates the
    accumulated spec eagerly and assembles the app::

        app = (ParallelApp.of(MandelbrotRenderer)
               .work("render")
               .splitter(mandelbrot_splitter(4, 12))
               .strategy("farm")
               .backend("thread")
               .build())
    """

    def __init__(self, target: type):
        self._fields: dict[str, Any] = {"target": target}

    def _set(self, **values: Any) -> "AppBuilder":
        self._fields.update(values)
        return self

    def work(self, pointcut: str, method: str | None = None) -> "AppBuilder":
        """Name the work joinpoints (bare method name or pointcut)."""
        return self._set(work=pointcut, work_method=method)

    def creation(self, pointcut: str) -> "AppBuilder":
        """Name the construction joinpoint to duplicate."""
        return self._set(creation=pointcut)

    def splitter(self, splitter: Any) -> "AppBuilder":
        """Attach the application-supplied WorkSplitter."""
        return self._set(splitter=splitter)

    def strategy(self, name: str, **options: Any) -> "AppBuilder":
        """Choose the partition strategy (plus builder options)."""
        return self._set(strategy=name, strategy_options=options)

    def concurrency(self, enabled: bool = True) -> "AppBuilder":
        """Toggle the asynchronous-invocation module."""
        return self._set(concurrency=enabled)

    def middleware(self, name: str, cluster: Any = None, **options: Any) -> "AppBuilder":
        """Choose the distribution middleware (plus its cluster)."""
        values: dict[str, Any] = {"middleware": name, "middleware_options": options}
        if cluster is not None:
            values["cluster"] = cluster
        return self._set(**values)

    def cluster(self, cluster: Any) -> "AppBuilder":
        """Attach the simulated cluster."""
        return self._set(cluster=cluster)

    def placement(self, policy: Any) -> "AppBuilder":
        """Choose the servant placement policy."""
        return self._set(placement=policy)

    def backend(self, backend: Any) -> "AppBuilder":
        """Choose the execution backend (registry name or instance)."""
        return self._set(backend=backend)

    def oneway(self, *methods: str) -> "AppBuilder":
        """Declare fire-and-forget methods."""
        return self._set(oneway=tuple(methods))

    def cost(self, aspect: Any) -> "AppBuilder":
        """Attach a cost-instrumentation aspect (simulated runs)."""
        return self._set(cost=aspect)

    def optimise(self, *extras: Any) -> "AppBuilder":
        """Plug optimisation modules/aspects (innermost, in order)."""
        existing = self._fields.get("optimisations", ())
        return self._set(optimisations=tuple(existing) + extras)

    def admission(
        self, max_in_flight: int, overflow: str = "block"
    ) -> "AppBuilder":
        """Bound in-flight submissions and pick the overflow policy."""
        return self._set(max_in_flight=max_in_flight, overflow=overflow)

    def timeout(self, seconds: float) -> "AppBuilder":
        """Set the spec-level default per-call deadline."""
        return self._set(timeout=seconds)

    def retry(self, policy: Any) -> "AppBuilder":
        """Attach the per-call piece retry policy (a RetryPolicy)."""
        return self._set(retry=policy)

    def tenant(self, name: str, scheduler: Any) -> "AppBuilder":
        """Submit as ``name`` through a shared ClusterScheduler."""
        return self._set(tenant=name, scheduler=scheduler)

    def faults(self, schedule: Any) -> "AppBuilder":
        """Install a fault-injection schedule for the deployment (tests)."""
        return self._set(faults=schedule)

    def named(self, name: str) -> "AppBuilder":
        """Set the composition's display name."""
        return self._set(name=name)

    def weaver(self, weaver: Any) -> "AppBuilder":
        """Use a non-default weaver (isolated tests)."""
        return self._set(weaver=weaver)

    def spec(self) -> StackSpec:
        """The accumulated (validated) StackSpec."""
        return StackSpec(**self._fields).validate()

    def build(self) -> ParallelApp:
        """Validate eagerly and assemble the ParallelApp."""
        return ParallelApp(self.spec())
