"""The benchmark's three workloads, driven through public calls only.

Each workload builds its system in :meth:`setup` (timed as ``setup_s``:
from construction to the first converged, committed configuration),
then runs one loop iteration per :meth:`iteration`, returning the units
of work that iteration completed.  :meth:`drain` finishes outstanding
work and :meth:`check` returns the output-correctness failures.

* ``mobility`` — closed loop of daemon cycles: unit = one reaction.
* ``request_stream`` — open loop of seeded Poisson arrivals in virtual
  time (:mod:`openloop`): unit = one request.
* ``tdm_burst`` — closed loop of TIME-slotted admission bursts: unit =
  one burst.

Every workload keeps the control plane's defaults (fixed solve budgets,
thread evaluation with parallelism 1, lockstep solves as shipped).
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro import SurfOS, ghz
from repro.broker.broker import ServiceBroker
from repro.broker.calls import ServiceRequest, reset_request_counter
from repro.broker.handle import HandleStatus
from repro.broker.profiles import demand_for
from repro.channel.simulator import ChannelSimulator
from repro.core.errors import SurfOSError
from repro.geometry import Box, apartment_sites, two_room_apartment
from repro.geometry.materials import BRICK, CONCRETE, DRYWALL
from repro.geometry.vec import as_vec3
from repro.hwmgr import AccessPoint, ClientDevice
from repro.hwmgr.manager import HardwareManager
from repro.mobility import WaypointWalker
from repro.orchestrator import RandomSearch
from repro.orchestrator.multiplex import MultiplexStrategy
from repro.orchestrator.optimizers import Optimizer
from repro.orchestrator.orchestrator import SurfaceOrchestrator
from repro.orchestrator.scheduler import Scheduler
from repro.orchestrator.tasks import reset_task_counter
from repro.pipeline import AdaptiveCoalesceConfig, PipelineConfig, RequestPipeline
from repro.runtime.daemon import SurfOSDaemon
from repro.runtime.dynamics import EnvironmentDynamics, Walker
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel

from openloop import Arrival, OpenLoop


@dataclass
class Unit:
    """One completed unit of work."""

    latency_s: float
    snr_db: float
    satisfied: Optional[bool] = None


def _all_optimizer_classes() -> List[type]:
    out, todo = [], [Optimizer]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def trace_targets(on_reoptimize, on_tick):
    """``(class, method, span name, on_return)`` for every timed layer call."""
    targets = [
        (SurfOSDaemon, "step", "runtime.step", None),
        (SurfOSDaemon, "observe", "runtime.observe", None),
        (EnvironmentDynamics, "step", "runtime.dynamics", None),
        (ChannelSimulator, "build", "channel.build", None),
        (ChannelSimulator, "prefetch", "channel.prefetch", None),
        (SurfaceOrchestrator, "reoptimize", "orchestrator.reoptimize", on_reoptimize),
        (Scheduler, "admit", "orchestrator.admit", None),
        (Scheduler, "admit_batch", "orchestrator.admit", None),
        (RequestPipeline, "tick", "pipeline.tick", on_tick),
        (RequestPipeline, "submit_request", "pipeline.submit", None),
        (ServiceBroker, "serve", "broker.serve", None),
        (ServiceBroker, "stop_application", "broker.stop", None),
        (HardwareManager, "push_configuration", "hwmgr.push", None),
        (HardwareManager, "commit_all", "hwmgr.commit", None),
    ]
    for cls in _all_optimizer_classes():
        for method in ("optimize", "optimize_many"):
            if method in cls.__dict__:
                targets.append((cls, method, "orchestrator.solve", None))
    return targets


class Workload:
    """Shared plumbing: the system, its telemetry counters, teardown."""

    name = ""
    system: SurfOS

    def __init__(self, seed: int):
        self.seed = seed
        self.failures = 0

    def params(self) -> Dict[str, object]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def iteration(self) -> List[Unit]:
        raise NotImplementedError

    def drain(self) -> List[Unit]:
        return []

    def check(self) -> List[str]:
        return []

    def lags_s(self) -> List[float]:
        """How late each request was issued (open loops only)."""
        return []

    def close(self) -> None:
        if self.system.pipeline is not None:
            self.system.pipeline.close()

    def counters(self) -> Dict[str, float]:
        """Cumulative layer counters (the runner takes deltas)."""
        sim = self.system.orchestrator.simulator
        tel = self.system.telemetry
        leg_hits, legs_traced = sim.leg_cache_stats
        model_hits, model_misses = sim.cache_stats
        _, prefetch_hits, prefetch_wasted = sim.prefetch_stats
        pipeline = self.system.pipeline
        return {
            "leg_hits": leg_hits,
            "legs_traced": legs_traced,
            "model_hits": model_hits,
            "model_misses": model_misses,
            "prefetch_hits": prefetch_hits,
            "prefetch_wasted": prefetch_wasted,
            "evaluations": tel.get_counter("optimizer.objective_evaluations"),
            "push_failures": tel.get_counter("orchestrator.push_failures"),
            "rejections": tel.get_counter("broker.rejections"),
            "triggers": pipeline.stats.triggers if pipeline else 0,
            "reoptimizations": pipeline.stats.reoptimizations if pipeline else 0,
        }


# ----------------------------------------------------------------------
# mobility: closed loop of daemon cycles
# ----------------------------------------------------------------------


class Mobility(Workload):
    """Two waypoint clients and one obstacle walker on ``apartment``.

    Shaped like ``experiments.mobility``: the same loops and speeds
    (walker 0.9 m/s with 2 s dwells, clients 1.0 and 1.1 m/s).  The seed
    sets where on its loop each mover starts.  Each iteration prefetches the legs of the predicted next positions
    (off the reaction path), then runs one daemon cycle.  A cycle that
    fired a reaction is one unit; its latency is the wall time of
    ``daemon.step`` (trigger → commit → post-commit observe).
    """

    name = "mobility"
    DT_S = 0.25
    CLIENTS = 2
    CLIENT_SPEEDS_MPS = (1.0, 1.1)
    WALKER_SPEED_MPS = 0.9
    PANEL_SIZE = 12
    GRID_SPACING_M = 0.5
    SOLVE_ITERATIONS = 12
    LINK_SNR_DB = 20.0

    def params(self):
        return {
            "scene": "apartment",
            "clients": self.CLIENTS,
            "walkers": 1,
            "speeds_mps": {
                "walker": self.WALKER_SPEED_MPS,
                "clients": list(self.CLIENT_SPEEDS_MPS),
            },
            "prefetch": True,
            "dt_s": self.DT_S,
            "panel_size": self.PANEL_SIZE,
            "grid_spacing_m": self.GRID_SPACING_M,
            "solve_iterations": self.SOLVE_ITERATIONS,
            "coalescing": "adaptive",
            "loop": "closed",
        }

    def setup(self) -> None:
        reset_task_counter()
        reset_request_counter()
        system = SurfOS.from_scene(
            "apartment",
            panel_size=self.PANEL_SIZE,
            optimizer=RandomSearch(max_iterations=self.SOLVE_ITERATIONS, seed=0),
            grid_spacing_m=self.GRID_SPACING_M,
        )
        system.attach_pipeline(PipelineConfig(adaptive=AdaptiveCoalesceConfig()))
        scene = system.scene
        rng = np.random.default_rng(self.seed)

        def rotated(loop):
            k = int(rng.integers(len(loop)))
            return tuple(loop[k:]) + tuple(loop[:k])

        system.dynamics.add_walker(
            Walker(
                "walker-0",
                model=WaypointWalker(
                    rotated(scene.walker_loops[0]),
                    speed_mps=self.WALKER_SPEED_MPS,
                    pauses=2.0,
                ),
            )
        )
        for i in range(self.CLIENTS):
            loop = rotated(scene.client_loops[0])
            client = system.add_client(
                ClientDevice(f"mc{i}", tuple(map(float, loop[0])))
            )
            system.dynamics.attach_client(
                client,
                WaypointWalker(loop, speed_mps=self.CLIENT_SPEEDS_MPS[i]),
            )
        system.orchestrator.optimize_coverage(scene.observe_room)
        self.links = [
            system.orchestrator.enhance_link(f"mc{i}", snr=self.LINK_SNR_DB)
            for i in range(self.CLIENTS)
        ]
        system.orchestrator.reoptimize(now=0.0)
        self.system = system
        daemon = system.daemon
        self.step_medians: List[float] = []
        self._last_snrs = None

        # Keep the last observed SNR map of each cycle.  Dispatch goes
        # through the class so a traced run still times observe().
        def observe():
            self._last_snrs = type(daemon).observe(daemon)
            return self._last_snrs

        daemon.observe = observe

    def _predicted_points(self) -> Optional[np.ndarray]:
        # Same assembly order as reoptimize(): per-task point blocks in
        # active_contexts() order, clients at their peek(dt) positions.
        predictions = self.system.dynamics.peek_clients(self.DT_S)
        blocks = []
        for ctx in self.system.orchestrator.active_contexts():
            client_id = ctx.task.goal.get("client")
            if client_id in predictions:
                blocks.append(as_vec3(predictions[client_id])[None, :])
            else:
                blocks.append(ctx.points)
        return np.concatenate(blocks, axis=0) if blocks else None

    def iteration(self) -> List[Unit]:
        orchestrator = self.system.orchestrator
        predicted = self._predicted_points()
        if predicted is not None:
            orchestrator.simulator.prefetch(
                orchestrator.ap.node(), predicted, orchestrator.hardware.panels()
            )
        daemon = self.system.daemon
        failures_before = daemon.reoptimize_failures
        started = time.perf_counter()
        record = daemon.step(self.DT_S)
        elapsed = time.perf_counter() - started
        self.failures += daemon.reoptimize_failures - failures_before
        self.step_medians.append(float(np.median(self._last_snrs)))
        if record is None:
            return []
        # Quality users feel: the moving clients' committed link SNR.
        snr = float(np.mean([t.metrics["median_snr_db"] for t in self.links]))
        return [Unit(latency_s=elapsed, snr_db=snr)]

    def snr_digest(self) -> str:
        return hashlib.sha1(
            np.asarray(self.step_medians, dtype=float).tobytes()
        ).hexdigest()

    def check(self) -> List[str]:
        if self.system.daemon.reoptimize_failures:
            return [f"{self.system.daemon.reoptimize_failures} reoptimize failures"]
        return []


# ----------------------------------------------------------------------
# request_stream: open loop in virtual time
# ----------------------------------------------------------------------

#: Application mix (``broker.profiles`` name -> share of the requests).
#: The applications of the arrivals experiment's cycle (video streaming,
#: online meeting, file transfer) plus the security and powering
#: profiles, in equal shares.  Sensing profiles are left out: one held
#: sensing task makes every joint solve about five times slower, and
#: with one in twenty requests the p50 latency of runs on different
#: seeds spread by 20-30%.
REQUEST_MIX = {
    "video_streaming": 1,
    "online_meeting": 1,
    "file_transfer": 1,
    "secure_banking": 1,
    "wireless_charging": 1,
}


class RequestStream(Workload):
    """Seeded Poisson arrivals of profile requests over static clients.

    The rate is fixed at about a third of the ~18 requests per busy
    second measured on a 2-vCPU host; at half (8 req/s) the p95 latency
    of runs on different seeds spread by 15%.  Each request holds its
    service for a seeded 0.5-1 s and is then stopped.  The hold is a
    chosen value, not a measured one: by Little's law it keeps about
    4.5 requests active on average, where the repository's churn
    lifetimes (8-20 s) would put 50 or more tasks into every joint
    solve.  A request is never assigned an ``app@client`` key that is
    still held.  The client pool is a fixed 4x4 lattice over the
    bedroom, so the seed changes the request stream, not where the
    clients stand.
    """

    name = "request_stream"
    RATE_HZ = 6.0
    HOLD_S = (0.5, 1.0)
    LATTICE = 4
    ROOM = "bedroom"
    SOLVE_ITERATIONS = 8

    def params(self):
        return {
            "scene": "apartment",
            "rate_hz": self.RATE_HZ,
            "hold_s": list(self.HOLD_S),
            "clients": self.LATTICE ** 2,
            "mix": dict(REQUEST_MIX),
            "panel_size": 8,
            "solve_iterations": self.SOLVE_ITERATIONS,
            "coalescing": "adaptive",
            "loop": "open, virtual time",
        }

    def setup(self) -> None:
        reset_task_counter()
        reset_request_counter()
        system = SurfOS.from_scene(
            "apartment",
            panel_size=8,
            optimizer=RandomSearch(max_iterations=self.SOLVE_ITERATIONS, seed=0),
            grid_spacing_m=1.0,
        )
        system.attach_pipeline(PipelineConfig(adaptive=AdaptiveCoalesceConfig()))
        lo, hi = system.scene.spawn_lo, system.scene.spawn_hi
        self.clients = []
        for i, x in enumerate(np.linspace(lo[0] + 0.3, hi[0] - 0.3, self.LATTICE)):
            for j, y in enumerate(np.linspace(lo[1] + 0.2, hi[1] - 0.2, self.LATTICE)):
                client_id = f"u{i}{j}"
                system.add_client(ClientDevice(client_id, (float(x), float(y), lo[2])))
                self.clients.append(client_id)
        # A standing coverage service: the first committed configuration.
        system.orchestrator.optimize_coverage(self.ROOM)
        system.orchestrator.reoptimize(now=0.0)
        self.system = system
        self.handles: List[object] = []
        self.served = 0
        self.cancelled: List[object] = []
        self._outstanding: List[object] = []
        self.loop = OpenLoop(self, self.arrivals())

    def arrivals(self) -> Iterator[Arrival]:
        """The seeded request schedule, in blocks of every pair once.

        A block holds each (profile, client) pair of ``REQUEST_MIX`` and
        the client pool ``REQUEST_MIX[app]`` times, in seeded order, and
        spans ``len(block) / RATE_HZ`` seconds: its arrival instants are
        sorted uniform draws over the span (a Poisson process
        conditioned on its count).  Where a client stands sets its link
        SNR far more than anything else does, so every block gives each
        client the same requests and a run's mean SNR does not hang on
        which clients the seed happened to favour.  A pair whose
        ``app@client`` key is still held gives way to the next free pair
        of the block; pairs a block could not place open the next one.
        """
        rng = np.random.default_rng(self.seed)
        pairs = [
            (app, client)
            for app, count in REQUEST_MIX.items()
            for client in self.clients
            for _ in range(count)
        ]
        span = len(pairs) / self.RATE_HZ
        busy_until: Dict[str, float] = {}
        pending: List[tuple] = []
        index = 0
        for block in itertools.count():
            dues = block * span + np.sort(rng.uniform(0.0, span, len(pairs)))
            pending += [pairs[i] for i in rng.permutation(len(pairs))]
            for due in dues.tolist():
                hold = float(rng.uniform(*self.HOLD_S))
                free = next(
                    (k for k, (app, client) in enumerate(pending)
                     if busy_until.get(f"{app}@{client}", -1.0) < due),
                    None,
                )
                if free is None:
                    continue  # every pending pair is still held: skip
                app, client = pending.pop(free)
                busy_until[f"{app}@{client}"] = due + hold
                yield Arrival(index, due, hold, (app, client))
                index += 1

    # -- the openloop.Target protocol ------------------------------------

    def _sync(self, now: float) -> None:
        clock = self.system.daemon.clock
        if now > clock.now:
            clock.advance(now - clock.now)

    def issue(self, arrival, now):
        self._sync(now)
        app, client = arrival.payload
        request = ServiceRequest(
            demand=demand_for(app, client, self.ROOM), submitted_at=arrival.due
        )
        handle = self.system.pipeline.submit_request(request).handle
        self.handles.append(handle)
        self._outstanding.append(handle)
        return handle

    def tick(self, now):
        self._sync(now)
        self.system.pipeline.tick(now)
        served = [h for h in self._outstanding if h.served_at is not None]
        self._outstanding = [
            h
            for h in self._outstanding
            if h.served_at is None
            and h.status not in (HandleStatus.FAILED, HandleStatus.REJECTED)
        ]
        return served

    def stop(self, token, now):
        self._sync(now)
        if token.served_at is None:
            self.cancelled.append(token)
            if token in self._outstanding:
                self._outstanding.remove(token)
        token.stop()

    def next_deadline(self, now):
        return self.system.pipeline.next_deadline(now)

    # ---------------------------------------------------------------------

    def _units(self, completions) -> List[Unit]:
        units = []
        for done in completions:
            self.served += 1
            report = self.system.broker.satisfaction(done.token)
            verdicts = [
                bool(v)
                for k, v in report.items()
                if k.endswith("_satisfied") or k == "sensing_active"
            ]
            units.append(
                Unit(
                    latency_s=done.latency_s,
                    snr_db=report.get("achieved_snr_db", float("nan")),
                    satisfied=all(verdicts),
                )
            )
        return units

    def iteration(self) -> List[Unit]:
        completions = self.loop.step()
        if completions is None:
            raise RuntimeError("open loop ran dry before the generator stopped")
        return self._units(completions)

    def drain(self) -> List[Unit]:
        self.loop.stop_generating()
        units = []
        while True:
            completions = self.loop.step()
            if completions is None:
                return units
            units.extend(self._units(completions))

    def lags_s(self) -> List[float]:
        return self.loop.lags_s()

    def check(self) -> List[str]:
        """Request conservation and terminal handles, once drained.

        The pipeline's own counters must account for every request the
        open loop issued: ``attempted == served + rejected + failed +
        cancelled``, where failed counts admission failures and
        requests left unserved at drain.
        """
        stats = self.system.pipeline.stats
        unserved = sum(
            1
            for h in self.handles
            if h.served_at is None
            and h not in self.cancelled
            and h.status not in (HandleStatus.REJECTED, HandleStatus.FAILED)
        )
        self.failures = stats.admission_failures + stats.reoptimize_failures + unserved
        served = len(stats.latencies)
        accounted = (
            served + stats.rejected + stats.admission_failures
            + len(self.cancelled) + unserved
        )
        errors = []
        if len(self.handles) != accounted:
            errors.append(
                f"conservation: attempted {len(self.handles)} != served {served}"
                f" + rejected {stats.rejected} + failed "
                f"{stats.admission_failures + unserved} + cancelled "
                f"{len(self.cancelled)}"
            )
        if self.served != served:
            errors.append(f"open loop saw {self.served} served, pipeline {served}")
        terminal = (
            HandleStatus.STOPPED,
            HandleStatus.COMPLETED,
            HandleStatus.FAILED,
            HandleStatus.REJECTED,
        )
        still_open = sum(1 for h in self.handles if h.status not in terminal)
        if still_open:
            errors.append(f"{still_open} handles not terminal at drain")
        return errors


# ----------------------------------------------------------------------
# tdm_burst: closed loop of TIME-slotted admission bursts
# ----------------------------------------------------------------------

def cluttered_apartment():
    """The two-room apartment with 56 partitions and 40 desks.

    Same layout as the multi-task kernels bench, but partitions stop at
    1.1 m and desks at 1.0 m: every leg is still tested against all 96
    obstacles, while links to hand-held clients at 1.3 m stay open
    (floor-to-ceiling partitions block every link to the -40 dB floor).
    """
    env = two_room_apartment()
    rng = np.random.default_rng(5)
    mats = [DRYWALL, CONCRETE, BRICK]
    for i in range(56):
        p = rng.uniform((0.5, 0.5), (9.0, 3.5))
        d = rng.uniform(-1.5, 1.5, 2)
        env.add_wall_2d(p, p + d, mats[i % 3], name=f"partition-{i}", z_max=1.1)
    for i in range(40):
        lo = np.array([rng.uniform(0.5, 8.5), rng.uniform(0.5, 3.2), 0.0])
        size = np.array(
            [rng.uniform(0.4, 1.2), rng.uniform(0.4, 1.2), rng.uniform(0.4, 1.0)]
        )
        env.add_box(Box(lo=lo, hi=lo + size, material=mats[i % 3], name=f"desk-{i}"))
    return env


class TdmBurst(Workload):
    """Bursts of fresh clients, one TIME-slotted link task each.

    Per burst: register N clients at seeded positions, admit their
    ``enhance_link`` tasks in one ``batch_admission()``, run one
    ``reoptimize`` (one codebook push per slot per panel, then commit),
    then complete every task and unregister the clients.  The unit's
    latency runs from the first admission call to ``reoptimize``
    returning.
    """

    name = "tdm_burst"
    CLIENTS_PER_BURST = 4
    TIME_FRACTION = 0.08
    CLIENT_Z = 1.3

    def params(self):
        return {
            "scene": "cluttered-apartment (56 partitions, 40 desks)",
            "panel": "16x16",
            "clients_per_burst": self.CLIENTS_PER_BURST,
            "time_fraction": self.TIME_FRACTION,
            "solve_iterations": 20,
            "population": 16,
            "loop": "closed",
        }

    def setup(self) -> None:
        reset_task_counter()
        reset_request_counter()
        sites = apartment_sites()
        freq = ghz(28)
        system = SurfOS(
            cluttered_apartment(),
            frequency_hz=freq,
            optimizer=RandomSearch(max_iterations=20, population=16, seed=0),
            grid_spacing_m=1.0,
        )
        system.add_access_point(
            AccessPoint("ap", sites.ap_position, 4, freq, boresight=(1, 0.3, 0))
        )
        system.add_surface(
            SurfacePanel(
                "s1",
                GENERIC_PROGRAMMABLE_28,
                16,
                16,
                sites.single_surface_center,
                sites.single_surface_normal,
            )
        )
        system.boot()
        self.system = system
        self.rng = np.random.default_rng(self.seed)
        self.bursts = 0
        self.errors: List[str] = []
        # First committed configuration: one slotted task, then released.
        self._burst(1)

    def _burst(self, count: int) -> Unit:
        system, orchestrator = self.system, self.system.orchestrator
        ids = [f"b{self.bursts}-c{i}" for i in range(count)]
        for client_id in ids:
            x = float(self.rng.uniform(5.2, 8.0))
            y = float(self.rng.uniform(0.8, 3.4))
            system.add_client(ClientDevice(client_id, (x, y, self.CLIENT_Z)))
        push_failures = system.telemetry.get_counter("orchestrator.push_failures")
        started = time.perf_counter()
        with orchestrator.batch_admission() as admission:
            tasks = [
                orchestrator.enhance_link(
                    client_id,
                    strategy=MultiplexStrategy.TIME,
                    time_fraction=self.TIME_FRACTION,
                )
                for client_id in ids
            ]
        try:
            orchestrator.reoptimize(now=float(self.bursts + 1))
        except SurfOSError as exc:
            self.failures += 1
            self.errors.append(f"burst {self.bursts}: {exc}")
        latency = time.perf_counter() - started
        self.failures += sum(1 for r in admission.outcomes.values() if r is not None)
        self.failures += int(
            system.telemetry.get_counter("orchestrator.push_failures") - push_failures
        )
        for panel in system.hardware.panels():
            stored = set(system.hardware.driver(panel.panel_id).stored_configurations())
            missing = [t.task_id for t in tasks if f"task-{t.task_id}" not in stored]
            if missing:
                self.errors.append(
                    f"burst {self.bursts}: no committed slot on {panel.panel_id} "
                    f"for {missing}"
                )
        snrs = [t.metrics.get("median_snr_db", float("nan")) for t in tasks]
        for task in tasks:
            orchestrator.complete_task(task.task_id)
        for client_id in ids:
            system.hardware.unregister_client(client_id)
        completed = {f"task-{t.task_id}" for t in tasks}
        for panel in system.hardware.panels():
            stored = system.hardware.driver(panel.panel_id).stored_configurations()
            stale = sorted(completed.intersection(stored))
            if stale:
                self.errors.append(
                    f"burst {self.bursts}: completed tasks keep codebook entries "
                    f"{stale} on {panel.panel_id}"
                )
        if orchestrator.active_contexts():
            self.errors.append(f"burst {self.bursts}: active contexts remain")
        held = orchestrator.scheduler.allocator.tasks_with_allocations()
        if held:
            self.errors.append(f"burst {self.bursts}: slices still held by {held}")
        self.bursts += 1
        return Unit(latency_s=latency, snr_db=float(np.mean(snrs)))

    def iteration(self) -> List[Unit]:
        return [self._burst(self.CLIENTS_PER_BURST)]

    def check(self) -> List[str]:
        return list(self.errors)


WORKLOADS = {w.name: w for w in (Mobility, RequestStream, TdmBurst)}
