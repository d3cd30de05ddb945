"""Delegated calls and in-place resumes in the simulator.

A call inside one layer runs as ``yield from`` in its caller's process;
a spawned child that finishes with one waiter resumes it in the same
step when that resume would be the next entry popped anyway.  These
tests pin where that is allowed, what it counts, and that errors,
hangs and interrupts behave as they did when every call was a process.
"""

from repro.experiments.scale import run_scale
from repro.httpmsg.message import Request
from repro.httpmsg.uri import Uri
from repro.metrics.perf import PERF
from repro.netsim.link import Link
from repro.netsim.sim import Delay, Simulator
from repro.netsim.transport import Endpoint, OriginMap
from repro.proxy.prefetcher import origin_fetch
from repro.server.content import Catalog
from repro.server.origin import OriginServer

ORIGIN = "https://api.test.com"


def test_child_finishing_beside_a_same_instant_entry_resumes_through_the_heap():
    def run(with_neighbour):
        sim = Simulator()
        log = []

        def child():
            yield Delay(1.0)
            log.append("child")
            return "value"

        def neighbour():
            yield Delay(1.0)
            log.append("neighbour")

        def parent():
            awaited = sim.spawn(child())
            if with_neighbour:
                # its wake-up is queued for the instant the child finishes
                sim.spawn(neighbour())
            log.append(("parent", (yield awaited), sim.now))

        with PERF.capture():
            sim.spawn(parent())
            sim.run()
            return log, PERF.get("sim.inline_resumes"), PERF.get("sim.events")

    log, resumes, events = run(with_neighbour=True)
    # the parent's resume waits behind the neighbour, as a heap entry would
    assert log == ["child", "neighbour", ("parent", "value", 1.0)]
    assert resumes == 0
    log, resumes, events_alone = run(with_neighbour=False)
    assert log == ["child", ("parent", "value", 1.0)]
    assert resumes == 1
    # parent start, child start and wake-up, the parent's resume (in place)
    assert events_alone == 4
    assert events == events_alone + 2


def _resume_chain(sim):
    """Three nested spawned processes, each finishing into its waiter."""

    def leaf(delay):
        yield Delay(delay)
        return delay

    def middle(delay):
        value = yield sim.spawn(leaf(delay))
        yield Delay(0.25)
        return value

    def root():
        total = 0.0
        for delay in (0.5, 0.25, 1.0):
            total += yield sim.spawn(middle(delay))
        return total

    sim.spawn(root())


def _resume_tally(drive):
    sim = Simulator()
    _resume_chain(sim)
    with PERF.capture():
        drive(sim)
        return (
            PERF.get("sim.events"),
            PERF.get("sim.inline_starts"),
            PERF.get("sim.inline_resumes"),
            sim.now,
        )


def test_inline_resume_tally_is_the_same_whole_or_in_slices():
    whole = _resume_tally(lambda sim: sim.run())

    def sliced(sim):
        # some boundaries fall exactly on a finishing child's instant
        for until in (0.25, 0.5, 0.6, 0.75, 1.0, 1.5, 1.75, 2.0, 2.75):
            sim.run(until=until)
        sim.run()

    assert _resume_tally(sliced) == whole
    # per middle: its inline start, the leaf's inline start and wake-up,
    # the middle's in-place resume, its sleep, the root's in-place
    # resume; plus the root's start
    assert whole == (1 + 3 * 6, 6, 6, 2.5)


def test_interrupt_inside_a_delegated_child_closes_both():
    sim = Simulator()
    log = []

    def child():
        try:
            yield Delay(1.0)
            log.append("child resumed")
        finally:
            log.append("child closed")

    def parent():
        try:
            yield from child()
            log.append("parent resumed")
        finally:
            log.append("parent closed")

    process = sim.spawn(parent())
    sim.run(until=0.5)
    assert log == []
    process.interrupt()
    sim.run()
    assert log == ["child closed", "parent closed"]
    assert not process.alive and not process.triggered


# -- the origin handler delegated inside origin_fetch ---------------------
def _origins(endpoint):
    origins = OriginMap()
    origins.register(ORIGIN, endpoint, Link(rtt=0.04))
    return origins


def _fetch_from(sim, origins):
    """Run ``origin_fetch`` as the proxy does; returns what the caller saw."""
    request = Request("GET", Uri.parse(ORIGIN + "/echo"))

    def caller():
        try:
            response, transferred = yield sim.spawn(
                origin_fetch(sim, origins, request, "u1")
            )
        except ValueError as error:
            return "raised", str(error), sim.now
        return response.status, transferred, sim.now

    return sim.run_process(caller())


def test_hang_route_504_reaches_the_caller_at_the_same_instant():
    sim = Simulator()
    server = OriginServer(sim, ORIGIN, Catalog())
    server.route("GET", "/echo", lambda s, r, u: s.json({}), service_time=0.01,
                 name="echo")
    server.hang("echo")
    status, transferred, at = _fetch_from(sim, _origins(server))
    assert status == 504
    # recorded when the origin handler ran as a process of its own
    assert (transferred, at) == (60, 30.0400192)


def test_error_in_a_delegated_origin_handler_reaches_the_caller_at_the_same_instant():
    class Exploding(Endpoint):
        def handle(self, request, user):
            yield Delay(0.05)
            raise ValueError("origin exploded")

    sim = Simulator()
    assert _fetch_from(sim, _origins(Exploding())) == (
        # recorded when the origin handler ran as a process of its own
        "raised", "origin exploded", 0.07000704,
    )


# -- processes per request ------------------------------------------------
def test_a_demand_request_runs_three_processes(monkeypatch):
    spawned = {}
    spawn = Simulator.spawn

    def counting_spawn(sim, generator):
        name = generator.__qualname__
        spawned[name] = spawned.get(name, 0) + 1
        return spawn(sim, generator)

    monkeypatch.setattr(Simulator, "spawn", counting_spawn)
    row = run_scale(users=10, duration=5.0, apps=("wish",), rate_per_user=1.0,
                    seed=0, strategy="none", warm_start=True)
    requests = row["requests"]
    assert requests > 0
    # the replay (client transport delegated inside it), the app proxy
    # the transport spawns, and the origin round trip the proxy spawns
    # (origin handler delegated inside it)
    for name in ("run_scale.<locals>.send_one", "AccelerationProxy.handle_request",
                 "origin_fetch"):
        assert spawned[name] == requests, name
    for name in ("MultiAppProxy.handle_request", "MultiAppTransport.send",
                 "OriginServer.handle"):
        assert name not in spawned
