"""Workload ``fleet_http``: the real ``invarnetx serve`` under open-loop load.

The server runs in a child process with its defaults (observability on,
blackbox on, 8 shards, ingest pool, SLO thread) over a ``DirectoryStore``
registry trained with AIC order selection.  Three tpcds contexts are
trained from fixed runs (the same on every seed): at the time of
writing AIC picks (1,0,0) for slave-1 and slave-2 and (1,0,1) for
slave-3, and the 48 lanes clone them in equal thirds, so about a third
of the lanes run the ``predict_next`` fallback, as in the census of
trained contexts (8 of 25 had q>0).  The share follows whatever the
program selects, and the traced run reports it.

Set-up (``setup_s``): simulating the inputs and training the registry
(repeated, the median counts), then the server start and a closed-loop
warm-up that feeds every lane past the 600-tick CPI history bound in
large batches, so the timed phase sees the steady-state cost of the
q>0 fallback.

Timed phase, one process, two keep-alive HTTP/1.1 connections (one per
thread, 24 lanes each).  A request carries one sample of each lane of
its connection: the paper's collectl samples every 10 s, and a
collector forwards an interval's samples once.  The replay compresses
time 80-fold (``MAIN_HZ`` = 8 samples per lane per second), so 48 lanes
offer the load of 3840 contexts at the 10 s interval.  Collectors hold
persistent connections, so the server's keep-alive latency floor shows
wherever a request follows a reply at once, as every explain does.

1. incident phase: an open loop of ``INCIDENT_TICKS`` samples per lane.
   A quarter of the lanes get a fault spliced in at fixed, staggered
   ticks; after each reply that carries a diagnosis the client fetches
   ``GET /explain/<ctx>`` on the same connection.  It gives
   ``diagnosis_ms_p50``, ``explain_ms_p50`` and ``top1_accuracy``.
2. steady phase: the open loop goes on, fault-free, for ``--seconds``
   (at least ``STEADY_TICKS`` samples per lane).  Each request is timed
   from when it was due; these give ``op_ms_p50`` and, in the table,
   ``ingest_ms_p95``.  Incidents are kept out of them: a diagnosis costs
   the server a MIC sweep and an incident bundle written to disk, and on
   a contended host that cost varied so much that the requests queued
   behind it moved the median and p95 of the whole phase from run to
   run.  The tail is printed but not bounded: competing load on the host
   stretches it more than the host-speed samples show: in three sets of
   ten runs the normalised p95 spread 21-26% between its quartiles and
   p90 10-20%, against 2-3% for the median.
3. saturation: both connections send ten-sample batches closed-loop, in
   half-second bursts.  A burst's rate is the sum over the connections
   of the context-ticks each had answered over the time it was busy; the
   median burst rate is the service's capacity (``throughput_per_s``).
4. ladder: fault-free rungs of rising offered rate.  A rung is sustained
   when 99% of its requests finish under the SLO limit (0.5 s, the
   service's ``default_objectives()``) and the generator's lateness does
   not grow; the climb stops at the first rung that is not.  The last
   sustained rung gives ``sustained_ticks_per_s``.

Host-speed samples (common.HostSpeed) are taken only while no request
is in flight, so the server's own load never reads as host slowness.

The seed picks the fault runs, which fault goes to which lane, and each
lane's offset into the normal stream.  The normal stream and the
training runs are fixed; if the program flags anything on a healthy
lane, the run fails its check.
"""

from __future__ import annotations

import http.client
import json
import math
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

from common import (
    EXPECTED,
    LATENCY_LIMIT_S,
    ROOT,
    BenchmarkError,
    Report,
    emit_layers,
    median,
    pid_peak_rss_mb,
    pingpong,
    quantile,
    remove_work_dir,
    work_dir,
)

LANES = 48
#: Trained contexts; lane ``i`` clones ``SOURCES[i % 3]``.
SOURCES = ("slave-1", "slave-2", "slave-3")
#: Seeds of the fixed training runs and of the long normal run.
TRAIN_SEED = 3_000_010
STREAM_SEED = 3_500_000
N_NORMAL = 3
#: Signature faults trained per source.  Each is detected on every seed
#: and node, and each diagnosis runs a full MIC sweep (a Suspend window
#: is flat, which makes its sweep nearly free and the incident latencies
#: bimodal).
FAULTS = ("Mem-hog", "Overload", "H-9703")
#: Faults spliced into lanes: the ones the detector flags a fixed number
#: of ticks after onset, so that diagnoses stay ``ONSET_SPACING`` ticks
#: apart and do not queue behind each other (H-9703's lag varies by 15
#: ticks from run to run).
SPLICED = ("Mem-hog", "Overload")
FAULT_START, FAULT_TICKS, LEAD = 30, 30, 5
#: Fault-run ticks spliced into a lane: lead-in, the fault, a short tail.
SEGMENT = (FAULT_START - LEAD, FAULT_START + FAULT_TICKS + 5)
STREAM_TICKS = 600
#: Warm-up ticks per lane, past OnlineMonitor's 600-tick CPI history.
WARM_TICKS = 620
WARM_CHUNK = 20
#: Open-loop rate: samples per lane per second (10 s interval / 80).
MAIN_HZ = 8.0
#: Incident-phase samples per lane (two requests each, one per
#: connection): the last fault is diagnosed 32 ticks after its onset, at
#: tick 112.
INCIDENT_TICKS = 120
#: Least steady-phase samples per lane: 256 requests, so that p90 has 26
#: samples beyond it and p95 13.
STEADY_TICKS = 128
#: Ticks from the start of the incident phase to the first fault onset,
#: and between two onsets (875 ms): a diagnosis costs the server a MIC
#: sweep, a bundle commit and an explain, about 200-300 ms on a busy
#: host, and the spacing keeps them from queueing behind each other into
#: replies over the latency limit (at 625 ms apart, bursts of competing
#: load pushed some past it).
ONSET_LEAD, ONSET_SPACING = 3, 7
#: Offline set-up parts (simulate + train) per run; the median counts.
SETUP_REPEATS = 3
#: Offered rates of the ladder, samples per lane per second.
LADDER_HZ = tuple(7.5 * 1.5 ** k for k in range(7))
RUNG_S = 1.5
#: Closed-loop saturation phase: samples per lane in one request, and
#: its bursts (a host-speed sample follows each).
SATURATION_TICKS = 10
SATURATION_BURSTS, SATURATION_BURST_S = 16, 0.5
#: A rung whose lateness grows by more than this is not sustained.
LATENESS_GROWTH_S = 0.05
#: A reply this late ends a rung early: it has already failed.
ABORT_S = 1.0
CONNECTIONS = 2
#: Idle time before a send that leaves room for a host-speed sample
#: (about 10-15 ms, common.CALIBRATION_CALLS).
PROBE_SLACK_S = 0.05
START_TIMEOUT_S = 90.0


def conn_of(lane: int) -> int:
    """The connection that carries a lane (half the lanes each)."""
    return lane * CONNECTIONS // LANES


def faulty_lanes() -> list[int]:
    """A quarter of the lanes: a third on each source, half on each
    connection."""
    return [i for i in range(LANES) if i % 4 == 1]


class Inputs:
    """Everything the workload sends, deterministic in the seed."""

    def __init__(self, seed: int):
        from repro.cluster import HadoopCluster
        from repro.core import OperationContext
        from repro.faults import FaultSpec, build_fault

        self.cluster = cluster = HadoopCluster()
        rng = np.random.default_rng(seed)
        base = 3_000_000 + 10_000 * seed
        self.normals = [
            cluster.run("tpcds", seed=TRAIN_SEED + i) for i in range(N_NORMAL)
        ]
        self.sources = [
            OperationContext("tpcds", n, cluster.ip_of(n)) for n in SOURCES
        ]
        self.signature_runs = {
            (s, fault): cluster.run(
                "tpcds",
                faults=[build_fault(fault, FaultSpec(node, FAULT_START,
                                                      FAULT_TICKS))],
                seed=TRAIN_SEED + 200 + 10 * s + f,
                observation_ticks=SEGMENT[1],
            )
            for s, node in enumerate(SOURCES)
            for f, fault in enumerate(FAULTS)
        }
        stream = cluster.run("tpcds", seed=STREAM_SEED,
                             observation_ticks=STREAM_TICKS)
        self.streams = [
            (stream.node(n).metrics.tolist(), stream.node(n).cpi.tolist())
            for n in SOURCES
        ]
        self.offsets = rng.integers(0, 2 * STREAM_TICKS - 2, LANES).tolist()
        self.contexts = [
            OperationContext("tpcds", f"lane-{i:02d}") for i in range(LANES)
        ]
        # lane -> (fault, onset tick, metric rows, cpi)
        self.segments = {}
        onset = WARM_TICKS + ONSET_LEAD
        for k, lane in enumerate(rng.permutation(faulty_lanes()).tolist()):
            fault = SPLICED[k % len(SPLICED)]
            node = SOURCES[lane % len(SOURCES)]
            run = cluster.run(
                "tpcds",
                faults=[build_fault(fault, FaultSpec(node, FAULT_START,
                                                      FAULT_TICKS))],
                seed=base + 1000 + k,
                observation_ticks=SEGMENT[1],
            )
            lo, hi = SEGMENT
            self.segments[lane] = (
                fault, onset + k * ONSET_SPACING,
                run.node(node).metrics[lo:hi].tolist(),
                run.node(node).cpi[lo:hi].tolist(),
            )

    def tick_json(self, lane: int, t: int) -> dict:
        segment = self.segments.get(lane)
        k = t - segment[1] if segment is not None else -1
        if 0 <= k < len(segment[3]):
            metrics, cpi = segment[2][k], segment[3][k]
        else:
            rows, cpis = self.streams[lane % len(SOURCES)]
            idx = pingpong(self.offsets[lane] + t, STREAM_TICKS)
            metrics, cpi = rows[idx], cpis[idx]
        ctx = self.contexts[lane]
        return {"workload": ctx.workload, "node": ctx.node_id,
                "metrics": metrics, "cpi": cpi}

    def body(self, lanes: list[int], ticks: range) -> bytes:
        return json.dumps({"ticks": [
            self.tick_json(lane, t) for t in ticks for lane in lanes
        ]}).encode("utf-8")


def build_registry(inputs: Inputs, root: Path) -> list[tuple]:
    """Train the sources into a DirectoryStore and clone the lanes;
    returns the sources' AIC-selected (p, d, q) orders."""
    from repro.core import InvarNetX
    from repro.store import ContextModels, DirectoryStore

    store = DirectoryStore(root)
    pipe = InvarNetX(store=store)
    for s, ctx in enumerate(inputs.sources):
        pipe.train_from_runs(ctx, inputs.normals)
        for fault in FAULTS:
            pipe.train_signature_from_run(
                ctx, fault, inputs.signature_runs[(s, fault)])
    models = [pipe.context_models(ctx) for ctx in inputs.sources]
    for lane, ctx in enumerate(inputs.contexts):
        src = models[lane % len(SOURCES)]
        store.adopt(ctx.key(), ContextModels(
            context=ctx, detector=src.detector, invariants=src.invariants,
            database=src.database,
        ))
        store.persist(ctx.key())
    return [tuple(m.detector.model.order) for m in models]


class Server:
    """The ``invarnetx serve`` child process."""

    def __init__(self, work: Path, registry: Path, trace: bool) -> None:
        self.trace_out = work / "trace.json" if trace else None
        self.mark = work / "setup.mark"
        self.log = work / "serve.log"
        cmd = [sys.executable, str(ROOT / "perfbench" / "serve_child.py")]
        if trace:
            cmd += ["--trace-out", str(self.trace_out),
                    "--mark", str(self.mark)]
        cmd += ["--", "serve", str(registry), "--port", "0"]
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        self.port = self._wait_port()

    def _wait_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.log.read_text(errors="replace").splitlines():
                if line.startswith("serving ") and "http://" in line:
                    return int(line.split("http://")[1].split()[0]
                               .rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.05)
        self.proc.kill()
        self.proc.wait()
        raise BenchmarkError("server did not start:\n" + self.log.read_text(
            errors="replace")[-2000:])

    def close_setup(self) -> None:
        """Traced runs: let the child snapshot its set-up counters."""
        if self.trace_out is None:
            return
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not self.mark.exists():
            if time.monotonic() > deadline:
                raise BenchmarkError("server did not mark the set-up end")
            time.sleep(0.01)

    def stop(self) -> dict | None:
        """SIGINT (the CLI's clean shutdown), wait, return trace phases."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.trace_out is not None and self.trace_out.exists():
            return json.loads(self.trace_out.read_text(encoding="utf-8"))
        return None


class _NoDelayConnection(http.client.HTTPConnection):
    """An HTTP/1.1 client socket with TCP_NODELAY, as curl and most
    collectors set it: ``http.client`` sends a body over 2000 bytes in a
    second write, which Nagle would otherwise hold for the server's
    delayed ACK, adding a floor of the generator's own to every request."""

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class Client:
    """One keep-alive connection and what it measured."""

    def __init__(self, port: int, index: int) -> None:
        self.conn = _NoDelayConnection("127.0.0.1", port, timeout=30)
        self.index = index
        self.seq = 0
        #: a request of this connection is in flight
        self.busy = False

    def call(self, method: str, path: str, body: bytes | None = None):
        """One request; returns (status, payload bytes, round trip s, rid)."""
        self.seq += 1
        rid = f"bench-{self.index}-{self.seq}"
        headers = {"X-Request-Id": rid}
        if body is not None:
            headers["Content-Type"] = "application/json"
        self.busy = True
        try:
            t0 = time.perf_counter()
            self.conn.request(method, path, body=body, headers=headers)
            resp = self.conn.getresponse()
            data = resp.read()
            return resp.status, data, time.perf_counter() - t0, rid
        finally:
            self.busy = False

    def close(self) -> None:
        self.conn.close()


class Phase:
    """Open-loop results of one connection over one phase."""

    def __init__(self) -> None:
        self.latency: list[float] = []
        self.due: list[float] = []
        self.lateness: list[float] = []
        self.rtt_by_rid: dict[str, float] = {}
        self.errors: list[str] = []
        self.sent = 0
        self.answered = 0
        self.ticks_answered = 0
        self.last_done = 0.0
        #: (context, cause, latency from due, tick) per diagnosis
        self.diagnoses: list[tuple[str, str | None, float, int]] = []
        self.alarms: list[str] = []
        self.explain: list[float] = []
        self.explain_rtt_by_rid: dict[str, float] = {}
        self.explain_errors = 0


def drive(client: Client, schedule, lanes_per_request: int, phase: Phase,
          explain: bool, stop: threading.Event, probe=None,
          abort_s: float | None = None) -> None:
    """Send ``schedule`` [(due, body)] open-loop on one connection;
    ``probe`` (host-speed sampling) runs in the idle time before a send;
    a reply later than ``abort_s`` stops the phase."""
    for due, body in schedule:
        if stop.is_set():
            return
        if probe is not None and due - time.perf_counter() > PROBE_SLACK_S:
            probe()
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent_at = time.perf_counter()
        phase.lateness.append(sent_at - due)
        phase.sent += 1
        try:
            status, data, rtt, rid = client.call("POST", "/ingest", body)
            reply = json.loads(data)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            phase.errors.append(f"POST /ingest: {exc!r}")
            stop.set()
            return
        done = time.perf_counter()
        phase.last_done = done
        phase.answered += 1
        latency = done - due
        phase.latency.append(latency)
        phase.due.append(due)
        phase.rtt_by_rid[rid] = rtt
        if status != 200:
            phase.errors.append(f"POST /ingest status {status}")
            continue
        ticks = lanes_per_request
        if (reply.get("accepted") != ticks or reply.get("rejected")
                or reply.get("malformed")):
            phase.errors.append(f"POST /ingest counts {reply!r:.200}")
            continue
        phase.ticks_answered += ticks
        for event in reply.get("events", []):
            if event.get("type") == "alarm":
                phase.alarms.append(event["context"])
                continue
            phase.diagnoses.append(
                (event["context"], event.get("cause"), latency,
                 event["tick"]))
            if explain:
                try:
                    status, _, rtt, rid = client.call(
                        "GET", f"/explain/{event['context']}")
                except (OSError, http.client.HTTPException) as exc:
                    phase.errors.append(f"GET /explain: {exc!r}")
                    stop.set()
                    return
                phase.explain.append(rtt)
                phase.explain_rtt_by_rid[rid] = rtt
                if status != 200:
                    phase.explain_errors += 1
        if abort_s is not None and latency > abort_s:
            stop.set()  # an overloaded ladder rung: it has failed
            return


def saturate(client: Client, next_body, ticks_per_request: int,
             deadline: float, phase: Phase, stop: threading.Event) -> None:
    """Closed loop on one connection: the next batch as soon as the last
    one is answered, until ``deadline``."""
    while time.perf_counter() < deadline and not stop.is_set():
        phase.sent += 1
        try:
            status, data, _, _ = client.call("POST", "/ingest", next_body())
            reply = json.loads(data)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            phase.errors.append(f"POST /ingest: {exc!r}")
            stop.set()
            return
        phase.last_done = time.perf_counter()
        phase.answered += 1
        if (status != 200 or reply.get("accepted") != ticks_per_request
                or reply.get("rejected") or reply.get("malformed")
                or reply.get("events")):
            phase.errors.append(f"saturation reply {status} {data[:200]!r}")
            continue
        phase.ticks_answered += ticks_per_request


def on_connections(fn, per_connection: list[tuple]) -> None:
    """``fn(*args)`` for connection 1 on a worker thread and for
    connection 0 on this one: the load never uses more than two threads."""
    worker = threading.Thread(
        target=fn, args=per_connection[1], name="perfbench-conn-1")
    worker.start()
    try:
        fn(*per_connection[0])
    finally:
        worker.join()


def run_phase(clients, schedules, lanes_per_request, explain, probe,
              abort_s=None):
    """Drive every connection open-loop through its schedule; connection
    0, on this thread, also samples the host speed."""
    phases = [Phase() for _ in clients]
    stop = threading.Event()
    on_connections(drive, [
        (clients[c], schedules[c], lanes_per_request, phases[c], explain,
         stop, probe if c == 0 else None, abort_s)
        for c in range(CONNECTIONS)
    ])
    return phases


def open_loop_schedule(start: float, rate: float, bodies: list[bytes],
                       conn: int) -> list:
    """Due times for ``bodies`` at ``rate`` requests per second, the
    connections interleaved evenly."""
    offset = conn / (CONNECTIONS * rate)
    return [(start + offset + k / rate, body) for k, body in enumerate(bodies)]


def run(seed: int, seconds: float, trace: bool) -> None:
    from repro.stats.micfast import clear_association_cache

    report = Report("fleet_http")
    host = report.host
    n_steady = max(STEADY_TICKS, math.ceil(MAIN_HZ * seconds))
    work = work_dir("fleet_http")
    server = None
    clients: list[Client] = []
    try:
        # -- set-up: the offline part (simulate, train) several times ---
        offline = []
        for k in range(SETUP_REPEATS):
            clear_association_cache()  # each repetition trains cold
            t0 = time.perf_counter()
            inputs = Inputs(seed)
            registry = work / f"registry-{k}"
            orders = build_registry(inputs, registry)
            offline.append(time.perf_counter() - t0)
        # -- set-up: the server on the last registry, warmed up ---------
        t_online = time.perf_counter()
        conn_lanes = [
            [lane for lane in range(LANES) if conn_of(lane) == c]
            for c in range(CONNECTIONS)
        ]
        # every lane of a connection has received the ticks before
        # cursor[c]; phases continue each lane's stream without a gap
        cursor = [WARM_TICKS] * CONNECTIONS

        def bodies(n: int) -> list[list[bytes]]:
            """Per connection, one request per tick for ``n`` ticks."""
            return [
                [inputs.body(conn_lanes[c], range(t, t + 1))
                 for t in range(cursor[c], cursor[c] + n)]
                for c in range(CONNECTIONS)
            ]

        main_bodies = bodies(INCIDENT_TICKS + n_steady)
        server = Server(work, registry, trace)
        clients = [Client(server.port, c) for c in range(CONNECTIONS)]
        all_lanes = list(range(LANES))
        warm_events: list[str] = []
        for start in range(0, WARM_TICKS, WARM_CHUNK):
            ticks = range(start, min(start + WARM_CHUNK, WARM_TICKS))
            status, data, _, _ = clients[0].call(
                "POST", "/ingest", inputs.body(all_lanes, ticks))
            reply = json.loads(data)
            if status != 200 or reply["accepted"] != LANES * len(ticks):
                raise BenchmarkError(f"warm-up batch failed: {data[:300]!r}")
            warm_events += [e["context"] for e in reply["events"]]
        status, _, _, _ = clients[1].call("GET", "/health")
        if status != 200:
            raise BenchmarkError("GET /health failed after warm-up")
        server.close_setup()
        online_s = time.perf_counter() - t_online
        host.sample()

        def probe_when_idle() -> None:
            """Sample the host speed while the server has no request:
            a sample taken while it works would count its load as host
            slowness."""
            if not any(client.busy for client in clients):
                host.sample()

        # -- incident phase, then the steady phase, one open loop --------
        per_request = LANES // CONNECTIONS
        t_timed = time.perf_counter()
        start = t_timed + 0.05
        schedules = [open_loop_schedule(start, MAIN_HZ, main_bodies[c], c)
                     for c in range(CONNECTIONS)]
        incident = run_phase(
            clients, [s[:INCIDENT_TICKS] for s in schedules], per_request,
            explain=True, probe=probe_when_idle,
        )
        incident_end = time.perf_counter()
        steady = run_phase(
            clients, [s[INCIDENT_TICKS:] for s in schedules], per_request,
            explain=False, probe=probe_when_idle,
        )
        steady_end = time.perf_counter()
        cursor = [WARM_TICKS + INCIDENT_TICKS + n_steady] * CONNECTIONS
        host.sample()
        # -- saturation -------------------------------------------------
        saturation = [Phase() for _ in clients]

        def next_body(c: int):
            def body() -> bytes:
                first = cursor[c]
                cursor[c] += SATURATION_TICKS
                return inputs.body(
                    conn_lanes[c], range(first, first + SATURATION_TICKS))
            return body

        # bursts with a host-speed sample between them, while the
        # server is idle; per burst and connection: (ticks, start, busy s)
        bursts: list[list[tuple[int, float, float]]] = []
        for _ in range(SATURATION_BURSTS):
            before = [p.ticks_answered for p in saturation]
            start = time.perf_counter()
            on_connections(saturate, [
                (clients[c], next_body(c),
                 len(conn_lanes[c]) * SATURATION_TICKS,
                 start + SATURATION_BURST_S, saturation[c],
                 threading.Event())
                for c in range(CONNECTIONS)
            ])
            host.sample()
            bursts.append([(p.ticks_answered - b, start, p.last_done - start)
                           for p, b in zip(saturation, before)])
        # -- ladder -----------------------------------------------------
        rungs = []
        for hz in LADDER_HZ:
            rung = bodies(math.ceil(hz * RUNG_S))
            start = time.perf_counter() + 0.2
            phases = run_phase(
                clients,
                [open_loop_schedule(start, hz, rung[c], c)
                 for c in range(CONNECTIONS)],
                per_request, explain=False, probe=None, abort_s=ABORT_S,
            )
            for c, p in enumerate(phases):
                cursor[c] += p.sent
            ok = rung_sustained(phases, rung)
            rungs.append((hz, start, phases, ok))
            if not ok:
                break
        timed_s = time.perf_counter() - t_timed
        status, data, _, _ = clients[1].call("GET", "/health")
        health = json.loads(data) if status == 200 else {}
        peak_rss = pid_peak_rss_mb(server.proc.pid)
    finally:
        for client in clients:
            client.close()
        phases_trace = server.stop() if server is not None else None
        remove_work_dir(work)

    # -- accounting ------------------------------------------------------
    main = incident + steady
    ingest = [x for p in steady for x in p.latency]
    incident_ingest = [x for p in incident for x in p.latency]
    diagnoses = [d for p in incident for d in p.diagnoses]
    explains = [x for p in incident for x in p.explain]
    errors = [e for p in main for e in p.errors]
    late = sum(1 for p in main for x in p.latency if x > LATENCY_LIMIT_S)
    report.attempted = sum(p.sent for p in main) + len(explains)
    report.failed = len(errors) + late + sum(
        p.explain_errors for p in incident)
    sustained_rate = 0.0
    for phases in [saturation] + [ph for _, _, ph, _ in rungs]:
        report.attempted += sum(p.sent for p in phases)
        report.failed += sum(len(p.errors) for p in phases)
        errors += [e for p in phases for e in p.errors]
    for hz, start, phases, ok in rungs:
        if ok:
            sustained_rate = sum(p.ticks_answered for p in phases) / (
                max(p.last_done for p in phases) - start)

    expected = {
        str(inputs.contexts[lane]): segment
        for lane, segment in inputs.segments.items()
    }
    seen = Counter(d[0] for d in diagnoses)
    correct_causes = sum(
        1 for d in diagnoses if d[0] in expected and expected[d[0]][0] == d[1])
    early = sorted(
        d[0] for d in diagnoses if d[0] in expected and d[3] < expected[d[0]][1])
    n = len(ingest)
    lateness = [x for p in main for x in p.lateness]
    ingest_n = host.normalise(ingest, [x for p in steady for x in p.due])
    incident_n = host.normalise(
        incident_ingest, [x for p in incident for x in p.due])
    setup_s = median(offline) + online_s
    # Each connection's rate over its own busy time: the connection that
    # finishes first would otherwise idle until the other's last reply,
    # which moved a burst's rate by up to one request's worth (a burst
    # holds about five per connection).  The median
    # burst: one that a host hiccup or the server's background work slows
    # does not move it.
    saturated = median([sum(n / dt for n, _, dt in burst) for burst in bursts])
    runs = [r for burst in bursts for r in burst]
    busy_n = iter(host.normalise([dt for _, _, dt in runs],
                                 [t for _, t, _ in runs]))
    saturated_n = median([sum(n / next(busy_n) for n, _, _ in burst)
                          for burst in bursts])
    report.add("setup_s", setup_s, "s", len(offline))
    report.add("peak_rss_mb", peak_rss, "MB")
    report.add("op_ms_p50", 1000 * median(ingest), "ms", n,
               value=1000 * median(ingest_n))
    report.add("throughput_per_s", saturated, "1/s",
               sum(p.answered for p in saturation),
               value=saturated_n)
    report.add("ingest_ms_p50", 1000 * median(ingest), "ms", n,
               value=1000 * median(ingest_n), extra=True)
    report.add("ingest_ms_p95", 1000 * quantile(ingest, 0.95), "ms", n,
               value=1000 * quantile(ingest_n, 0.95), extra=True)
    report.add("incident_phase_ingest_ms_p50",
               1000 * median(incident_ingest), "ms", len(incident_ingest),
               value=1000 * median(incident_n), extra=True)
    if diagnoses:
        diagnosis_ms = [1000 * d[2] for d in diagnoses]
        report.add("diagnosis_ms_p50", median(diagnosis_ms), "ms",
                   len(diagnoses), extra=True, value=median(diagnosis_ms)
                   * host.scale_at((t_timed + incident_end) / 2))
    # explains and the ladder are bound by the keep-alive floor (a kernel
    # timer), not by CPU speed, so they are reported as measured
    if explains:
        report.add("explain_ms_p50", 1000 * median(explains), "ms",
                   len(explains), extra=True)
    report.add("sustained_ticks_per_s", sustained_rate, "1/s", None,
               extra=True)
    report.add("top1_accuracy", correct_causes / max(len(diagnoses), 1),
               "ratio", len(diagnoses), extra=True)
    report.add("failed_ratio", report.failed / max(report.attempted, 1),
               "ratio", report.attempted, extra=True)
    report.add("loadgen_lateness_ms_max", 1000 * max(lateness), "ms",
               len(lateness), extra=True)
    report.note(f"incident phase: {INCIDENT_TICKS} ticks at {MAIN_HZ:g} Hz, "
                f"{len(incident_ingest)} requests in "
                f"{incident_end - t_timed:.1f}s, {len(diagnoses)} diagnoses; "
                f"steady phase: {n_steady} ticks, {n} requests in "
                f"{steady_end - incident_end:.1f}s")
    for rung_hz, _, ph, ok in rungs:
        lat = [x for p in ph for x in p.latency]
        report.note(
            f"rung {rung_hz:g} Hz x {LANES} lanes: {len(lat)} requests, "
            f"p50 {1000 * median(lat):.1f} ms, lateness growth "
            f"{1000 * lateness_growth(ph):.1f} ms, "
            f"{'sustained' if ok else 'not sustained'}")
    q_gt0 = [n for n, o in zip(SOURCES, orders) if o[2] > 0]
    report.note("AIC (p,d,q) of the sources: " + ", ".join(
        f"{n} {o}" for n, o in zip(SOURCES, orders))
        + f"; {sum(1 for i in range(LANES) if SOURCES[i % 3] in q_gt0)} "
        f"of {LANES} lanes have q>0")
    report.note(f"set-up: offline (simulate + train) "
                + ", ".join(f"{x:.2f}s" for x in offline)
                + f"; server start + warm-up {online_s:.2f}s")

    problems = list(errors[:5])
    if late:
        problems.append(f"{late} open-loop replies over the latency limit")
    missing = sorted(set(expected) - set(seen))
    extra = sorted(ctx for ctx in seen if ctx not in expected or seen[ctx] > 1)
    if missing:
        problems.append(f"faulty lanes not diagnosed in the incident phase: "
                        f"{missing}")
    if early:
        problems.append(f"diagnoses before their fault onset: {early}")
    if extra:
        problems.append(f"unexpected diagnoses: {extra}")
    alarms = warm_events + [
        a for p in incident for a in p.alarms if a not in expected]
    alarms += [a for p in steady for a in p.alarms]
    alarms += [d[0] for p in steady for d in p.diagnoses]
    alarms += [a for _, _, ph, _ in rungs for p in ph for a in p.alarms]
    alarms += [d[0] for _, _, ph, _ in rungs for p in ph for d in p.diagnoses]
    if alarms:
        problems.append(f"events on healthy telemetry: {sorted(set(alarms))}")
    if health.get("incident_bundles") != len(diagnoses):
        problems.append(f"bundles {health.get('incident_bundles')} != "
                        f"diagnoses {len(diagnoses)}")
    if health.get("rejected_total", 1) != 0:
        problems.append("the server rejected ticks")
    if any(p.explain_errors for p in incident):
        problems.append("an explain request failed")
    for text in problems:
        report.note(text)
    correct = not problems

    if not trace:
        report.emit(correct, EXPECTED)
        return
    import tracing

    if phases_trace is None:
        raise BenchmarkError("the traced server wrote no trace")
    timed = phases_trace["timed"]
    layers = tracing.layer_metrics(
        timed, phases_trace["setup"], phases_trace["wrapper_cost_s"],
        timed_s)
    rtt = {rid: x for p in main for rid, x in p.rtt_by_rid.items()}
    overhead = [
        1000 * (rtt[rid] - s)
        for rid, s in timed["ingest_by_request"].items() if rid in rtt
    ]
    layers["http.overhead_ms_p50"] = median(overhead) if overhead else 0.0
    # explains follow the ingest reply at once on the same connection,
    # which is where the keep-alive floor of the server's two writes shows
    explain_overhead = [
        1000 * (x - timed["handler_by_request"][rid])
        for p in incident for rid, x in p.explain_rtt_by_rid.items()
        if rid in timed["handler_by_request"]
    ]
    layers["http.explain_overhead_ms_p50"] = (
        median(explain_overhead) if explain_overhead else 0.0)
    layers["fleet.lanes"] = float(health.get("contexts", 0))
    layers["arima.contexts_q0"] = float(sum(1 for o in orders if o[2] == 0))
    layers["arima.contexts_q_gt0"] = float(sum(1 for o in orders if o[2] > 0))
    all_phases = main + saturation + [p for _, _, ph, _ in rungs for p in ph]
    layers["loadgen.lateness_ms_max"] = 1000 * max(lateness)
    layers["loadgen.sent"] = float(sum(p.sent for p in all_phases))
    layers["loadgen.answered"] = float(sum(p.answered for p in all_phases))
    emit_layers(report, layers, correct)


def lateness_growth(phases) -> float:
    """Median lateness of the last third minus that of the first third."""
    growth = 0.0
    for p in phases:
        k = len(p.lateness) // 3
        if k:
            growth = max(growth, median(p.lateness[-k:])
                         - median(p.lateness[:k]))
    return growth


def rung_sustained(phases, bodies) -> bool:
    latency = [x for p in phases for x in p.latency]
    sent = sum(p.sent for p in phases)
    expected = sum(len(b) for b in bodies)
    if sent < expected or any(p.errors for p in phases) or not latency:
        return False
    good = sum(1 for x in latency if x <= LATENCY_LIMIT_S)
    return (good >= 0.99 * expected
            and lateness_growth(phases) <= LATENESS_GROWTH_S)
