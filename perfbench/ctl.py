"""``ctl_mixed``: a mix of writes and reads against the netserver.

One generator (this process, one asyncio loop, two TCP connections)
drives eight sessions against one ``python -m repro.netserver --workers 0
--journal-dir`` process.  For latencies, arrivals are seeded Poisson at a
fixed nominal rate and are sent when due whether or not earlier replies
came back (an open loop), so a stalled server builds a queue and every
request is timed from when it was due.  The gated throughput comes from
a closed loop instead: ``IN_FLIGHT`` requests are kept outstanding, each
reply releasing the next, so the server runs flat out without an
unbounded queue, and completed requests per second is its capacity.  A
server pause of any kind (a collection, a slow request at the head of a
batch) lowers it by the time it lasts.  The closed loop sends a fixed
number of requests in segments, and the host's speed is measured on the
server's CPU between them (``common.HostSpeed``).

Six sessions are tuning tenants (role ``runtime``).  Each repeats the
tuning round that the repository's own service clients issue (the README
quickstart, ``benchmarks/bench_perf_service.py``,
``tests/test_netserver.py``): ``tuning.ask`` a batch, ``tuning.tell`` a
batch of results, ``db.best_for`` its tuner.  Two sessions are site
monitors (role ``monitor``).  Dashboard reads (``db.top_k``,
``db.aggregate``, ``power.read``) come from any of the eight, so they take
both the tenant-scoped path (``where`` then
``PerformanceDatabase.from_records``) and the sharded store's site-wide
fan-out.  No client in the repository issues dashboard reads: their share
of the traffic and its split are assumptions of the benchmark.

Checks: every reply is ``ok``; every ``db.best_for`` answer equals the
generator's own running best for that tuner (a tenant's requests share
one connection, which the server answers in order); and after a SIGTERM
drain, journal recovery holds exactly the preloaded plus told rows.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import signal
import struct
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    BenchError,
    HostSpeed,
    ROOT,
    Result,
    child_env,
    fresh_workdir,
    median,
    percentile,
    pin,
    proc_cpu_s,
    proc_peak_rss_mb,
    read_json,
    work_cpu,
)

HEADER = struct.Struct(">I")
N_TUNING_TENANTS = 6
N_SITE_TENANTS = 2
N_CONNECTIONS = 2
N_NODES = 64
#: 10 values per parameter, 6 parameters: 10^6 points, so random search
#: never nears exhaustion (ask stays cheap for the whole run).
SPACE = {f"p{i}": list(range(10)) for i in range(6)}
#: Requests kept outstanding in the closed loop (8 per connection, well
#: under the server's per-connection in-flight cap of 64).
IN_FLIGHT = 16
#: The generator is behind schedule when its p99 send lateness exceeds
#: this.  A late generator offered less than the rate, so the phase is
#: offered again, up to ``ATTEMPTS`` times, whatever the server did;
#: the run is invalid if the generator never kept up.
LATE_LIMIT_MS = 20.0
ATTEMPTS = 3
#: Configurations asked, and results told, per tuning-round step.
BATCH = 2
PRELOAD_BATCH = 250
#: A tuning tenant's steps, in order (a 1:1:1 ratio, as the repository's
#: clients issue them).
ROUND = ("tuning.ask", "tuning.tell", "db.best_for")
#: A deck of 30 requests holds one whole round per tuning tenant (18
#: steps, 60%) and these dashboard reads (40%), each from a session drawn
#: at random.  Both shares are assumptions: no client in the repository
#: issues dashboard reads.
DASHBOARD = (("db.top_k", 3), ("db.aggregate", 3), ("power.read", 6))
#: The closed loop sends ``--seconds`` times this many requests: about
#: two thirds of ``--seconds`` of work at the reference speed, adding
#: some 14% to the preloaded store.  A fixed count, not a fixed time, so
#: a faster server does not grow the store more than a slower one.
CLOSED_LOOP_PER_S = 480
#: The closed loop runs in this many segments of equal request counts;
#: the host's speed is measured on the server's CPU between them.
SEGMENTS = 16
READ_OPS = ("db.best_for", "db.top_k", "db.aggregate", "power.read")
WRITE_OPS = ("tuning.ask", "tuning.tell")
ALL_OPS = READ_OPS + WRITE_OPS


class Size:
    """How much work one run does."""

    def __init__(
        self,
        preload_per_tenant: int = 3500,
        nominal_rate: float = 200.0,
        nominal_s: Optional[float] = None,
        warmup_s: Optional[float] = None,
        saturate_requests: Optional[int] = None,
        setups: int = 3,
    ):
        """Durations left as ``None`` follow the run's ``--seconds``."""
        self.preload_per_tenant = preload_per_tenant
        self.nominal_rate = nominal_rate
        self.nominal_s = nominal_s
        self.warmup_s = warmup_s
        self.saturate_requests = saturate_requests
        self.setups = setups


# -- server process ---------------------------------------------------------
class Server:
    """One netserver process, plain or under the traced launcher."""

    def __init__(self, seed: int, journal_dir: str, cpu: int, trace_out: Optional[str] = None):
        args = [
            "--port", "0", "--workers", "0", "--nodes", str(N_NODES),
            "--seed", str(seed), "--journal-dir", journal_dir,
        ]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.netserver", *args]
        else:
            launcher = os.path.join(ROOT, "perfbench", "traced_server.py")
            command = [sys.executable, launcher, trace_out, *args]
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=child_env(), cwd=ROOT, text=True,
        )
        # Before the server starts its threads, which inherit the CPU.
        pin([cpu], self.proc.pid)
        line = self.proc.stdout.readline()
        if not line.startswith("READY"):
            self.kill()
            raise BenchError(f"netserver did not start: {line!r} {self.proc.stderr.read()!r}")
        _, self.host, port = line.split()[:3]
        self.port = int(port)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM drain; the server must exit cleanly."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            _, err = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("netserver did not drain after SIGTERM")
        if self.proc.returncode != 0:
            raise BenchError(f"netserver exited {self.proc.returncode}: {err[-2000:]}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


# -- generator --------------------------------------------------------------
class Tenant:
    def __init__(self, index: int, role: str):
        self.name = f"tenant-{index}"
        self.role = role
        self.connection = index % N_CONNECTIONS
        self.session = ""
        self.tuner = ""
        #: Tuning-round steps issued so far.
        self.steps = 0
        #: Running best (objective, config) over every told result.
        self.best: Optional[Tuple[float, Dict[str, int]]] = None


class Generator:
    """Open-loop generator over a fixed set of connections."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.tuning = [Tenant(i, "runtime") for i in range(N_TUNING_TENANTS)]
        self.sites = [
            Tenant(N_TUNING_TENANTS + i, "monitor") for i in range(N_SITE_TENANTS)
        ]
        self.tenants = self.tuning + self.sites
        self.writers: List[asyncio.StreamWriter] = []
        self.readers: List[asyncio.Task] = []
        self.pending: Dict[str, Tuple[float, str, Any]] = {}
        self.futures: Dict[str, asyncio.Future] = {}
        #: request id -> future a closed-loop sender waits on.
        self.waiters: Dict[str, asyncio.Future] = {}
        self.samples: List[Tuple[str, float, float, float, str]] = []
        self.next_id = 0
        self.deck: List[Tuple[Tenant, Optional[str]]] = []
        #: Requests the closed loop has still to send.
        self.budget = 0
        self.told_rows = 0
        self.result: Optional[Result] = None

    async def connect(self, host: str, port: int) -> None:
        for index in range(N_CONNECTIONS):
            reader, writer = await asyncio.open_connection(host, port)
            self.writers.append(writer)
            self.readers.append(asyncio.create_task(self._read_loop(reader)))

    async def close(self) -> None:
        for writer in self.writers:
            writer.close()
        for writer in self.writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)

    def _frame(self, tenant: Optional[Tenant], op: str, args: Dict[str, Any]) -> Tuple[str, bytes]:
        self.next_id += 1
        request_id = str(self.next_id)
        envelope = {"protocol": "1.0", "op": op, "args": args, "request_id": request_id}
        if tenant is not None and tenant.session:
            envelope["session"] = tenant.session
        body = json.dumps(envelope).encode("utf-8")
        return request_id, HEADER.pack(len(body)) + body

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        while True:
            try:
                header = await reader.readexactly(HEADER.size)
                body = await reader.readexactly(HEADER.unpack(header)[0])
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            now = time.perf_counter()
            reply = json.loads(body)
            request_id = reply.get("request_id")
            future = self.futures.pop(request_id, None)
            if future is not None:
                future.set_result(reply)
                continue
            entry = self.pending.pop(request_id, None)
            if entry is None:
                self.result.check(False, f"reply for unknown request {request_id!r}: {reply}")
                continue
            due, op, expected = entry
            self.samples.append((op, due, now, now - due, request_id))
            self._judge(op, reply, expected)
            waiter = self.waiters.pop(request_id, None)
            if waiter is not None:
                waiter.set_result(None)

    def _judge(self, op: str, reply: Dict[str, Any], expected: Any) -> None:
        result = self.result
        result.attempted += 1
        if not reply.get("ok"):
            result.failed += 1
            result.check(False, f"{op} failed: {reply.get('error')}")
            return
        if op == "tuning.tell":
            self.told_rows += BATCH
        elif op == "db.best_for":
            best = reply["result"]["best"]
            got = None if best is None else (best["objective"], best["config"])
            result.check(got == expected, f"db.best_for answered {got}, expected {expected}")

    async def call(self, tenant: Optional[Tenant], op: str, /, **args: Any) -> Dict[str, Any]:
        """One request/response exchange (set-up only)."""
        request_id, frame = self._frame(tenant, op, args)
        future = asyncio.get_running_loop().create_future()
        self.futures[request_id] = future
        self.writers[tenant.connection if tenant else 0].write(frame)
        reply = await asyncio.wait_for(future, 120.0)
        if not reply.get("ok"):
            raise BenchError(f"set-up {op} failed: {reply.get('error')}")
        return reply["result"]

    # -- inputs -------------------------------------------------------------
    def _config(self) -> Dict[str, int]:
        rng = self.rng
        return {name: rng.randrange(len(values)) for name, values in SPACE.items()}

    def _results(self, tenant: Tenant, count: int) -> List[Dict[str, Any]]:
        rng = self.rng
        out = []
        for _ in range(count):
            config = self._config()
            objective = rng.uniform(10.0, 1000.0)
            out.append({
                "config": config,
                "objective": objective,
                "metrics": {"runtime_s": objective, "energy_j": objective * rng.uniform(150, 300)},
                "feasible": rng.random() > 0.1,
            })
            if tenant.best is None or objective < tenant.best[0]:
                tenant.best = (objective, config)
        return out

    def _request(self, tenant: Tenant, op: str) -> Tuple[Dict[str, Any], Any]:
        """Arguments for one op, and what its answer must be (if checked)."""
        if op == "tuning.tell":
            return {"tuner_id": tenant.tuner, "results": self._results(tenant, BATCH)}, None
        if op == "tuning.ask":
            return {"tuner_id": tenant.tuner, "n": BATCH}, None
        if op == "db.best_for":
            best = tenant.best
            return {"tags": {"tuner": tenant.tuner}, "minimize": True}, (
                None if best is None else (best[0], best[1])
            )
        if op == "db.top_k":
            return {"k": 10}, None
        if op == "db.aggregate":
            return {"feasible_only": self.rng.random() < 0.5}, None
        node = self.rng.randrange(N_NODES)
        return {"path": f"sim-cluster/sim-cluster-{node:04d}", "attr": "power"}, None

    def _pick(self) -> Tuple[Tenant, str]:
        """The next arrival's session and op, dealt from a shuffled deck.

        Every deck holds the same ops, so any stretch of traffic carries
        the same mix up to one deck, whatever the seed.
        """
        if not self.deck:
            self.deck = self._new_deck()
        tenant, op = self.deck.pop()
        if op is None:
            op = ROUND[tenant.steps % len(ROUND)]
            tenant.steps += 1
        return tenant, op

    def _new_deck(self) -> List[Tuple[Tenant, Optional[str]]]:
        rng = self.rng
        deck: List[Tuple[Tenant, Optional[str]]] = [
            (tenant, None) for tenant in self.tuning for _ in ROUND
        ]
        for op, count in DASHBOARD:
            deck += [(rng.choice(self.tenants), op) for _ in range(count)]
        rng.shuffle(deck)
        return deck

    # -- phases -------------------------------------------------------------
    async def setup(self, preload_per_tenant: int) -> int:
        """Open sessions and tuners; preload the store. Returns rows preloaded."""
        for tenant in self.tenants:
            opened = await self.call(None, "session.open", tenant=tenant.name, role=tenant.role)
            tenant.session = opened["session"]
        for tenant in self.tuning:
            tuner = await self.call(tenant, "tuning.open", parameters=SPACE, search="random",
                                    batch_size=BATCH)
            tenant.tuner = tuner["tuner_id"]
        rows = 0
        for tenant in self.tuning:
            left = preload_per_tenant
            while left > 0:
                count = min(PRELOAD_BATCH, left)
                await self.call(tenant, "tuning.tell", tuner_id=tenant.tuner,
                                results=self._results(tenant, count))
                left -= count
                rows += count
        return rows

    async def store_rows(self) -> int:
        stats = await self.call(self.sites[0], "db.stats")  # site-wide count
        return int(stats["n_records"])

    async def open_loop(self, rate: float, seconds: float) -> Dict[str, Any]:
        """Offer ``rate`` requests/s for ``seconds``; wait for every reply."""
        rng = self.rng
        schedule: List[Tuple[float, Tenant, str]] = []
        offset = rng.expovariate(rate)
        while offset < seconds:
            schedule.append((offset, *self._pick()))
            offset += rng.expovariate(rate)
        first_sample = len(self.samples)
        late_ms: List[float] = []
        sent_ids: List[str] = []
        # A collection pause here would make the generator late; what it
        # allocates while sending is freed by reference counting.
        gc.collect()
        gc.disable()
        try:
            await self._send(schedule, seconds, late_ms, sent_ids)
        finally:
            gc.enable()
        backlog = sum(1 for request_id in sent_ids if request_id in self.pending)
        deadline = time.perf_counter() + 60.0
        while self.pending:
            if time.perf_counter() > deadline:
                raise BenchError(f"{len(self.pending)} requests never answered")
            await asyncio.sleep(0.005)
        samples = self.samples[first_sample:]
        return {
            "rate": rate,
            "sent": len(schedule),
            "backlog": backlog,
            "late_ms": sorted(late_ms),
            "samples": samples,
        }

    async def _send(self, schedule, seconds: float, late_ms: List[float], sent_ids: List[str]) -> None:
        """Send each request when due; return at the end of the phase."""
        start = time.perf_counter() + 0.01
        for offset, tenant, op in schedule:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            args, expected = self._request(tenant, op)
            request_id, frame = self._frame(tenant, op, args)
            self.pending[request_id] = (due, op, expected)
            self.writers[tenant.connection].write(frame)
            late_ms.append((time.perf_counter() - due) * 1e3)
            sent_ids.append(request_id)
        delay = start + seconds - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)

    async def saturate(self, in_flight: int, requests: int, cpu: int, host: HostSpeed) -> Dict[str, Any]:
        """Send ``requests`` requests, keeping ``in_flight`` outstanding.

        The requests go in ``SEGMENTS`` segments.  Each ends when its last
        reply is in, so the server is idle while ``host`` is measured on
        its CPU between segments.  Returns the requests completed per
        second over the segments, each segment's rate, and the phase's
        samples.
        """
        first_sample = len(self.samples)
        per_segment = requests // SEGMENTS
        seconds = []
        for _ in range(SEGMENTS):
            self.budget = per_segment
            start = time.perf_counter()
            await asyncio.gather(*(self._closed_loop() for _ in range(in_flight)))
            seconds.append(time.perf_counter() - start)
            host.measure(cpu)
        samples = self.samples[first_sample:]
        return {"completed": len(samples), "per_s": len(samples) / sum(seconds),
                "rates": [per_segment / took for took in seconds], "samples": samples}

    async def _closed_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while self.budget > 0:
            self.budget -= 1
            tenant, op = self._pick()
            args, expected = self._request(tenant, op)
            request_id, frame = self._frame(tenant, op, args)
            waiter = loop.create_future()
            self.waiters[request_id] = waiter
            self.pending[request_id] = (time.perf_counter(), op, expected)
            self.writers[tenant.connection].write(frame)
            await asyncio.wait_for(waiter, 60.0)


def _latency_ms(samples, ops) -> List[float]:
    return sorted(s[3] * 1e3 for s in samples if s[0] in ops)


async def _offer(generator: Generator, rate: float, seconds: float) -> Dict[str, Any]:
    """One trial at ``rate``, offered again while the generator ran late."""
    for _ in range(ATTEMPTS):
        phase = await generator.open_loop(rate, seconds)
        if _late_p99_ms(phase) <= LATE_LIMIT_MS:
            break
    return phase


async def _one_server(
    result: Result, seed: int, size: Size, workdir: str, label: str, cpu: int, host: HostSpeed,
    trace_out: Optional[str], closed_loop: bool,
) -> Dict[str, Any]:
    """Start a server, set it up, measure, drain, check recovery.

    The measured phase is the closed loop, or else the nominal open-loop
    rate.
    """
    journal = os.path.join(workdir, f"journal-{label}")
    server, generator, preloaded, setup_s = await _start(
        result, seed, size, journal, cpu, host, trace_out
    )
    try:
        rows_start = await generator.store_rows()
        result.check(rows_start == preloaded, f"store holds {rows_start} rows, preloaded {preloaded}")
        # Untimed warm-up: the collector's first full pass over the
        # preloaded store is a one-off cost, not a per-request one.
        await generator.open_loop(size.nominal_rate, size.warmup_s)
        # Read here, after a fixed amount of work: in the closed loop a
        # faster server stores more rows, which must not move the figure.
        peak_rss = proc_peak_rss_mb(server.pid)
        rows_start = await generator.store_rows()
        told_before = generator.told_rows
        cpu0 = proc_cpu_s(server.pid)
        if trace_out is not None:
            server.proc.send_signal(signal.SIGUSR1)
            await asyncio.sleep(0.2)
        if closed_loop:
            measured = await generator.saturate(IN_FLIGHT, size.saturate_requests, cpu, host)
        else:
            measured = await _offer(generator, size.nominal_rate, size.nominal_s)
        if trace_out is not None:
            server.proc.send_signal(signal.SIGUSR2)
            await asyncio.sleep(0.2)
        cpu_s = proc_cpu_s(server.pid) - cpu0
        rows_end = await generator.store_rows()
        await generator.close()
    except BaseException:
        server.kill()
        raise
    server.stop()
    told = generator.told_rows - told_before
    result.check(rows_end == rows_start + told, f"store grew {rows_end - rows_start}, told {told}")
    _check_recovery(result, journal, preloaded + generator.told_rows, generator.tuning)
    return {
        "setup_s": setup_s, "measured": measured, "cpu_s": cpu_s, "peak_rss_mb": peak_rss,
        "rows_start": rows_start, "rows_end": rows_end,
    }


def _check_recovery(result: Result, journal: str, rows: int, tenants: List[Tenant]) -> None:
    from repro.durability import recover

    db = recover(journal, reattach=False)
    result.check(len(db) == rows, f"recovery holds {len(db)} rows, expected {rows}")
    for tenant in tenants:
        best = db.best_for(minimize=True, tuner=tenant.tuner)
        got = None if best is None else (best.objective, best.config)
        result.check(got == tenant.best, f"recovered best of {tenant.tuner} is {got}")


async def _start(
    result: Result, seed: int, size: Size, journal: str, cpu: int, host: HostSpeed,
    trace_out: Optional[str] = None,
) -> Tuple[Server, Generator, int, float]:
    """Start a server on ``cpu`` and set it up; then measure ``host``.

    Returns the server, the generator, the rows preloaded and the
    set-up's seconds.
    """
    t0 = time.perf_counter()
    server = Server(seed, journal, cpu, trace_out)
    generator = Generator(seed)
    generator.result = result
    try:
        await generator.connect(server.host, server.port)
        preloaded = await generator.setup(size.preload_per_tenant)
        elapsed = time.perf_counter() - t0
        host.measure(cpu)
    except BaseException:
        server.kill()
        raise
    return server, generator, preloaded, elapsed


async def _setup_only(
    result: Result, seed: int, size: Size, workdir: str, label: str, cpu: int, host: HostSpeed
) -> float:
    """One more timed set-up; the server is then killed and discarded."""
    server, generator, _, setup_s = await _start(
        result, seed, size, os.path.join(workdir, f"journal-{label}"), cpu, host
    )
    try:
        await generator.close()
    finally:
        server.kill()
    return setup_s


def _class_latency(result_metrics: Dict[str, Dict[str, Any]], phase: Dict[str, Any]) -> None:
    for cls, ops in (("read", READ_OPS), ("write", WRITE_OPS)):
        latencies = _latency_ms(phase["samples"], ops)
        result_metrics[f"loadgen.{cls}_p50_ms"] = {"value": percentile(latencies, 50), "unit": "ms"}
        result_metrics[f"loadgen.{cls}_p99_ms"] = {"value": percentile(latencies, 99), "unit": "ms"}
        result_metrics[f"loadgen.{cls}_samples"] = {"value": len(latencies), "unit": "count"}
    result_metrics["loadgen.late_p99_ms"] = {"value": _late_p99_ms(phase), "unit": "ms"}


def _late_p99_ms(phase: Dict[str, Any]) -> float:
    return percentile(phase["late_ms"], 99)


def _check_generator(result: Result, phase: Dict[str, Any]) -> None:
    late = _late_p99_ms(phase)
    result.check(
        late <= LATE_LIMIT_MS,
        f"generator fell behind its schedule: late p99 {late:.2f} ms; run invalid",
    )


def run(result: Result, seed: int, seconds: float, trace: bool, size: Optional[Size] = None) -> None:
    size = size or Size()
    workdir = fresh_workdir("ctl_mixed")
    # The server gets a CPU of its own where there are two; the generator
    # visits it only to measure the reference while the server is idle.
    cpu = work_cpu()
    pin(os.sched_getaffinity(0) - {cpu} or {cpu})
    asyncio.run(_run(result, seed, seconds, trace, size, workdir, cpu))


async def _run(
    result: Result, seed: int, seconds: float, trace: bool, size: Size, workdir: str, cpu: int
) -> None:
    if size.nominal_s is None:
        # >= 1,000 samples per class for the per-class p99s of the traced run.
        size.nominal_s = seconds * 0.6
    if size.warmup_s is None:
        size.warmup_s = seconds / 10.0
    if size.saturate_requests is None:
        size.saturate_requests = int(seconds * CLOSED_LOOP_PER_S)
    host = HostSpeed()
    host.measure(cpu)
    if not trace:
        setups = [
            await _setup_only(result, seed, size, workdir, f"s{i}", cpu, host)
            for i in range(size.setups - 1)
        ]
        main = await _one_server(result, seed, size, workdir, "main", cpu, host, None, closed_loop=True)
        setups.append(main["setup_s"])
        result.metric("throughput_per_s", main["measured"]["per_s"] * host.slowdown, "1/s")
        result.metric("setup_s", median(setups) / host.slowdown, "s")
        result.metric("peak_rss_mb", main["peak_rss_mb"], "MB")
        result.info.update(_describe(main))
        result.info["slowdown"] = round(host.slowdown, 4)
        return
    plain = await _one_server(result, seed, size, workdir, "plain", cpu, host, None, closed_loop=False)
    trace_out = os.path.join(workdir, "trace.json")
    traced = await _one_server(result, seed, size, workdir, "traced", cpu, host, trace_out, closed_loop=False)
    _check_generator(result, plain["measured"])
    dump = read_json(trace_out)
    if dump is None:
        raise BenchError("traced netserver wrote no trace")
    from layers import ctl_layer_metrics

    result.metrics.update(ctl_layer_metrics(dump, plain, traced))
    result.metric("host.slowdown", host.slowdown, "ratio")
    _class_latency(result.metrics, plain["measured"])
    result.info.update(_describe(traced))


def _describe(run_info: Dict[str, Any]) -> Dict[str, Any]:
    measured = run_info["measured"]
    latencies = _latency_ms(measured["samples"], ALL_OPS)
    out = {
        "rows_start": run_info["rows_start"], "rows_end": run_info["rows_end"],
        "p50_ms": round(percentile(latencies, 50), 3),
        "p99_ms": round(percentile(latencies, 99), 3),
    }
    if "per_s" in measured:
        out.update({"in_flight": IN_FLIGHT, "completed": measured["completed"]})
        out["rates"] = [round(rate, 1) for rate in measured["rates"]]
    else:
        out.update({"rate": measured["rate"], "sent": measured["sent"],
                    "backlog": measured["backlog"], "late_p99_ms": round(_late_p99_ms(measured), 3)})
    return out
