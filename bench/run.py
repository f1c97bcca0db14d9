"""One command that benchmarks the serving stack over localhost TCP.

Run from the root of a checkout; the stack under test is the checkout's
``src/``::

    python3 bench/run.py [--workload NAME ...] --seed S [--seconds N]
                         [--trace [0|1]] [--out FILE]

Each workload starts ``bench/server.py`` (the stack ``repro serve``
builds) in its own process and drives it from this process with one
thread, one asyncio loop and two connections (see ``loadgen.py``):

1. set-up: spawn the server, wait for its ready line, enroll the pool
   identities over the wire and warm up with two operations per pool
   identity; repeated ``SETUPS`` times, the median is ``setup_s``;
2. capacity: a closed loop with ``IN_FLIGHT`` operations in flight for
   ``CAPACITY_SHARE`` of ``--seconds``;
3. fixed rate: an open loop on a seeded Poisson schedule at the
   workload's rate for the rest of ``--seconds``;
4. shutdown: the server's peak RSS and CPU time are read from ``/proc``
   before it is told to stop.

An untraced run (``--trace 0``, the default) prints the end-to-end
metrics; a traced run (``--trace`` or ``--trace 1``) wraps each layer's
public calls in the server, runs the capacity phase half untraced and
half traced, and prints the per-layer metrics (see ``layers.py``).
Metric names and units come from ``BENCHMARK.json`` next to this
directory.  Output is one ``<workload> <metric> <value> <unit>`` line
per metric, then one JSON line per workload.

A wrong answer, a generator that used more than ``GEN_CPU_LIMIT`` of a
core, or a phase that overran its watchdog makes the run exit nonzero.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: {ROOT} has no src/repro; run from a checkout's root")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from loadgen import (  # noqa: E402
    Connection,
    Generator,
    Identities,
    Spec,
    WrongAnswer,
    closed_loop,
    open_loop,
    specs,
)
from repro.crypto.signatures import get_scheme  # noqa: E402
from repro.protocols.device import BiometricDevice  # noqa: E402
from server import serve_config  # noqa: E402


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one stack configuration (n=128)."""

    enrolled: int      # engine records, pool identities included
    scheme: str
    mix: str           # "identify", "verify" or "enroll-mix"
    rate: float        # fixed-rate phase, ops/s
    journaled: bool = False


#: Why each workload exists is in bench/README.md and BENCHMARK.json.
#: Rates are fixed at about a quarter of the capacity measured once when
#: the benchmark was defined (bench/baseline.json), never derived per
#: run: at half capacity queueing amplified the host's speed swings into
#: latency spreads of 0.15-0.3 (see bench/README.md).
WORKLOADS = {
    "identify-100k": Workload(100_000, "dsa-1024", "identify", 80.0),
    "identify-1k": Workload(1_000, "dsa-1024", "identify", 175.0),
    "verify-10k": Workload(10_000, "schnorr-p-256", "verify", 100.0),
    "enroll-mix-10k": Workload(10_000, "dsa-1024", "enroll-mix", 100.0,
                               journaled=True),
}

POOL = 16              # genuinely enrolled identities the traffic presents
IN_FLIGHT = 32         # closed-loop concurrency (32 clients)
SETUPS = 3             # set-ups per untraced run; setup_s is their median
CAPACITY_SHARE = 0.32  # of --seconds; the fixed-rate phase gets the rest
GEN_CPU_LIMIT = 0.7    # of one core, in every measured phase
PHASE_GRACE_S = 60.0   # watchdog slack past a phase's nominal length
WORKLOAD_SLACK_S = 150  # per workload past --seconds: set-ups, teardowns

SMOKE_ENROLLED = 200
SMOKE_RATE = 20.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class RunError(Exception):
    """The run cannot produce valid numbers."""


class Server:
    """One ``bench/server.py`` process and its command channel."""

    def __init__(self, proc: asyncio.subprocess.Process) -> None:
        self.proc = proc
        self.host = ""
        self.port = 0

    @classmethod
    async def spawn(cls, workload: Workload, filler: int, seed: int,
                    trace: bool, workdir: Path,
                    live: list["Server"]) -> "Server":
        argv = [sys.executable, str(BENCH / "server.py"),
                "--filler", str(filler), "--scheme", workload.scheme,
                "--seed", str(seed)]
        if workload.journaled:
            argv += ["--journal-dir",
                     tempfile.mkdtemp(prefix="journal-", dir=workdir)]
        if trace:
            argv.append("--trace")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        server = cls(await asyncio.create_subprocess_exec(
            *argv, stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE, cwd=ROOT, env=env))
        live.append(server)
        _, server.host, port = (await server._read("READY")).split()
        server.port = int(port)
        return server

    async def _read(self, prefix: str) -> str:
        line = await asyncio.wait_for(self.proc.stdout.readline(),
                                      PHASE_GRACE_S)
        text = line.decode().strip()
        if not text.startswith(prefix):
            raise RunError(f"server said {text!r}, expected {prefix}")
        return text

    async def command(self, text: str, answer: str) -> str:
        self.proc.stdin.write(text.encode() + b"\n")
        await self.proc.stdin.drain()
        return (await self._read(answer))[len(answer):].strip()

    def proc_stats(self) -> tuple[float, float]:
        """Peak RSS in MB and CPU seconds so far, from ``/proc``."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        hwm_kb = next(int(line.split()[1]) for line in status.splitlines()
                      if line.startswith("VmHWM:"))
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text() \
            .rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return hwm_kb / 1024, ticks / _CLOCK_TICKS

    async def stop(self) -> None:
        self.proc.stdin.close()
        try:
            await asyncio.wait_for(self.proc.wait(), PHASE_GRACE_S)
        except asyncio.TimeoutError:
            await self.kill()

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


@dataclass
class Stack:
    server: Server
    gen: Generator
    setup_s: float


async def set_up(name: str, workload: Workload, seed: int, smoke: bool,
                 trace: bool, workdir: Path, live: list[Server]) -> Stack:
    """Spawn, connect, enroll the pool and warm up; timed as ``setup_s``."""
    start = time.monotonic()
    enrolled = min(workload.enrolled, SMOKE_ENROLLED) if smoke \
        else workload.enrolled
    server = await Server.spawn(workload, enrolled - POOL, seed, trace,
                                workdir, live)
    conns = (await Connection.open(server.host, server.port),
             await Connection.open(server.host, server.port))
    _, params = serve_config(workload.scheme)
    device = BiometricDevice(params, get_scheme(workload.scheme),
                             seed=f"bench-device-{seed}".encode())
    identities = Identities(params)
    gen = Generator(device, identities, *conns, seed=seed)
    rng = np.random.default_rng([seed, 1])
    pool = [identities.new(rng) for _ in range(POOL)]
    rounds = [[Spec("enroll", i, identities.templates[i],
                    identities.user_id(i)) for i in pool]]
    # Two rounds, so every pool key's verify table is built (on its
    # second use) before anything is timed.
    kind = "verify" if workload.mix == "verify" else "identify"
    for _ in range(2):
        rounds.append([Spec(kind, i, identities.reading(i, rng),
                            identities.user_id(i)) for i in pool])
    for batch in rounds:
        ops = await _watch("set-up", asyncio.gather(
            *(gen.run(spec) for spec in batch)), 0)
        failed = [op.error for op in ops if not op.ok]
        if failed:
            raise RunError(f"{name}: set-up operation failed: {failed[0]}")
    return Stack(server, gen, time.monotonic() - start)


async def tear_down(stack: Stack) -> None:
    for conn in (stack.gen.open_conn, stack.gen.respond_conn):
        await conn.close()
    await stack.server.stop()


async def _watch(phase: str, awaitable, seconds: float):
    try:
        return await asyncio.wait_for(awaitable, seconds + PHASE_GRACE_S)
    except asyncio.TimeoutError:
        raise RunError(f"{phase} phase overran its watchdog") from None


async def _phase(label: str, awaitable, seconds: float, smoke: bool):
    """Run a measured phase under its watchdog, report its op counts on
    stderr, and void the run if the generator was the bottleneck (smoke
    runs measure nothing, so they are exempt).

    Returns the phase's result and the generator's share of one core.
    """
    wall, cpu = time.monotonic(), time.process_time()
    result = await _watch(label, awaitable, seconds)
    cpu_frac = (time.process_time() - cpu) / (time.monotonic() - wall)
    ops = result[0]
    print(f"{label}: {len(ops)} attempted, "
          f"{sum(1 for op in ops if not op.ok)} failed, generator at "
          f"{cpu_frac:.2f} of a core", file=sys.stderr)
    if cpu_frac > GEN_CPU_LIMIT and not smoke:
        raise RunError(f"{label}: the generator used more than "
                       f"{GEN_CPU_LIMIT} of a core, so it measured itself")
    return result, cpu_frac


async def capacity(label: str, stack: Stack, work, seconds: float,
                   smoke: bool):
    """Correct completions per second in a closed loop (the median over
    the window's seconds, so one stalled second does not set it), the
    ops, and the generator's CPU share."""
    (ops, start, end), cpu_frac = await _phase(
        label, closed_loop(stack.gen, work, seconds, IN_FLIGHT), seconds,
        smoke)
    bins = max(1, int(end - start))
    counts, _ = np.histogram([op.end for op in ops if op.ok], bins=bins,
                             range=(start, end))
    return float(np.median(counts)) * bins / (end - start), ops, cpu_frac


async def fixed_rate(label: str, stack: Stack, workload: Workload,
                     rate: float, seed: int, seconds: float, smoke: bool):
    """The open-loop phase on a seeded Poisson schedule: its ops, start
    time and the generator's CPU share."""
    rng = np.random.default_rng([seed, 3])
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds]
    stream = specs(workload.mix, stack.gen.identities, POOL, rng)
    work = [next(stream) for _ in offsets]
    (ops, start), cpu_frac = await _phase(
        label, open_loop(stack.gen, work, offsets), seconds, smoke)
    return ops, start, cpu_frac


def _sabotaged(work):
    """Expect a wrong identity for the first operation (self-test hook)."""
    first = next(work)
    yield replace(first, expect=f"not-{first.expect}")
    yield from work


async def bench(name: str, seed: int, seconds: float, trace: bool,
                smoke: bool, sabotage: bool, workdir: Path,
                live: list[Server]) -> dict:
    """Run one workload; return its metrics, counts and raw trace."""
    workload = WORKLOADS[name]
    rate = SMOKE_RATE if smoke else workload.rate
    count = 1 if trace or smoke else SETUPS
    setups = []
    for i in range(count):
        stack = await set_up(name, workload, seed, smoke, trace, workdir,
                             live)
        setups.append(stack.setup_s)
        if i < count - 1:
            await tear_down(stack)

    work = specs(workload.mix, stack.gen.identities, POOL,
                 np.random.default_rng([seed, 2]))
    if sabotage:
        work = _sabotaged(work)
    cap_s = CAPACITY_SHARE * seconds
    if trace:
        await stack.server.command("trace 0", "OK")
        untraced_cap, untraced_ops, cpu_a = await capacity(
            f"{name} capacity (untraced half)", stack, work, cap_s / 2,
            smoke)
        await stack.server.command("trace 1", "OK")
        stack.gen.traced = True
        cap, cap_ops, cpu_b = await capacity(
            f"{name} capacity (traced half)", stack, work, cap_s / 2, smoke)
        cap_ops += untraced_ops
        cap_cpu = max(cpu_a, cpu_b)
    else:
        cap, cap_ops, cap_cpu = await capacity(
            f"{name} capacity", stack, work, cap_s, smoke)
    cache_before = json.loads(await stack.server.command("cache", "CACHE"))
    _, cpu_before = stack.server.proc_stats()
    ops, start, fixed_cpu = await fixed_rate(
        f"{name} fixed-rate", stack, workload, rate, seed, seconds - cap_s,
        smoke)
    peak_rss_mb, cpu_after = stack.server.proc_stats()
    cache_after = json.loads(await stack.server.command("cache", "CACHE"))

    attempted = ops + cap_ops
    result = {"attempted": len(attempted),
              "failed": sum(1 for op in attempted if not op.ok)}
    latencies = [op.end - op.due if op.ok else float("inf") for op in ops]
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "capacity_per_s": cap,
            "p50_ms": layers.pct(latencies, 50) * 1e3,
            "p95_ms": layers.pct(latencies, 95) * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "wire_bytes_per_op": sum(op.wire_bytes for op in ops) / len(ops),
        }
    else:
        dump = workdir / "spans.json"
        await stack.server.command(f"dump {dump}", "DUMPED")
        raw = json.loads(dump.read_text())
        result["trace"] = raw
        end = max(op.end for op in ops)
        hits = cache_after["hits"] - cache_before["hits"]
        lookups = hits + cache_after["misses"] - cache_before["misses"]
        result["metrics"] = {
            **layers.leg_metrics(ops, raw["spans"]),
            **layers.window_metrics(raw["spans"], raw["gc"], start, end),
            **layers.write_metrics(raw["spans"]),
            "crypto.table_hit_ratio": hits / lookups if lookups else 0.0,
            "server.cpu_ms_per_op": (cpu_after - cpu_before) / len(ops) * 1e3,
            "device.respond_p50_ms": layers.pct(
                [s for op in ops for s in op.respond_s], 50) * 1e3,
            "gen.cpu_frac": max(cap_cpu, fixed_cpu),
            "gen.late_p99_ms": layers.pct(
                [op.start - op.due for op in ops], 99) * 1e3,
            "unattributed_p50_ms": layers.pct(
                [op.end - op.start - op.device_s
                 - sum(received - sent for _, sent, received in op.legs)
                 for op in ops], 50) * 1e3,
            "trace.overhead_frac": 1.0 - cap / untraced_cap,
        }
    await tear_down(stack)
    return result


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Benchmark the serving stack over localhost TCP.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, required=True,
                        help="makes every input: same seed, same inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run printing the per-layer metrics")
    parser.add_argument("--out", default="",
                        help="also write the results, raw trace included, "
                             "as JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and rates for the self-test")
    parser.add_argument("--sabotage", action="store_true",
                        help="self-test hook: expect a wrong identity for "
                             "the first capacity operation")
    return parser.parse_args(argv)


async def run(args: argparse.Namespace, spec: dict) -> list[tuple]:
    task = asyncio.current_task()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGALRM):
        loop.add_signal_handler(signum, task.cancel)
    seconds = args.seconds or spec["run_seconds"]
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_run"))
    live: list[Server] = []
    results = []
    try:
        for name in args.workload or list(WORKLOADS):
            signal.alarm(int(seconds) + WORKLOAD_SLACK_S)
            results.append((name, await bench(
                name, args.seed, seconds, bool(args.trace), args.smoke,
                args.sabotage, workdir, live)))
    finally:
        signal.alarm(0)
        for server in live:
            await server.kill()
        shutil.rmtree(workdir, ignore_errors=True)
    return results


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    try:
        results = asyncio.run(run(args, spec))
    except (RunError, WrongAnswer) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except asyncio.CancelledError:
        print("error: run interrupted or over its time limit",
              file=sys.stderr)
        return 1
    for name, result in results:
        metrics = result["metrics"]
        if set(metrics) != set(units):
            raise RunError(f"measured {sorted(set(metrics) ^ set(units))} "
                           f"do not match BENCHMARK.json")
        for metric, value in metrics.items():
            print(f"{name} {metric} {value!r} {units[metric]}")
        print(json.dumps({
            "correct": True,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {metric: {"value": value, "unit": units[metric]}
                        for metric, value in metrics.items()},
        }))
    if args.out:
        Path(args.out).write_text(json.dumps(dict(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
