"""Command-line interface: ``python -m repro`` (or the ``repro`` script).

The subcommands cover the workflows a user reaches for first:

``report``
    Print the Table II security report for a parameter set
    (entropy, storage, false-close bound) — the paper's Theorem 3
    numbers for *your* configuration.

``advise``
    Size the template dimension for a target false-accept exponent
    (Theorem 2's bound inverted), with the residual key entropy that
    dimension buys.

``demo``
    One end-to-end enrollment + identification + impostor rejection over
    the real protocol stack, with timings.

``simulate``
    Deployment workload simulation: N users, M identification requests
    with a genuine/stranger/noisy traffic mix; prints throughput and
    latency percentiles, then the identification engine's counters.
    ``--engine-shards W`` splits the engine the workload is served from
    into W shards (default: 1).

``serve``
    Run the stack as an actual TCP service: an asyncio
    :class:`~repro.net.server.NetworkServer` fronting the
    micro-batching service frontend (or the serial server with
    ``--serial``) over a fresh engine or an mmap store directory
    (``--store``).  ``--self-test`` drives one enrollment +
    identification + verification through a real client connection and
    exits — a one-command proof the wire works.

``stats``
    Scrape a running ``repro serve`` instance over the stats admin
    frames: human-readable metric table by default, ``--prometheus``
    for text exposition, ``--traces`` for recent per-request span
    listings, ``--json`` for the raw payload.

All numeric arguments default to the paper's Table II values.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.security import advise_dimension, security_report
from repro.core.params import SystemParams
from repro.exceptions import ParameterError


def _add_param_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--unit", "-a", type=int, default=100,
                        help="number-line unit a (default: 100)")
    parser.add_argument("--units-per-interval", "-k", type=int, default=4,
                        help="units per interval k, even (default: 4)")
    parser.add_argument("--intervals", "-v", type=int, default=500,
                        help="interval count v (default: 500)")
    parser.add_argument("--threshold", "-t", type=int, default=100,
                        help="Chebyshev threshold t < k*a/2 (default: 100)")
    parser.add_argument("--dimension", "-n", type=int, default=5000,
                        help="template dimension n (default: 5000)")


def _params_from(args: argparse.Namespace) -> SystemParams:
    return SystemParams(a=args.unit, k=args.units_per_interval,
                        v=args.intervals, t=args.threshold,
                        n=args.dimension)


def _cmd_report(args: argparse.Namespace) -> int:
    report = security_report(_params_from(args))
    width = max(len(name) for name, _ in report.rows()) + 2
    print("Security report (paper Theorem 3 closed forms)")
    print("-" * (width + 24))
    for name, value in report.rows():
        print(f"{name:<{width}}{value}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    base = _params_from(args).with_dimension(1)
    n = advise_dimension(base, args.target_bits)
    sized = base.with_dimension(n)
    print(f"target false-accept probability: 2^-{args.target_bits}")
    print(f"required dimension:              n >= {n}")
    print(f"residual key entropy at that n:  "
          f"{sized.residual_entropy_bits:,.0f} bits")
    print(f"sketch storage at that n:        {sized.storage_bits:,.0f} bits")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.biometrics.synthetic import BoundedUniformNoise, UserPopulation
    from repro.crypto.signatures import get_scheme
    from repro.protocols.device import BiometricDevice
    from repro.protocols.runners import run_enrollment, run_identification
    from repro.protocols.server import AuthenticationServer
    from repro.protocols.transport import DuplexLink

    params = _params_from(args)
    scheme = get_scheme(args.scheme)
    population = UserPopulation(params, size=args.users,
                                noise=BoundedUniformNoise(params.t),
                                seed=args.seed)
    device = BiometricDevice(params, scheme, seed=b"cli-device")
    server = AuthenticationServer(params, scheme, seed=b"cli-server")

    print(f"enrolling {args.users} users (n={params.n}, "
          f"scheme={scheme.name})…")
    for i, user_id in enumerate(population.user_ids()):
        run = run_enrollment(device, server, DuplexLink(), user_id,
                             population.template(i))
        if not run.outcome.accepted:
            print(f"enrollment refused for {user_id}", file=sys.stderr)
            return 1

    target = args.users // 2
    run = run_identification(device, server, DuplexLink(),
                             population.genuine_reading(target))
    print(f"genuine reading of user #{target}: identified="
          f"{run.outcome.identified} ({run.outcome.user_id}), "
          f"{run.compute_time_s * 1e3:.1f} ms, {run.wire_bytes:,} bytes")

    run = run_identification(device, server, DuplexLink(),
                             population.impostor_reading())
    print(f"stranger: identified={run.outcome.identified} "
          f"(server returned ⊥)")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.crypto.signatures import get_scheme
    from repro.engine.engine import IdentificationEngine
    from repro.protocols.simulation import TrafficMix, WorkloadSimulator

    params = _params_from(args)
    mix = TrafficMix(genuine=args.genuine, stranger=args.stranger,
                     noisy_genuine=round(1.0 - args.genuine - args.stranger, 9))
    scheme = get_scheme(args.scheme)
    store = IdentificationEngine(params, shards=args.engine_shards,
                                 workers=args.workers)
    if args.frontend:
        simulator = WorkloadSimulator.with_frontend(
            params, scheme, n_users=args.users, mix=mix, seed=args.seed,
            store=store)
    else:
        simulator = WorkloadSimulator(params, scheme, n_users=args.users,
                                      mix=mix, seed=args.seed, store=store)
    try:
        report = simulator.run(args.requests)
    finally:
        simulator.close()
    for line in report.summary_lines():
        print(line)
    for line in simulator.engine_stats().summary_lines():
        print(line)
    if args.frontend:
        for line in simulator.endpoint.stats().summary_lines():
            print(line)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.net.client import NetworkClient
    from repro.obs.export import (
        render_prometheus,
        render_table,
        render_traces,
    )

    if args.health:
        with NetworkClient(args.host, args.port,
                           timeout_s=args.timeout) as client:
            payload = client.health(deadline_s=args.timeout)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            parts = ", ".join(f"{k}={v}" for k, v in payload.items())
            print(f"health: {parts}")
        # Readiness drives the exit code so scripts (and CI probes) can
        # gate on `repro stats --health` directly.
        return 0 if payload.get("ready") else 1
    query = "traces" if args.traces else \
        ("metrics" if args.prometheus else "all")
    with NetworkClient(args.host, args.port,
                       timeout_s=args.timeout) as client:
        payload = client.stats(query=query, limit=args.limit)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.prometheus:
        print(render_prometheus(payload.get("metrics", [])), end="")
        return 0
    if args.traces:
        print(render_traces(payload.get("traces", [])), end="")
        return 0
    print(render_table(payload.get("metrics", [])), end="")
    server_stats = payload.get("server")
    if server_stats:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(server_stats.items()))
        print(f"server: {parts}")
    endpoint = payload.get("endpoint")
    if endpoint:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(endpoint.items())
                          if not isinstance(v, (dict, list)))
        print(f"endpoint: {parts}")
    return 0


def _serve_self_test(params, scheme, host: str, port: int) -> None:
    """One enrollment + identification + verification over a real socket."""
    import os

    from repro.biometrics.synthetic import BoundedUniformNoise, UserPopulation
    from repro.exceptions import ReproError
    from repro.net.client import RemoteEndpoint
    from repro.protocols.device import BiometricDevice
    from repro.protocols.runners import (
        run_enrollment,
        run_identification,
        run_verification,
    )
    from repro.protocols.transport import DuplexLink

    user_id = f"selftest-{os.getpid()}"
    population = UserPopulation(params, size=1,
                                noise=BoundedUniformNoise(params.t), seed=7)
    device = BiometricDevice(params, scheme, seed=b"serve-selftest")
    with RemoteEndpoint.connect(host, port) as remote:
        run = run_enrollment(device, remote, DuplexLink(), user_id,
                             population.template(0))
        if not run.outcome.accepted:
            raise ReproError(f"self-test enrollment refused for {user_id!r}")
        print(f"self-test enroll:   accepted={run.outcome.accepted} "
              f"({run.wire_bytes:,} wire bytes)")
        run = run_identification(device, remote, DuplexLink(),
                                 population.genuine_reading(0))
        if not run.outcome.identified or run.outcome.user_id != user_id:
            raise ReproError(f"self-test identification failed: "
                             f"{run.outcome!r}")
        print(f"self-test identify: identified=True ({run.outcome.user_id}, "
              f"{run.wire_bytes:,} wire bytes)")
        run = run_verification(device, remote, DuplexLink(), user_id,
                               population.genuine_reading(0))
        if not run.outcome.verified:
            raise ReproError(f"self-test verification failed: "
                             f"{run.outcome!r}")
        print(f"self-test verify:   verified={run.outcome.verified}")


def _parse_hostport(value: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` CLI operand."""
    host, sep, port = value.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ParameterError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def _cmd_serve(args: argparse.Namespace) -> int:
    import time
    from pathlib import Path

    from repro import obs
    from repro.crypto.signatures import get_scheme
    from repro.engine.engine import IdentificationEngine
    from repro.engine.journal import EnrollmentJournal, journal_path
    from repro.net.replication import JournalFollower
    from repro.net.server import NetworkServer
    from repro.protocols.server import AuthenticationServer
    from repro.service.frontend import ServiceFrontend

    obs.configure(tracing_enabled=not args.no_trace,
                  events_path=args.events or None)
    scheme = get_scheme(args.scheme)
    # --journal/--no-journal tri-state: None lets an existing journal in
    # the store directory decide; True creates one where needed.
    journal_flag = args.journal
    if args.store:
        engine = IdentificationEngine.open(args.store, workers=args.workers,
                                           journal=journal_flag)
        params = engine.params
    else:
        params = _params_from(args)
        engine = IdentificationEngine(params, shards=args.shards,
                                      workers=args.workers)
        if args.journal_dir or journal_flag:
            from repro.engine.lifecycle import ENTRY_FORMAT_TYPED
            journal_dir = Path(args.journal_dir or ".")
            # Typed entries so rotate/revoke work out of the box; an
            # existing record-format journal still opens as-is (the
            # format argument only applies to a fresh file).
            journal_file = journal_path(journal_dir)
            entry_format = ENTRY_FORMAT_TYPED \
                if not journal_file.exists() else None
            engine.attach_journal(EnrollmentJournal(
                journal_file, params=params, entry_format=entry_format))
    if args.follow and engine.journal is None:
        raise ParameterError(
            "--follow needs a journaled engine (pass --journal, "
            "--journal-dir, or a store directory carrying journal.log) "
            "so replicated records survive a standby restart")
    server = AuthenticationServer(params, scheme, store=engine)
    endpoint = server if args.serial else ServiceFrontend(
        server, max_batch=args.max_batch,
        batch_window_s=args.window_ms / 1e3,
        batch_linger_s=args.linger_ms / 1e3,
        workers=args.frontend_workers,
        submit_timeout_s=args.submit_timeout_ms / 1e3,
        adaptive=args.adaptive,
        latency_target_s=args.latency_target_ms / 1e3
        if args.latency_target_ms is not None else None)
    follower = None
    if args.follow:
        primary_host, primary_port = _parse_hostport(args.follow)
        follower = JournalFollower(engine, primary_host, primary_port)
    net = NetworkServer(endpoint, host=args.host, port=args.port,
                        handler_threads=args.handler_threads,
                        health_extra=follower.health_extra
                        if follower is not None else None)
    try:
        host, port = net.start()
        mode = "serial server" if args.serial else (
            "micro-batching frontend"
            + (", adaptive linger" if args.adaptive else ""))
        journaled = "journaled, " if engine.journal is not None else ""
        print(f"serving {len(engine):,} enrolled record(s) "
              f"on {host}:{port} ({journaled}{mode}, scheme={scheme.name}, "
              f"n={params.n})")
        if follower is not None:
            print(f"following primary {args.follow} "
                  f"(warm standby; lag via 'repro stats --health')")
        if args.self_test:
            _serve_self_test(params, scheme, host, port)
        else:
            print("press Ctrl-C to stop")
            while True:
                time.sleep(1.0)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        if follower is not None:
            follower.close()
        net.close()
        if endpoint is not server:
            endpoint.close()
        engine.close()
        obs.events.close()
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.engine.engine import compact_store

    stats = compact_store(args.store, shards=args.shards,
                          workers=args.workers)
    print(f"compacted {args.store}: kept {stats['rows_kept']} live "
          f"version(s) across {stats['identities']} identit(y/ies), "
          f"dropped {stats['rows_dropped']} revoked/superseded row(s)")
    if stats["journaled"]:
        print(f"fresh journal based at seq {stats['journal_base']}")
    return 0


def _cmd_lifecycle_bench(args: argparse.Namespace) -> int:
    from repro.analysis.lifecycle import run_lifecycle_bench

    report = run_lifecycle_bench(n_users=args.users,
                                 max_versions=args.versions,
                                 dimension=args.dimension,
                                 seed=args.seed)
    for line in report.summary_lines():
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fuzzy extractors for biometric identification "
                    "(ICDCS 2017 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    report = subparsers.add_parser(
        "report", help="print the Theorem 3 security report")
    _add_param_arguments(report)
    report.set_defaults(handler=_cmd_report)

    advise = subparsers.add_parser(
        "advise", help="size the dimension for a false-accept target")
    _add_param_arguments(advise)
    advise.add_argument("--target-bits", type=int, default=128,
                        help="false-accept exponent target (default: 128)")
    advise.set_defaults(handler=_cmd_advise)

    demo = subparsers.add_parser(
        "demo", help="run one enrollment + identification end to end")
    _add_param_arguments(demo)
    demo.add_argument("--users", type=int, default=10)
    demo.add_argument("--scheme", default="dsa-1024",
                      help="signature scheme name (default: dsa-1024)")
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(handler=_cmd_demo)

    simulate = subparsers.add_parser(
        "simulate", help="deployment workload simulation")
    _add_param_arguments(simulate)
    simulate.add_argument("--users", type=int, default=25)
    simulate.add_argument("--requests", type=int, default=100)
    simulate.add_argument("--genuine", type=float, default=0.8,
                          help="genuine traffic fraction (default: 0.8)")
    simulate.add_argument("--stranger", type=float, default=0.15,
                          help="stranger traffic fraction (default: 0.15)")
    simulate.add_argument("--scheme", default="dsa-1024")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--engine-shards", type=int, default=1,
                          help="shards of the identification engine the "
                               "workload is served from (default: 1)")
    simulate.add_argument("--workers", type=int, default=None,
                          help="engine worker threads (default: serial)")
    simulate.add_argument("--frontend", action="store_true",
                          help="route every request through the concurrent "
                               "service frontend (admission queue + "
                               "micro-batcher + verify pool) instead of "
                               "calling the server directly")
    simulate.set_defaults(handler=_cmd_simulate)

    serve = subparsers.add_parser(
        "serve",
        help="serve the stack over asyncio TCP (frontend or serial "
             "server, fresh engine or an mmap store directory)")
    _add_param_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default: 0 = ephemeral, printed "
                            "on startup)")
    serve.add_argument("--store", default="",
                       help="open this engine store directory instead of "
                            "starting empty (parameters come from its "
                            "manifest; --scheme must match the scheme the "
                            "store's users enrolled under — stored verify "
                            "keys are opaque bytes, so a mismatch is only "
                            "caught at challenge time)")
    serve.add_argument("--scheme", default="dsa-1024",
                       help="signature scheme name (default: dsa-1024)")
    serve.add_argument("--shards", type=int, default=4,
                       help="engine shard count for a fresh engine "
                            "(default: 4)")
    serve.add_argument("--workers", type=int, default=None,
                       help="engine shard worker threads (default: serial)")
    serve.add_argument("--serial", action="store_true",
                       help="serve the plain server directly instead of "
                            "the micro-batching frontend")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="frontend micro-batch size cap (default: 64)")
    serve.add_argument("--window-ms", type=float, default=20.0,
                       help="frontend micro-batch window cap, ms "
                            "(default: 20)")
    serve.add_argument("--linger-ms", type=float, default=2.0,
                       help="frontend micro-batch idle-gap linger, ms "
                            "(default: 2)")
    serve.add_argument("--submit-timeout-ms", type=float, default=250.0,
                       help="longest a full admission queue blocks a "
                            "submitter before the typed overload reply "
                            "(default: 250 — sub-second so backpressure "
                            "reaches clients while their budget is "
                            "still worth spending)")
    serve.add_argument("--adaptive", action="store_true", default=True,
                       help="tune the micro-batch linger online from "
                            "measured scan cost and queue sojourn, and "
                            "shed on persistent queue-age congestion "
                            "(CoDel-style); the serving default")
    serve.add_argument("--no-adaptive", action="store_false",
                       dest="adaptive",
                       help="pin the linger to --linger-ms and disable "
                            "queue-age shedding")
    serve.add_argument("--latency-target-ms", type=float, default=None,
                       help="queue-sojourn bound the adaptive controller "
                            "steers toward (default: --window-ms)")
    serve.add_argument("--frontend-workers", type=int, default=4,
                       help="frontend verify workers (default: 4)")
    serve.add_argument("--handler-threads", type=int, default=16,
                       help="transport handler thread bound (default: 16)")
    serve.add_argument("--journal", action="store_true", default=None,
                       dest="journal",
                       help="force a crash-safe enrollment journal on "
                            "(with --store: create journal.log in the "
                            "store directory if absent; default: attach "
                            "only when one already exists)")
    serve.add_argument("--no-journal", action="store_false", dest="journal",
                       help="never attach/create a journal, even when the "
                            "store directory carries one")
    serve.add_argument("--journal-dir", default="",
                       help="for a fresh (storeless) engine: directory to "
                            "create journal.log in (implies --journal)")
    serve.add_argument("--follow", default="",
                       help="run as a warm standby replicating HOST:PORT's "
                            "enrollment journal (requires a journaled "
                            "engine; parameters must match the primary's)")
    serve.add_argument("--self-test", action="store_true",
                       help="enroll + identify + verify once through a "
                            "real client connection, then exit")
    serve.add_argument("--events", default="",
                       help="append JSONL observability events (spans + "
                            "audit) to this path (default: off)")
    serve.add_argument("--no-trace", action="store_true",
                       help="disable request tracing (metrics stay on)")
    serve.set_defaults(handler=_cmd_serve)

    stats = subparsers.add_parser(
        "stats",
        help="scrape a running server's metrics and traces over the "
             "stats admin frames")
    stats.add_argument("--host", default="127.0.0.1",
                       help="server address (default: 127.0.0.1)")
    stats.add_argument("--port", type=int, required=True,
                       help="server port (printed by 'repro serve')")
    stats.add_argument("--timeout", type=float, default=10.0,
                       help="socket timeout, seconds (default: 10)")
    stats.add_argument("--prometheus", action="store_true",
                       help="emit Prometheus text exposition instead of "
                            "the human table")
    stats.add_argument("--json", action="store_true",
                       help="dump the full stats payload as JSON")
    stats.add_argument("--traces", action="store_true",
                       help="list recent request traces (per-span "
                            "durations) instead of metrics")
    stats.add_argument("--limit", type=int, default=0,
                       help="trace count cap for --traces (default: "
                            "server-side 50)")
    stats.add_argument("--health", action="store_true",
                       help="probe the health admin frame instead "
                            "(liveness + readiness: queue depth, overload, "
                            "degradation, journal offset, follower lag); "
                            "exit code 1 when not ready")
    stats.set_defaults(handler=_cmd_stats)

    compact = subparsers.add_parser(
        "compact",
        help="rewrite a store dropping revoked/superseded sketch versions",
        description="Garbage-collect a store directory: recover its full "
                    "state (journal included), keep only live versions "
                    "(active + verify-only), rewrite the checkpoint, and "
                    "start a fresh typed journal based at the current "
                    "operation count.  Also the upgrade path for stores "
                    "whose journal predates lifecycle entries.")
    compact.add_argument("store", help="store directory to compact")
    compact.add_argument("--shards", type=int, default=4,
                         help="shard count for the rewritten index")
    compact.add_argument("--workers", type=int, default=None,
                         help="worker threads for the rebuilt engine")
    compact.set_defaults(handler=_cmd_compact)

    lifecycle_bench = subparsers.add_parser(
        "lifecycle-bench",
        help="cross-sketch leakage + identification accuracy per "
             "version count",
        description="Enroll a population, re-enroll it round by round, "
                    "and report per-version-count residual entropy "
                    "(exact enumeration; the reusability guarantee), the "
                    "code-offset baseline's leakage contrast, and "
                    "identification accuracy over active versions.  "
                    "REPRO_BENCH_SMOKE=1 shrinks the run to CI scale.")
    lifecycle_bench.add_argument("--users", type=int, default=None,
                                 help="population size (default 32; "
                                      "smoke 6)")
    lifecycle_bench.add_argument("--versions", type=int, default=None,
                                 help="max live versions per identity "
                                      "(default 4; smoke 2)")
    lifecycle_bench.add_argument("--dimension", type=int, default=None,
                                 help="sketch dimension n (default 64; "
                                      "smoke 16)")
    lifecycle_bench.add_argument("--seed", type=int, default=2017)
    lifecycle_bench.set_defaults(handler=_cmd_lifecycle_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # surface clean errors, not tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    raise SystemExit(main())
