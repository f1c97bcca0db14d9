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

``engine-bench``
    Sketch-search throughput shootout: single-probe loop vs the batch
    kernel vs the sharded engine, on a synthetic N-record database
    (parity-checked while timed).  ``--sign-scheme NAME`` appends the
    signature round-trip (challenge → sign → verify) so the reported
    latency covers the full Fig. 3 flow.

``crypto-bench``
    Signature-kernel shootout: affine-reference vs Jacobian/wNAF scalar
    multiplication, per-scheme sign/verify (cold reference, fast, and
    precomputed-table paths), randomized batch verification at
    ``--batch-k`` signatures per multi-scalar pass, and end-to-end
    identification latency.  ``--backend auto|python|gmpy2|both``
    selects the integer kernel (``both`` runs one leg per backend and
    prints the shootout).  Appends each backend-tagged run to the
    ``BENCH_crypto.json`` trajectory artifact.

``service-bench``
    Closed-loop concurrent-serving shootout: the serial one-request-at-
    a-time loop vs the micro-batching service frontend, same engine and
    scheme, with throughput and p50/p95/p99 latency per phase, plus a
    verification leg measuring what the frontend's batched signature
    verification buys (``--verify-requests``).  Appends each run to the
    ``BENCH_service.json`` trajectory artifact; ``REPRO_BENCH_SMOKE=1``
    shrinks the default sizes.

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

``net-bench``
    Closed-loop multi-client identification bench over localhost TCP
    (``--verify-heavy`` switches to a 3:1 verification mix exercising
    the batched signature verification end-to-end; ``--pipeline N``
    switches to the single-connection shootout — a serial-client
    baseline vs N requests in flight on one pipelined connection;
    ``--overload`` switches to the overload bench — static vs adaptive
    frontend baselines, then mixed-deadline load at a multiple of the
    sustainable rate with shed-classification asserts), plus an
    overload probe showing queue-full backpressure surfacing
    client-side as ``ServiceOverloadError``.  Appends to the
    ``BENCH_service.json`` trajectory with ``"transport": "tcp"`` and
    the mix tag.

All numeric arguments default to the paper's Table II values
(the bench subcommands default to bench-sized dimensions instead).
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


def _cmd_service_bench(args: argparse.Namespace) -> int:
    from repro.service.bench import (
        run_obs_overhead_bench,
        run_service_bench,
        write_trajectory,
    )

    kwargs = dict(
        dimension=args.dimension,
        n_users=args.users,
        pool_users=args.pool_users,
        n_requests=args.requests,
        clients=args.clients,
        shards=args.shards,
        scheme=args.scheme,
        seed=args.seed,
        max_batch=args.max_batch,
        batch_window_s=args.window_ms / 1e3,
        batch_linger_s=args.linger_ms / 1e3,
        frontend_workers=args.workers,
        verify_requests=args.verify_requests,
    )
    if args.obs_overhead:
        overhead = run_obs_overhead_bench(repeats=args.obs_repeats, **kwargs)
        for line in overhead.instrumented.summary_lines():
            print(line)
        for line in overhead.summary_lines():
            print(line)
        if args.json:
            write_trajectory(overhead.instrumented, args.json,
                             extra={"obs": "instrumented"})
            write_trajectory(overhead.disabled, args.json,
                             extra={"obs": "disabled"})
            print(f"instrumented/disabled row pair appended to {args.json}")
        return 0
    report = run_service_bench(**kwargs)
    for line in report.summary_lines():
        print(line)
    if args.json:
        write_trajectory(report, args.json)
        print(f"trajectory appended to {args.json}")
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
    from repro.service.bench import write_trajectory

    report = run_lifecycle_bench(n_users=args.users,
                                 max_versions=args.versions,
                                 dimension=args.dimension,
                                 seed=args.seed)
    for line in report.summary_lines():
        print(line)
    if args.json:
        write_trajectory(report, args.json)
        print(f"trajectory appended to {args.json}")
    return 0


def _cmd_net_bench(args: argparse.Namespace) -> int:
    from repro.net.bench import (
        run_chaos_bench,
        run_net_bench,
        run_overload_bench,
        write_trajectory,
    )

    kwargs = dict(
        dimension=args.dimension,
        n_users=args.users,
        pool_users=args.pool_users,
        n_requests=args.requests,
        clients=args.clients,
        shards=args.shards,
        scheme=args.scheme,
        seed=args.seed,
        max_batch=args.max_batch,
        batch_window_s=args.window_ms / 1e3,
        batch_linger_s=args.linger_ms / 1e3,
        frontend_workers=args.workers,
    )
    if args.overload:
        if args.chaos or args.verify_heavy or args.pipeline > 1:
            raise ParameterError("--overload is exclusive with --chaos, "
                                 "--verify-heavy, and --pipeline")
        report = run_overload_bench(overload_factor=args.overload_factor,
                                    **kwargs)
    elif args.chaos:
        if args.verify_heavy:
            raise ParameterError("--chaos and --verify-heavy are exclusive")
        if args.pipeline > 1:
            raise ParameterError("--chaos and --pipeline are exclusive")
        report = run_chaos_bench(chaos_seed=args.chaos_seed, **kwargs)
    else:
        report = run_net_bench(verify_heavy=args.verify_heavy,
                               pipeline=args.pipeline, **kwargs)
    for line in report.summary_lines():
        print(line)
    if args.json:
        write_trajectory(report, args.json)
        print(f"trajectory appended to {args.json}")
    return 0


def _cmd_engine_bench(args: argparse.Namespace) -> int:
    from repro.engine.bench import run_engine_bench

    params = SystemParams(a=args.unit, k=args.units_per_interval,
                          v=args.intervals, t=args.threshold,
                          n=args.dimension)
    report = run_engine_bench(params, n_records=args.records,
                              n_probes=args.probes, shards=args.shards,
                              workers=args.workers, seed=args.seed,
                              sign_scheme=args.sign_scheme or None)
    for line in report.summary_lines():
        print(line)
    return 0


def _cmd_crypto_bench(args: argparse.Namespace) -> int:
    from repro.crypto import backend as crypto_backend
    from repro.crypto.bench import run_crypto_bench, write_trajectory

    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    if args.backend == "both":
        legs = ["python"]
        if "gmpy2" in crypto_backend.available_backends():
            legs.append("gmpy2")
        else:
            print("gmpy2 backend unavailable; running the python leg only")
    else:
        legs = [args.backend]

    reports = []
    for leg in legs:
        with crypto_backend.use_backend(leg):
            report = run_crypto_bench(
                iterations=args.iterations,
                schemes=schemes,
                identify_scheme=(None if args.no_identify
                                 else args.identify_scheme),
                identify_users=args.users,
                identify_requests=args.requests,
                dimension=args.dimension,
                batch_scheme=args.batch_scheme or None,
                batch_k=args.batch_k,
                seed=args.seed,
            )
        reports.append(report)
        for line in report.summary_lines():
            print(line)
        if args.json:
            write_trajectory(report, args.json)
            print(f"trajectory appended to {args.json}")

    if len(reports) == 2:
        py, gm = reports
        scalar_x = (py.scalar_mult["wnaf_variable"]
                    / gm.scalar_mult["wnaf_variable"])
        comb_x = py.scalar_mult["fixed_base"] / gm.scalar_mult["fixed_base"]
        verify_x = min(
            py.schemes[s]["verify_table"] / gm.schemes[s]["verify_table"]
            for s in py.schemes)
        print(f"backend shootout (gmpy2 over python): "
              f"wNAF scalar mult x{scalar_x:.1f}, "
              f"fixed-base comb x{comb_x:.1f}, "
              f"warm-table verify x{verify_x:.1f} (slowest scheme)")
        if args.assert_speedup > 0:
            if scalar_x < args.assert_speedup or \
                    verify_x < args.assert_speedup:
                print(f"FAIL: expected >= x{args.assert_speedup:.1f} on "
                      f"scalar mult and warm verify, got x{scalar_x:.1f} "
                      f"and x{verify_x:.1f}")
                return 1
            print(f"speedup assertion passed "
                  f"(>= x{args.assert_speedup:.1f})")
    elif args.assert_speedup > 0:
        print("speedup assertion skipped: only one backend leg ran")
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

    engine_bench = subparsers.add_parser(
        "engine-bench",
        help="sketch-search throughput: loop vs batch vs sharded")
    engine_bench.add_argument("--unit", "-a", type=int, default=100,
                              help="number-line unit a (default: 100)")
    engine_bench.add_argument("--units-per-interval", "-k", type=int,
                              default=4,
                              help="units per interval k, even (default: 4)")
    engine_bench.add_argument("--intervals", "-v", type=int, default=500,
                              help="interval count v (default: 500)")
    engine_bench.add_argument("--threshold", "-t", type=int, default=100,
                              help="Chebyshev threshold t (default: 100)")
    engine_bench.add_argument("--dimension", "-n", type=int, default=128,
                              help="template dimension n (default: 128 — "
                                   "bench-sized, not the paper's 5000)")
    engine_bench.add_argument("--records", type=int, default=10_000,
                              help="enrolled sketches N (default: 10000)")
    engine_bench.add_argument("--probes", type=int, default=64,
                              help="probe batch size B (default: 64)")
    engine_bench.add_argument("--shards", type=int, default=4,
                              help="engine shard count W (default: 4)")
    engine_bench.add_argument("--workers", type=int, default=None,
                              help="shard worker threads (default: serial)")
    engine_bench.add_argument("--seed", type=int, default=0)
    engine_bench.add_argument("--sign-scheme", default="",
                              help="append the challenge->sign->verify leg "
                                   "with this signature scheme (default: "
                                   "search only)")
    engine_bench.set_defaults(handler=_cmd_engine_bench)

    crypto_bench = subparsers.add_parser(
        "crypto-bench",
        help="signature-kernel shootout: affine vs wNAF/Jacobian, "
             "cold vs warm-table verify, end-to-end identify")
    crypto_bench.add_argument("--iterations", type=int, default=8,
                              help="iterations per measurement (default: 8)")
    crypto_bench.add_argument("--schemes",
                              default="ecdsa-p-256,schnorr-p-256,dsa-1024",
                              help="comma-separated scheme names")
    crypto_bench.add_argument("--identify-scheme", default="ecdsa-p-256",
                              help="scheme for the end-to-end identification "
                                   "flow (default: ecdsa-p-256)")
    crypto_bench.add_argument("--no-identify", action="store_true",
                              help="skip the end-to-end identification flow")
    crypto_bench.add_argument("--batch-scheme", default="schnorr-p-256",
                              help="scheme for the randomized batch-verify "
                                   "leg (default: schnorr-p-256; empty "
                                   "string to skip)")
    crypto_bench.add_argument("--batch-k", type=int, default=32,
                              help="batch size for the batch-verify leg "
                                   "(default: 32)")
    crypto_bench.add_argument("--users", type=int, default=8,
                              help="enrolled users for the identify flow")
    crypto_bench.add_argument("--requests", type=int, default=8,
                              help="identification requests per pass")
    crypto_bench.add_argument("--dimension", "-n", type=int, default=256,
                              help="template dimension for the identify flow "
                                   "(default: 256 — bench-sized)")
    crypto_bench.add_argument("--seed", type=int, default=0)
    crypto_bench.add_argument("--backend", default="auto",
                              choices=("auto", "python", "gmpy2", "both"),
                              help="integer-kernel backend: auto picks "
                                   "gmpy2 when importable; both runs a "
                                   "python leg then a gmpy2 leg and prints "
                                   "the shootout (default: auto)")
    crypto_bench.add_argument("--assert-speedup", type=float, default=0.0,
                              help="with --backend both: exit non-zero "
                                   "unless the gmpy2 leg beats python by "
                                   "this factor on scalar mult and warm "
                                   "verify (default: 0 = no assertion)")
    crypto_bench.add_argument("--json", default="BENCH_crypto.json",
                              help="trajectory artifact path (empty string "
                                   "to skip writing)")
    crypto_bench.set_defaults(handler=_cmd_crypto_bench)

    service_bench = subparsers.add_parser(
        "service-bench",
        help="concurrent serving shootout: serial loop vs micro-batched "
             "frontend on one engine, throughput + latency percentiles")
    service_bench.add_argument("--users", type=int, default=None,
                               help="enrolled records in the engine "
                                    "(default: 100000; 30000 under "
                                    "REPRO_BENCH_SMOKE=1)")
    service_bench.add_argument("--pool-users", type=int, default=16,
                               help="genuinely enrolled users driving the "
                                    "probes (default: 16)")
    service_bench.add_argument("--requests", type=int, default=None,
                               help="identifications per phase (default: "
                                    "256; 128 under smoke)")
    service_bench.add_argument("--clients", type=int, default=None,
                               help="closed-loop client threads (default: "
                                    "32; 16 under smoke)")
    service_bench.add_argument("--dimension", "-n", type=int, default=128,
                               help="template dimension (default: 128 — "
                                    "bench-sized, not the paper's 5000)")
    service_bench.add_argument("--shards", type=int, default=4,
                               help="engine shard count (default: 4)")
    service_bench.add_argument("--scheme", default="dsa-1024",
                               help="signature scheme for both phases "
                                    "(default: dsa-1024)")
    service_bench.add_argument("--max-batch", type=int, default=64,
                               help="micro-batch size cap (default: 64)")
    service_bench.add_argument("--window-ms", type=float, default=50.0,
                               help="micro-batch window cap, ms (default: 50)")
    service_bench.add_argument("--linger-ms", type=float, default=4.0,
                               help="micro-batch idle-gap linger, ms "
                                    "(default: 4)")
    service_bench.add_argument("--workers", type=int, default=4,
                               help="frontend verify workers (default: 4)")
    service_bench.add_argument("--verify-requests", type=int, default=None,
                               help="verifications for the batched-verify "
                                    "leg (default: same as --requests; 0 "
                                    "skips the leg)")
    service_bench.add_argument("--seed", type=int, default=0)
    service_bench.add_argument("--json", default="BENCH_service.json",
                               help="trajectory artifact path (empty string "
                                    "to skip writing)")
    service_bench.add_argument("--obs-overhead", action="store_true",
                               help="run the bench twice — observability "
                                    "on vs off — and append the row pair "
                                    "(tagged obs=instrumented/disabled) "
                                    "with the fractional overhead")
    service_bench.add_argument("--obs-repeats", type=int, default=1,
                               help="repeats per mode for --obs-overhead; "
                                    "the fastest run per mode is kept "
                                    "(default: 1)")
    service_bench.set_defaults(handler=_cmd_service_bench)

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

    net_bench = subparsers.add_parser(
        "net-bench",
        help="closed-loop multi-client identification bench over "
             "localhost TCP, with a queue-full backpressure probe")
    net_bench.add_argument("--users", type=int, default=None,
                           help="enrolled records in the engine "
                                "(default: 50000; 10000 under "
                                "REPRO_BENCH_SMOKE=1)")
    net_bench.add_argument("--pool-users", type=int, default=16,
                           help="genuinely enrolled users driving the "
                                "probes (default: 16)")
    net_bench.add_argument("--requests", type=int, default=None,
                           help="identifications in the measured phase "
                                "(default: 192; 64 under smoke)")
    net_bench.add_argument("--clients", type=int, default=None,
                           help="closed-loop client connections (default: "
                                "16; 8 under smoke)")
    net_bench.add_argument("--dimension", "-n", type=int, default=128,
                           help="template dimension (default: 128 — "
                                "bench-sized, not the paper's 5000)")
    net_bench.add_argument("--shards", type=int, default=4,
                           help="engine shard count (default: 4)")
    net_bench.add_argument("--scheme", default="dsa-1024",
                           help="signature scheme (default: dsa-1024)")
    net_bench.add_argument("--max-batch", type=int, default=64,
                           help="micro-batch size cap (default: 64)")
    net_bench.add_argument("--window-ms", type=float, default=50.0,
                           help="micro-batch window cap, ms (default: 50)")
    net_bench.add_argument("--linger-ms", type=float, default=4.0,
                           help="micro-batch idle-gap linger, ms "
                                "(default: 4)")
    net_bench.add_argument("--workers", type=int, default=4,
                           help="frontend verify workers (default: 4)")
    net_bench.add_argument("--verify-heavy", action="store_true",
                           help="switch the measured mix to 3 claimed-"
                                "identity verifications per identification, "
                                "exercising the frontend's batched signature "
                                "verification over the wire (rows tagged "
                                "'verify-heavy' in the trajectory)")
    net_bench.add_argument("--chaos", action="store_true",
                           help="run the fault-injection bench instead: "
                                "primary + warm standby, wire faults "
                                "(drop/truncate/delay) and batcher crashes "
                                "injected, primary killed mid-phase; "
                                "asserts zero lost and zero wrongly-"
                                "answered requests (rows tagged 'chaos'; "
                                "exclusive with --verify-heavy)")
    net_bench.add_argument("--chaos-seed", type=int, default=0,
                           help="seed for the deterministic fault "
                                "schedule (default: 0)")
    net_bench.add_argument("--pipeline", type=int, default=0,
                           help="window for the single-connection "
                                "pipelining shootout: a serial-client "
                                "baseline phase, then N requests in "
                                "flight on one pipelined connection "
                                "(default: 0 = classic multi-client "
                                "bench; exclusive with --chaos and "
                                "--verify-heavy)")
    net_bench.add_argument("--overload", action="store_true",
                           help="run the overload bench instead: static "
                                "and adaptive frontend legs over one "
                                "engine, closed-loop baselines on each, "
                                "then an open-loop phase offering "
                                "--overload-factor times the sustainable "
                                "rate with mixed deadline budgets; "
                                "asserts zero wrongly-answered requests, "
                                "in-deadline goodput >= 70% of baseline, "
                                "and that every shed was provably expired "
                                "or over-capacity (rows tagged 'overload'; "
                                "exclusive with --chaos, --verify-heavy, "
                                "and --pipeline)")
    net_bench.add_argument("--overload-factor", type=float, default=3.0,
                           help="offered-load multiple over the measured "
                                "sustainable baseline in the overload "
                                "phase (default: 3.0; accepted range "
                                "1.5..4)")
    net_bench.add_argument("--seed", type=int, default=0)
    net_bench.add_argument("--json", default="BENCH_service.json",
                           help="trajectory artifact path (empty string "
                                "to skip writing)")
    net_bench.set_defaults(handler=_cmd_net_bench)

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
    lifecycle_bench.add_argument("--json", default="BENCH_service.json",
                                 help="trajectory artifact to append to "
                                      "('' disables)")
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
