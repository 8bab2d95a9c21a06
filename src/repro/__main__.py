"""Command-line front end: regenerate the paper's tables from the shell.

    python -m repro table1            # resource model vs Table 1
    python -m repro table2            # framework comparison (Table 2)
    python -m repro table3            # ridge regression (Table 3)
    python -m repro recommender       # Section 6 case study
    python -m repro portfolio         # Section 6 case study
    python -m repro schedule -b 8     # FSM schedule summary
    python -m repro serving -b 32     # communication-bottleneck analysis
    python -m repro demo              # run a private mat-vec end to end
    python -m repro serve --clients 4 # concurrent serving + telemetry
    python -m repro gateway -p 7788   # TCP gateway for remote evaluators
    python -m repro connect -p 7788 --row 1 -x 0.5,0.25   # query it
    python -m repro chaos --seed 7 --sessions 20   # fault-injection suite
"""

from __future__ import annotations

import argparse
import sys


def cmd_table1(args) -> str:
    from repro.accel.resources import ResourceModel

    return ResourceModel().model_report()


def cmd_table2(args) -> str:
    from repro.perf.comparison import Table2

    return Table2.build().format()


def cmd_table3(args) -> str:
    from repro.apps.ridge import RidgeRuntimeModel

    return RidgeRuntimeModel().format_table()


def cmd_recommender(args) -> str:
    from repro.apps.recommender import RecommenderRuntimeModel

    run = RecommenderRuntimeModel().movielens_claim()
    return (
        f"MovieLens iteration: {run.baseline_hours:.1f} h -> "
        f"{run.accelerated_hours:.2f} h ({run.improvement:.1%} improvement; "
        "paper: 2.9 h -> ~1 h, 65-69%)"
    )


def cmd_portfolio(args) -> str:
    from repro.apps.portfolio import PortfolioRuntimeModel

    timing = PortfolioRuntimeModel().analysis_time_s()
    return (
        f"252 rounds, size-2 portfolio: TinyGarble {timing.tinygarble_s:.3f} s, "
        f"MAXelerator {timing.maxelerator_s * 1e3:.2f} ms "
        f"({timing.speedup:.0f}x; paper: 1.33 s vs 15.23 ms)"
    )


def cmd_schedule(args) -> str:
    from repro.accel.schedule import schedule_rounds
    from repro.accel.tree_mac import build_scheduled_mac

    smc = build_scheduled_mac(args.bitwidth)
    schedule = schedule_rounds(smc, 5)
    return "\n".join(
        [
            f"MAXelerator FSM schedule, b={args.bitwidth}:",
            f"  cores: {smc.n_cores} "
            f"(segment 1: {smc.n_seg1_cores}, segment 2: {smc.n_seg2_cores})",
            f"  steady-state cycles/MAC: {schedule.steady_state_cycles_per_mac}",
            f"  pipeline latency: {schedule.pipeline_latency_cycles} cycles "
            f"({schedule.pipeline_latency_cycles / 3:.1f} stages)",
            f"  utilisation: {schedule.utilization():.1%}, "
            f"idle cores: {schedule.idle_cores()}",
        ]
    )


def cmd_serving(args) -> str:
    from repro.perf.system import ServingModel

    return ServingModel(args.bitwidth).format_report()


def cmd_sweep(args) -> str:
    from repro.perf.sweep import format_sweep, throughput_sweep

    return format_sweep(throughput_sweep(range(4, 66, 4)))


def cmd_demo(args) -> str:
    import numpy as np

    from repro.apps.matmul import PrivateMatVec
    from repro.fixedpoint import Q16_8

    rng = np.random.default_rng(args.seed)
    matrix = rng.uniform(-2, 2, size=(2, 3)).round(2)
    vector = rng.uniform(-2, 2, size=3).round(2)
    pm = PrivateMatVec(matrix, Q16_8, seed=args.seed)
    report = pm.run_with_client(vector)
    lines = [
        f"A = {matrix.tolist()}  (server-private)",
        f"x = {vector.tolist()}  (client-private)",
        f"privately computed A@x = {report.result.round(4).tolist()}",
        f"plaintext check        = {(matrix @ vector).round(4).tolist()}",
        f"tables: {report.tables} ({32 * report.tables} bytes), "
        f"MACs: {report.n_macs}",
    ]
    return "\n".join(lines)


def cmd_serve(args) -> str:
    """Drive the concurrent serving layer and print its telemetry."""
    import threading

    import numpy as np

    from repro.accel.fleet import FleetModel
    from repro.fixedpoint import Q8_4
    from repro.host import CloudServer
    from repro.serve import ServingConfig, ServingServer
    from repro.telemetry import render_text

    rng = np.random.default_rng(args.seed)
    model = rng.uniform(-2, 2, size=(4, args.rounds)).round(2)
    server = CloudServer(model, Q8_4, pool_size=args.pool, seed=args.seed)
    config = ServingConfig(workers=args.workers, queue_depth=4 * args.clients)
    expected = []
    got = []
    lock = threading.Lock()

    def one_client(cid: int):
        crng = np.random.default_rng(1000 + cid)
        for _ in range(args.requests):
            row = int(crng.integers(0, model.shape[0]))
            x = crng.uniform(-1, 1, size=model.shape[1]).round(2)
            result = serving.query(row, x)
            with lock:
                expected.append(float(model[row] @ x))
                got.append(result)

    with ServingServer(server, config) as serving:
        threads = [
            threading.Thread(target=one_client, args=(c,)) for c in range(args.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    worst = max(abs(e - g) for e, g in zip(expected, got))
    plan = FleetModel().plan(Q8_4.total_bits)
    lines = [
        f"served {len(got)} requests from {args.clients} clients "
        f"({args.workers} workers, pool={args.pool})",
        f"max |error| vs plaintext: {worst:.4f}",
        f"pool hit rate: {server.stats.pool_hit_rate:.2f}",
        f"fleet projection (b={Q8_4.total_bits}, {plan.units} units): "
        f"{plan.refills_per_second(model.shape[1]):,.0f} pre-garbled req/s",
        render_text(server.telemetry.snapshot(), title="serving telemetry"),
    ]
    return "\n".join(lines)


def cmd_gateway(args) -> str:
    """Run the TCP gateway: remote evaluators connect over the wire."""
    import time

    import numpy as np

    from repro.fixedpoint import Q8_4
    from repro.host import CloudServer
    from repro.net import GCGateway
    from repro.serve import ServingConfig
    from repro.telemetry import render_text, render_traffic

    rng = np.random.default_rng(args.seed)
    model = rng.uniform(-2, 2, size=(args.model_rows, args.rounds)).round(2)
    server = CloudServer(model, Q8_4, pool_size=args.pool, seed=args.seed)
    config = ServingConfig(
        workers=args.workers,
        queue_depth=4 * args.workers,
        recv_timeout_s=args.recv_timeout,
        backend=args.backend,
    )
    store = None
    if args.store:
        from repro.recover import JsonlSessionStore

        store = JsonlSessionStore(args.store, telemetry=server.telemetry)
    if args.gateways > 1:
        # fleet mode: N members, one shared (lease-fenced) session store;
        # clients failover between the printed addresses
        from repro.fleet import GatewayGroup

        group = GatewayGroup(
            server, n_gateways=args.gateways, store=store,
            config=config, host=args.host,
        )
        group.start(bind=True)
        try:
            addrs = ", ".join(f"{h}:{p}" for h, p in group.addresses)
            print(
                f"gateway group ({args.gateways} members) listening on {addrs} "
                f"(model {model.shape[0]}x{model.shape[1]}, Q8.4); "
                + (
                    f"serving for {args.serve_seconds:g}s"
                    if args.serve_seconds
                    else "Ctrl-C to stop"
                ),
                flush=True,
            )
            if args.serve_seconds:
                time.sleep(args.serve_seconds)
            else:
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            group.stop()
        snapshot = server.telemetry.snapshot()
        return "\n".join(
            [
                f"sessions: {snapshot['counters'].get('gateway.sessions', 0)}, "
                f"queries: {snapshot['counters'].get('gateway.queries', 0)}, "
                f"lease steals: "
                f"{snapshot['counters'].get('recover.lease.steals', 0)}",
                render_traffic(snapshot),
                render_text(snapshot, title="gateway group telemetry"),
            ]
        )
    with GCGateway(
        server, host=args.host, port=args.port, config=config, store=store
    ) as gateway:
        # SIGTERM drains gracefully: stop accepting, checkpoint in-flight
        # sessions at their next round boundary, tell clients to resume
        gateway.install_signal_handlers()
        host, port = gateway.address
        print(
            f"gateway listening on {host}:{port} "
            f"(model {model.shape[0]}x{model.shape[1]}, Q8.4, "
            f"{args.workers} workers, pool={args.pool}); "
            + (
                f"serving for {args.serve_seconds:g}s"
                if args.serve_seconds
                else "Ctrl-C to stop"
            ),
            flush=True,
        )
        try:
            if args.serve_seconds:
                time.sleep(args.serve_seconds)
            else:
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:
            pass
    snapshot = server.telemetry.snapshot()
    return "\n".join(
        [
            f"sessions: {snapshot['counters'].get('gateway.sessions', 0)}, "
            f"queries: {snapshot['counters'].get('gateway.queries', 0)}, "
            f"session errors: {snapshot['counters'].get('gateway.session_errors', 0)}",
            render_traffic(snapshot),
            render_text(snapshot, title="gateway telemetry"),
        ]
    )


def cmd_connect(args) -> str:
    """One remote query against a running gateway."""
    import numpy as np

    from repro.net import RemoteAnalyticsClient

    x = np.array([float(v) for v in args.x.split(",")])
    with RemoteAnalyticsClient(
        args.host, args.port, recv_timeout_s=args.recv_timeout,
        backend=args.backend,
    ) as client:
        d = client.descriptor
        if x.shape != (d.rounds,):
            return (
                f"error: the gateway's model takes {d.rounds} inputs per query, "
                f"got {x.shape[0]} (-x takes comma-separated floats)"
            )
        result = client.query_row(args.row, x)
        return "\n".join(
            [
                f"connected: protocol v{d.protocol_version}, Q{d.total_bits}.{d.frac_bits}, "
                f"{d.n_rows} rows x {d.rounds} columns, "
                f"backend {client.backend}, circuit {d.fingerprint[:16]}...",
                f"<model[{args.row}], x> = {result}",
                f"wire traffic sent: {client.endpoint.sent.payload_bytes} B "
                f"in {client.endpoint.sent.messages} messages",
            ]
        )


def cmd_chaos(args):
    """Run the seeded fault-injection suite against the full stack."""
    from repro.testkit import ChaosConfig, ChaosRunner

    progress = (
        (lambda v: print(f"  session {v.session}: {v.verdict}", flush=True))
        if args.verbose
        else None
    )
    if args.replay:
        # re-execute a recorded fault plan log verbatim: same plans,
        # same workloads, fresh verdicts
        report = ChaosRunner.replay(args.replay, progress=progress)
    else:
        transports = tuple(
            t.strip() for t in args.transports.split(",") if t.strip()
        )
        config = ChaosConfig(
            sessions=args.sessions,
            seed=args.seed,
            transports=transports,
            recv_timeout_s=args.recv_timeout,
            deadline_s=args.deadline,
            max_retries=args.max_retries,
            profile=args.profile,
            gateways=args.gateways,
            rounds=args.rounds,
        )
        runner = ChaosRunner(config)
        report = runner.run(progress=progress)
    if args.log:
        report.write_log(args.log)
    # a violation is the one outcome the conformance contract forbids:
    # fail the process so CI goes red and uploads the replay log
    return report.format(), (0 if report.ok else 1)


COMMANDS = {
    "table1": cmd_table1,
    "table2": cmd_table2,
    "table3": cmd_table3,
    "recommender": cmd_recommender,
    "portfolio": cmd_portfolio,
    "schedule": cmd_schedule,
    "serving": cmd_serving,
    "sweep": cmd_sweep,
    "demo": cmd_demo,
    "serve": cmd_serve,
    "gateway": cmd_gateway,
    "connect": cmd_connect,
    "chaos": cmd_chaos,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MAXelerator (DAC'18) reproduction — regenerate paper artefacts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name in ("schedule", "serving"):
            p.add_argument("-b", "--bitwidth", type=int, default=8, choices=(8, 16, 32, 64))
        if name == "demo":
            p.add_argument("--seed", type=int, default=0)
        if name == "serve":
            p.add_argument("--clients", type=int, default=4)
            p.add_argument("--requests", type=int, default=2)
            p.add_argument("--workers", type=int, default=2)
            p.add_argument("--pool", type=int, default=4)
            p.add_argument("--rounds", type=int, default=2)
            p.add_argument("--seed", type=int, default=0)
        if name == "gateway":
            p.add_argument("--host", default="127.0.0.1")
            p.add_argument("-p", "--port", type=int, default=0,
                           help="0 picks a free port and prints it")
            p.add_argument("--workers", type=int, default=2)
            p.add_argument("--pool", type=int, default=4)
            p.add_argument("--rounds", type=int, default=2)
            p.add_argument("--model-rows", type=int, default=4)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--recv-timeout", type=float, default=None)
            p.add_argument("--serve-seconds", type=float, default=0.0,
                           help="serve this long then exit (0 = until Ctrl-C)")
            p.add_argument("--gateways", type=int, default=1,
                           help=">1 runs a gateway group sharing one "
                                "session store (each member picks a port)")
            p.add_argument("--store", default=None, metavar="SESSIONS.jsonl",
                           help="JSONL session store path (survives restarts; "
                                "shared in fleet mode)")
            p.add_argument("--backend", default=None, choices=("gc", "he"),
                           help="default private-MAC backend granted to "
                                "clients that don't request one (default: "
                                "REPRO_BACKEND, then gc)")
        if name == "connect":
            p.add_argument("--host", default="127.0.0.1")
            p.add_argument("-p", "--port", type=int, required=True)
            p.add_argument("--row", type=int, default=0)
            p.add_argument("-x", default="0.5,0.25",
                           help="comma-separated client vector")
            p.add_argument("--recv-timeout", type=float, default=None)
            p.add_argument("--backend", default=None, choices=("gc", "he"),
                           help="require this private-MAC backend (default: "
                                "accept the gateway's)")
        if name == "chaos":
            p.add_argument("--sessions", type=int, default=20)
            p.add_argument("--seed", type=int, default=7)
            p.add_argument("--transports", default="memory,socket",
                           help="comma-separated: memory, socket")
            p.add_argument("--recv-timeout", type=float, default=0.25)
            p.add_argument("--deadline", type=float, default=15.0)
            p.add_argument("--max-retries", type=int, default=1)
            p.add_argument("--profile", default="default",
                           choices=("default", "recovery", "handoff",
                                    "backends", "tenants", "processes",
                                    "slo"),
                           help="fault profile: classic wire faults, "
                                "disconnect/shed/stall recovery plans, "
                                "multi-gateway kill/drain handoffs, the "
                                "recovery+handoff mix against HE-backed "
                                "sessions, "
                                "poison/stall/disconnect tenant-isolation "
                                "faults under the ring scheduler, "
                                "SIGKILL/SIGTERM/TCP-cut faults against a "
                                "fleet of real gateway subprocesses "
                                "sharing one store file, or recovery "
                                "faults against a gateway whose SLO "
                                "controller is mid-adaptation")
            p.add_argument("--gateways", type=int, default=3,
                           help="fleet size for --profile "
                                "handoff/backends/processes")
            p.add_argument("--rounds", type=int, default=2,
                           help="MAC rounds per session (the processes "
                                "profile draws its round triggers "
                                "below this)")
            p.add_argument("--log", default=None,
                           help="write a JSONL replay log here")
            p.add_argument("--replay", default=None, metavar="LOG.jsonl",
                           help="re-execute the fault plans recorded in a "
                                "replay log instead of drawing from a seed")
            p.add_argument("-v", "--verbose", action="store_true",
                           help="print each verdict as it lands")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    code = 0
    try:
        result = COMMANDS[args.command](args)
        if isinstance(result, tuple):  # (text, exit_code) commands
            result, code = result
        print(result)
    except BrokenPipeError:  # e.g. `python -m repro sweep | head`
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
