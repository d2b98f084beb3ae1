"""CLI front end: ``python -m repro.serve {http,loadgen}``.

``http``
    Register one or more models and serve the JSON-over-HTTP endpoint
    until interrupted::

        python -m repro.serve http --model resnet18 --width-mult 0.25 --port 8707
        curl -s localhost:8707/v1/models
        curl -s -X POST localhost:8707/v1/infer \\
            -d '{"model": "resnet18", "inputs": [[[0,0,0], ...]]}'

``loadgen``
    In-process benchmark (no sockets in the measured path): registers the
    model, runs an open- or closed-loop load against the dynamic batcher
    and prints throughput, p50/p95/p99 latency and the batch-size
    histogram — ``--compare-serial`` adds the ``max_batch_size=1`` run::

        python -m repro.serve loadgen --model resnet18 --width-mult 0.125 \\
            --requests 64 --concurrency 16 --max-batch 8 --compare-serial
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from .. import obs
from ..obs.slo import SLOConfig
from .batching import BatchPolicy
from .loadgen import closed_loop, open_loop
from .scheduler import SchedulerConfig
from .service import InferenceService

__all__ = ["main"]


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", action="append", default=None, metavar="ARCH[:NAME]",
                   help="architecture to register (resnet18/34, vgg16/19/16x5/16x7); "
                        "repeatable; default resnet18")
    p.add_argument("--image", type=int, default=32, help="square input size (default 32)")
    p.add_argument("--width-mult", type=float, default=0.25,
                   help="channel width multiplier (default 0.25)")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--weights", default=None, metavar="PATH",
                   help="optional save_weights .npz to load into the (single) model")


def _add_policy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-batch", type=int, default=8, help="max coalesced rows (default 8)")
    p.add_argument("--max-delay-ms", type=float, default=2.0,
                   help="max queueing delay before a partial batch flushes (default 2)")
    p.add_argument("--max-workspace-mb", type=float, default=None,
                   help="per-dispatch workspace budget in MiB (default unbounded)")
    p.add_argument("--queue-depth", type=int, default=256, help="admission bound (default 256)")
    p.add_argument("--timeout-ms", type=float, default=1000.0,
                   help="default request deadline (default 1000)")
    p.add_argument("--telemetry", action="store_true",
                   help="enable instrumentation (obs.enable): spans, request "
                        "traces and /metrics content")
    p.add_argument("--slo-target-ms", type=float, default=None, metavar="MS",
                   help="enable SLO tracking: latency target in ms")
    p.add_argument("--slo-error-budget", type=float, default=0.01,
                   help="allowed bad fraction (default 0.01 = 99%% SLO)")
    p.add_argument("--slo-window-s", type=float, default=300.0,
                   help="slow burn window seconds (default 300)")
    p.add_argument("--slo-fast-window-s", type=float, default=30.0,
                   help="fast burn window seconds (default 30)")


def _build_service(args: argparse.Namespace) -> InferenceService:
    ws = None if args.max_workspace_mb is None else int(args.max_workspace_mb * 1024 * 1024)
    if args.telemetry:
        obs.enable()
        # Long-running server: bound the span forest (the per-trace ring
        # has its own fixed bound).
        obs.get_tracer().set_root_limit(4096)
    slo = None
    if args.slo_target_ms is not None:
        slo = SLOConfig(
            latency_target_ms=args.slo_target_ms,
            error_rate_target=args.slo_error_budget,
            window_s=args.slo_window_s,
            fast_window_s=args.slo_fast_window_s,
        )
    service = InferenceService(
        config=SchedulerConfig(
            policy=BatchPolicy(
                max_batch_size=args.max_batch,
                max_queue_delay_ms=args.max_delay_ms,
                max_workspace_bytes=ws,
            ),
            max_queue_depth=args.queue_depth,
            default_timeout_ms=args.timeout_ms,
            slo=slo,
        )
    )
    specs = args.model or ["resnet18"]
    for spec in specs:
        arch, _, name = spec.partition(":")
        service.registry.register(
            name or arch, arch=arch, image=args.image,
            width_mult=args.width_mult, classes=args.classes,
        )
        print(f"[serve] registered {name or arch!r} ({arch}), "
              f"{service.registry.get(name or arch).executables_resolved} executables warmed")
    if args.weights:
        if len(specs) != 1:
            raise SystemExit("--weights requires exactly one --model")
        arch, _, name = specs[0].partition(":")
        service.registry.load_weights(name or arch, args.weights)
        print(f"[serve] loaded weights from {args.weights}")
    return service


async def _run_http(args: argparse.Namespace) -> int:
    service = _build_service(args)
    async with service:
        host, port = await service.serve_http(args.host, args.port)
        print(f"[serve] listening on http://{host}:{port} "
              f"(/healthz, /metrics, /v1/models, /v1/stats, POST /v1/infer)")
        try:
            await asyncio.Event().wait()  # serve until interrupted
        except asyncio.CancelledError:
            pass
    return 0


async def _run_loadgen(args: argparse.Namespace) -> int:
    service = _build_service(args)
    model = (args.model or ["resnet18"])[0].partition(":")[0]
    results = {}
    async with service:
        if args.mode == "closed":
            results["batched"] = await closed_loop(
                service, model, requests=args.requests, concurrency=args.concurrency,
            )
        else:
            results["batched"] = await open_loop(
                service, model, requests=args.requests, rate_rps=args.rate,
            )
    if args.compare_serial:
        serial = InferenceService(
            config=SchedulerConfig(
                policy=BatchPolicy(max_batch_size=1, max_queue_delay_ms=0.0),
                max_queue_depth=args.queue_depth,
                default_timeout_ms=None,
            )
        )
        serial.registry.register(model, width_mult=args.width_mult,
                                 image=args.image, classes=args.classes)
        async with serial:
            results["serial"] = await closed_loop(
                serial, model, requests=args.requests, concurrency=1,
            )
    if args.json:
        doc = {k: r.as_dict() for k, r in results.items()}
        if "serial" in results and results["serial"].requests_per_sec > 0:
            doc["batch_speedup"] = (
                results["batched"].requests_per_sec / results["serial"].requests_per_sec
            )
        print(json.dumps(doc, indent=2))
    else:
        for r in results.values():
            print(r.report())
        if "serial" in results and results["serial"].requests_per_sec > 0:
            print(f"[loadgen] dynamic batching speedup: "
                  f"{results['batched'].requests_per_sec / results['serial'].requests_per_sec:.2f}x")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Dynamic-batching inference serving on the compiled-plan runtime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    http = sub.add_parser("http", help="serve the JSON-over-HTTP endpoint")
    _add_model_args(http)
    _add_policy_args(http)
    http.add_argument("--host", default="127.0.0.1")
    http.add_argument("--port", type=int, default=8707)

    lg = sub.add_parser("loadgen", help="run an in-process load benchmark")
    _add_model_args(lg)
    _add_policy_args(lg)
    lg.add_argument("--mode", choices=("closed", "open"), default="closed")
    lg.add_argument("--requests", type=int, default=64)
    lg.add_argument("--concurrency", type=int, default=16, help="closed-loop workers")
    lg.add_argument("--rate", type=float, default=200.0, help="open-loop arrivals/sec")
    lg.add_argument("--compare-serial", action="store_true",
                    help="also run max_batch_size=1 and print the speedup")
    lg.add_argument("--json", action="store_true", help="machine-readable output")

    args = parser.parse_args(argv)
    try:
        if args.command == "http":
            return asyncio.run(_run_http(args))
        return asyncio.run(_run_loadgen(args))
    except KeyboardInterrupt:
        print("[serve] interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
