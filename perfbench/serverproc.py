"""Run ``python -m repro.serve`` with the layer probe installed.

    python3 perfbench/serverproc.py --summary S.json --trace-out T.json http --model resnet18 ...

The traced http-closed run serves through this script instead of the plain
CLI.  Everything after the two options is handed to ``repro.serve``'s own
``main``; the probe wraps the service's layers once the HTTP face starts.
SIGUSR1 switches tracing on and SIGUSR2 off.  When the server is
interrupted (SIGINT), the per-layer aggregates are written to ``--summary``
and the spans to ``--trace-out``.
"""

import argparse
import json
import signal
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/serverproc.py")
    parser.add_argument("--summary", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, required=True)
    args, serve_argv = parser.parse_known_args(argv)

    from perfbench.common import mean
    from perfbench.probe import Probe, batching_metrics
    from perfbench.spans import Recorder
    from repro.serve import __main__ as serve_cli
    from repro.serve.service import InferenceService

    recorder = Recorder()
    probe = Probe(recorder)
    started: list[tuple[InferenceService, object]] = []  # (service, stats at start)
    serve_http = InferenceService.serve_http

    async def instrumented(self: InferenceService, host: str = "127.0.0.1", port: int = 8707):
        for name in self.registry.names():
            probe.attach_model(self.registry.get(name))
        probe.attach_scheduler(self.scheduler)
        started.append((self, self.scheduler.stats()))
        return await serve_http(self, host, port)

    InferenceService.serve_http = instrumented  # type: ignore[method-assign]
    signal.signal(signal.SIGUSR1, lambda *_: probe.trace(True))
    signal.signal(signal.SIGUSR2, lambda *_: probe.trace(False))
    stop = threading.Event()

    def absorb() -> None:
        while not stop.wait(0.2):
            probe.absorb_obs()

    drainer = threading.Thread(target=absorb, daemon=True)
    drainer.start()
    try:
        code = serve_cli.main(serve_argv)
    finally:
        stop.set()
        drainer.join()
        probe.absorb_obs()
    visits = probe.visits
    if not visits:  # a set-up-only server: tracing never ran
        return code
    summary = probe.model_metrics() | probe.serve_metrics(visits)
    service, stats0 = started[0]
    summary |= batching_metrics(stats0, service.scheduler.stats())
    summary["server_parts_ms"] = mean(v.parts_ms for v in visits)
    args.summary.parent.mkdir(parents=True, exist_ok=True)
    args.summary.write_text(json.dumps(summary))
    recorder.write(args.trace_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
