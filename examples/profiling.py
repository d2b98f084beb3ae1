"""Profiling a ResNet block with the observability layer (repro.obs).

The walkthrough the paper's §5/§6 measurements imply, on our substrate:
  1. enable tracing + metrics and run a ResNet BasicBlock forward pass,
  2. print the span tree (layer.conv2d -> conv2d -> segment -> transforms),
  3. cross-check the recorded flop counter against bench.flops,
  4. dump the metrics registry and write a Chrome trace (open in Perfetto
     or chrome://tracing, or run `python -m repro.obs.report <trace>`).

Run:  PYTHONPATH=src python examples/profiling.py
"""

import json
import tempfile

import numpy as np

from repro import ConvShape, obs
from repro.bench.flops import standard_flops
from repro.dlframe.autograd import Tensor
from repro.dlframe.models.resnet import BasicBlock
from repro.obs.report import load_events, render_report

rng = np.random.default_rng(7)

# 1. A CIFAR-scale residual block: 72 channels on a 16x17 feature map, which
#    the per-layer engine rule (repro.runtime.conv_engine) keeps on Winograd;
#    with 32 channels or fewer it would run both convs as a GEMM.  The odd
#    width (17) forces the §5.5 boundary split, so the trace shows both
#    Winograd segments and the GEMM tail.
C = 72
block = BasicBlock(C, C, engine="winograd", rng=rng)
block.eval()
x = rng.standard_normal((4, 16, 17, C)).astype(np.float32)

with obs.capture() as tracer:
    y = block(Tensor(x))
print(f"block output: {y.data.shape}")

# 2. Where did the time go?  The span tree nests exactly like the pipeline:
#    layer.conv2d -> conv2d -> segment -> transform.* / accumulate.
print()
print("span tree (depth <= 2):")
print(tracer.summary(max_depth=2))

# 3. The flop counter is the paper's §6.1.1 numerator; it must agree with
#    the standalone accounting in repro.bench.flops for the same shapes.
conv_shape = ConvShape(batch=4, ih=16, iw=17, ic=C, oc=C, fh=3, fw=3, ph=1, pw=1)
recorded = obs.get_registry().counter("conv.flops").total()
expected = 2 * standard_flops(conv_shape)  # two 3x3 convolutions in the block
print()
print(f"recorded conv.flops: {recorded:,.0f}  (bench.flops says {expected:,})")
assert recorded == expected, (recorded, expected)

# 4. Metrics dump + Chrome trace + CLI report, end to end.
metrics = json.loads(obs.metrics_json())
print(f"metrics recorded: {', '.join(sorted(metrics))}")
assert "gather.bytes" in metrics and "winograd.tiles" in metrics

with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as fh:
    trace_path = obs.write_chrome_trace(fh.name)
events = load_events(trace_path)
assert any(e.get("ph") == "X" and e.get("name") == "conv2d" for e in events)
print(f"Chrome trace written to {trace_path} ({len(events)} events)")
print()
print(render_report(events, top=5))
