"""Table 4: CNN training on (synthetic) ILSVRC2012 — Alpha vs PyTorch stand-in.

The paper's rows: ResNet18/34, VGG16/19 (+Adam), VGG16x5 (+Adam), VGG16x7
(+SGDM), at 128x128 inputs with 1000 classes, batch 256, on an RTX 4090.
Here the same code path runs at reduced geometry (see ``config``); the
modeled-acceleration column uses the paper geometry on the RTX 4090 model.
Expected shape: all accelerations > 1, VGG16x5/VGG16x7 gaining the most
(their Gamma_8(4,5)/Gamma_16(10,7) kernels cut the most multiplications),
Alpha memory below PyTorch's, indistinguishable convergence.  The driver is
Table 5's :func:`~bench_table5_cifar.render_training_table`.
"""

from __future__ import annotations

from bench_table5_cifar import render_training_table
from conftest import bench_scale
from repro.dlframe import synthetic_ilsvrc
from repro.dlframe.models import resnet18, resnet34, vgg16, vgg16x5, vgg16x7, vgg19
from repro.gpusim import RTX4090

ROWS = [
    ("ResNet18", resnet18, "adam"),
    ("ResNet34", resnet34, "adam"),
    ("VGG16", vgg16, "adam"),
    ("VGG19", vgg19, "adam"),
    ("VGG16x5", vgg16x5, "adam"),
    ("VGG16x7", vgg16x7, "sgdm"),
]


def config():
    if bench_scale() == "full":
        return dict(image=128, classes=1000, width=1.0, train=2048, test=512, epochs=2, batch=256)
    return dict(image=32, classes=20, width=0.125, train=256, test=64, epochs=2, batch=64)


def render_table4():
    return render_training_table(
        "Table 4 — training on synthetic ILSVRC2012",
        ROWS,
        config(),
        lambda cfg: synthetic_ilsvrc(
            train=cfg["train"], test=cfg["test"], image=cfg["image"],
            classes=cfg["classes"], seed=4,
        ),
        seed=2,
        paper=dict(image=128, classes=1000, batch=256),
        device=RTX4090,
    )


def test_table4_ilsvrc(benchmark, artifact):
    text, raw = benchmark.pedantic(render_table4, iterations=1, rounds=1)
    artifact("table4_ilsvrc", text)
    for row in raw:
        assert row["alpha"].memory_bytes < row["torch"].memory_bytes, row["name"]
        assert row["accel"] > 0.95, row["name"]
    by_name = {r["name"]: r["accel"] for r in raw}
    # §6.3.2: higher acceleration on VGG16x5 / VGG16x7 than on VGG16/VGG19.
    assert by_name["VGG16x5"] > by_name["VGG16"]
    assert by_name["VGG16x7"] > by_name["VGG19"]


if __name__ == "__main__":
    print(render_table4()[0])
