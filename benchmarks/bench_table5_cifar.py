"""Table 5: CNN training on (synthetic) Cifar10 — Alpha vs PyTorch stand-in.

The paper's rows: ResNet18/34, VGG16/19, VGG16x5, each under Adam and SGDM,
reporting s/epoch, acceleration, train\\test accuracy, GPU memory, weight
file.  Here "Alpha" = dlframe with the Im2col-Winograd engine, "PyTorch" =
the identical dlframe with the GEMM engine — isolating the convolution
algorithm exactly as the paper's comparison intends (same models, same
data, same initialisation, same optimiser).

Scale: synthetic 16x16 images, width_mult 0.25, a few epochs (the paper
trains 25-40 epochs on a GPU).  ``REPRO_BENCH_SCALE=full`` uses 32x32 and
width 1.0.  The *shape* expected to reproduce: acceleration > 1 with the
largest gains on VGG16x5/VGG16x7 (§6.3.2), memory smaller for Alpha,
accuracies equal within noise.

:func:`render_training_table` is the driver of both training tables;
``bench_table4_ilsvrc.py`` imports it.
"""

from __future__ import annotations

from conftest import bench_scale
from repro.bench import banner, modeled_training_acceleration, table
from repro.dlframe import SGDM, Adam, Trainer, synthetic_cifar10
from repro.dlframe.models import resnet18, resnet34, vgg16, vgg16x5, vgg16x7, vgg19
from repro.gpusim import RTX3060TI

ROWS = [
    ("ResNet18", resnet18, "adam"),
    ("ResNet18", resnet18, "sgdm"),
    ("ResNet34", resnet34, "adam"),
    ("VGG16", vgg16, "adam"),
    ("VGG19", vgg19, "adam"),
    ("VGG16x5", vgg16x5, "adam"),
    ("VGG16x5", vgg16x5, "sgdm"),
]

#: Models built for one input size; the ResNets pool globally and take none.
_VGGS = (vgg16, vgg19, vgg16x5, vgg16x7)


def config():
    if bench_scale() == "full":
        return dict(image=32, classes=10, width=1.0, train=4096, test=1024, epochs=4, batch=512)
    return dict(image=16, classes=10, width=0.25, train=384, test=96, epochs=2, batch=64)


def _build(make_model, *, image: int, **kwargs):
    if make_model in _VGGS:
        kwargs["image"] = image
    return make_model(**kwargs)


def render_training_table(title, rows, cfg, dataset, *, seed, paper, device):
    """Train every row on both engines, price the modeled acceleration, render.

    ``rows`` holds ``(network, model constructor, "adam" | "sgdm")``;
    ``cfg`` the geometry trained here (``image``, ``classes``, ``width``,
    ``epochs``, ``batch``, plus whatever ``dataset(cfg) -> (train, test)``
    reads); ``seed`` the models' initialisation seed.  The Accel column is
    the modeled conv-time ratio at the paper's geometry ``paper`` (``image``,
    ``classes``, ``batch``, full width) on the GPU model ``device``.
    Returns the table text and one dict per row with the two
    :class:`~repro.dlframe.TrainRecord` s.
    """
    text_rows, raw = [], []
    for name, make_model, optname in rows:
        records = {}
        for engine in ("winograd", "gemm"):
            model = _build(
                make_model, image=cfg["image"], classes=cfg["classes"],
                width_mult=cfg["width"], engine=engine, seed=seed,
            )
            opt = (Adam if optname == "adam" else SGDM)(model.parameters(), lr=1e-3)
            train, test = dataset(cfg)
            records[engine] = Trainer(model, opt).fit(
                train, test, epochs=cfg["epochs"], batch_size=cfg["batch"]
            )
        alpha, torch = records["winograd"], records["gemm"]
        mw, mg = (
            _build(make_model, image=paper["image"], classes=paper["classes"],
                   width_mult=1.0, engine=engine, seed=seed)
            for engine in ("winograd", "gemm")
        )
        accel = modeled_training_acceleration(
            mw, mg, image=paper["image"], batch=paper["batch"], device=device
        )
        raw.append(dict(name=name, opt=optname, accel=accel, alpha=alpha, torch=torch))
        text_rows.append(
            [
                name,
                optname.upper(),
                f"{alpha.seconds_per_epoch:.2f}s | {torch.seconds_per_epoch:.2f}s",
                f"{accel:.3f}x",
                f"{alpha.train_accuracy:.1%}\\{alpha.test_accuracy:.1%} | "
                f"{torch.train_accuracy:.1%}\\{torch.test_accuracy:.1%}",
                f"{alpha.memory_bytes / 1e6:.0f}MB | {torch.memory_bytes / 1e6:.0f}MB",
                f"{alpha.weight_bytes / 1e6:.1f}MB",
            ]
        )
    head = banner(
        f"{title} (Alpha=winograd | PyTorch=gemm)",
        f"scale={bench_scale()}: image={cfg['image']}, {cfg['classes']} classes, "
        f"width x{cfg['width']}, {cfg['epochs']} epochs, batch {cfg['batch']}; "
        f"Accel = modeled conv-time ratio at paper geometry ({paper['image']}x"
        f"{paper['image']}, batch {paper['batch']}) on {device.name}; "
        "NumPy wall-clock shown raw",
    )
    body = table(
        ["Network", "Optim", "s/epoch (A | P)", "Accel(model)", "Train\\Test acc (A | P)",
         "Memory (A | P)", "Weights"],
        text_rows,
    )
    return head + "\n" + body, raw


def render_table5():
    return render_training_table(
        "Table 5 — training on synthetic Cifar10",
        ROWS,
        config(),
        lambda cfg: synthetic_cifar10(
            train=cfg["train"], test=cfg["test"], image=cfg["image"], seed=9
        ),
        seed=5,
        paper=dict(image=32, classes=10, batch=512),
        device=RTX3060TI,
    )


def test_table5_cifar(benchmark, artifact):
    text, raw = benchmark.pedantic(render_table5, iterations=1, rounds=1)
    artifact("table5_cifar", text)
    for row in raw:
        a, p = row["alpha"], row["torch"]
        # Memory: the fused engine never needs the im2col workspace.
        assert a.memory_bytes < p.memory_bytes, row["name"]
        # Convergence parity: final recorded losses within a loose band.
        assert abs(a.losses[-1] - p.losses[-1]) < 0.35 + 0.25 * p.losses[-1], row["name"]
    # §6.3.2's structure on the modeled acceleration: everything >= ~1x and
    # VGG16x5 (higher multiplication reduction) gains more than VGG16.
    assert all(r["accel"] > 0.95 for r in raw)
    by_name = {r["name"]: r["accel"] for r in raw}
    assert by_name["VGG16x5"] > by_name["VGG16"]


if __name__ == "__main__":
    print(render_table5()[0])
