"""Tests for model serialisation (repro.dlframe.serialization)."""

import numpy as np
import pytest

from repro.dlframe import Tensor
from repro.dlframe.models import resnet18, vgg16
from repro.dlframe.serialization import (
    load_state_dict,
    load_weights,
    save_weights,
    state_dict,
    weight_file_bytes,
)


def tiny(engine="winograd", seed=0):
    return vgg16(classes=4, image=8, width_mult=0.0625, engine=engine, seed=seed)


class TestStateDict:
    def test_covers_all_parameters(self):
        m = tiny()
        sd = state_dict(m)
        n_params = len(m.parameters())
        n_bn_buffers = 2 * 5  # running mean/var for the 5 BN layers
        assert len(sd) == n_params + n_bn_buffers

    def test_copies_not_views(self):
        m = tiny()
        sd = state_dict(m)
        key = next(iter(sd))
        sd[key] += 1.0
        assert not np.array_equal(sd[key], state_dict(m)[key])

    def test_roundtrip_restores_exactly(self, rng):
        src = tiny(seed=1)
        dst = tiny(seed=2)
        x = rng.standard_normal((2, 8, 8, 3)).astype(np.float32)
        assert not np.allclose(src(Tensor(x)).data, dst(Tensor(x)).data)
        load_state_dict(dst, state_dict(src))
        np.testing.assert_array_equal(src(Tensor(x)).data, dst(Tensor(x)).data)

    def test_resnet_paths_stable(self):
        m = resnet18(width_mult=0.0625)
        sd = state_dict(m)
        assert any(k.startswith("stem.") for k in sd)
        assert any(".conv1." in k for k in sd)
        assert any(k.startswith("head.") for k in sd)

    def test_missing_key_rejected(self):
        m = tiny()
        sd = state_dict(m)
        sd.pop(next(iter(sd)))
        with pytest.raises(KeyError, match="missing"):
            load_state_dict(tiny(), sd)

    def test_extra_key_rejected(self):
        sd = state_dict(tiny())
        sd["bogus.weight"] = np.zeros(3)
        with pytest.raises(ValueError, match="unknown"):
            load_state_dict(tiny(), sd)

    def test_shape_mismatch_rejected(self):
        sd = state_dict(tiny())
        key = next(iter(sd))
        sd[key] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape"):
            load_state_dict(tiny(), sd)


    @pytest.mark.parametrize(
        "fault, error",
        [("missing", KeyError), ("extra", ValueError), ("shape", ValueError)],
    )
    def test_failed_load_changes_nothing(self, fault, error):
        """Every key and shape is checked before any parameter or buffer is
        replaced: a rejected state leaves the model bit-identical, even when
        the fault sits after keys that would load."""
        m = tiny(seed=1)
        before = state_dict(m)
        sd = state_dict(tiny(seed=2))
        last = list(sd)[-1]
        if fault == "missing":
            del sd[last]
        elif fault == "extra":
            sd["bogus.weight"] = np.zeros(3)
        else:
            sd["modules.9.weight"] = np.zeros((1, 1))
        with pytest.raises(error):
            load_state_dict(m, sd)
        after = state_dict(m)
        assert list(after) == list(before)
        for key, arr in before.items():
            bits = f"u{arr.itemsize}"
            np.testing.assert_array_equal(after[key].view(bits), arr.view(bits))


class TestWeightFiles:
    def test_save_load_roundtrip(self, rng, tmp_path):
        src = tiny(seed=3)
        path = tmp_path / "model.npz"
        written = save_weights(src, path)
        assert written > 0 and path.exists()
        dst = tiny(seed=4)
        load_weights(dst, path)
        x = rng.standard_normal((1, 8, 8, 3)).astype(np.float32)
        np.testing.assert_array_equal(src(Tensor(x)).data, dst(Tensor(x)).data)

    def test_weight_file_bytes_close_to_raw(self):
        """The Tables 4/5 column: file size ~ 4 bytes/param + npz headers."""
        m = tiny()
        raw = m.weight_bytes()
        on_disk = weight_file_bytes(m)
        assert raw < on_disk < raw * 1.5 + 8192

    def test_bn_statistics_travel(self, rng, tmp_path):
        src = tiny(seed=5)
        # Push data through to move the running stats off their init.
        src(Tensor(rng.standard_normal((8, 8, 8, 3)).astype(np.float32)))
        path = tmp_path / "m.npz"
        save_weights(src, path)
        dst = tiny(seed=6)
        load_weights(dst, path)
        from repro.dlframe.layers import BatchNorm2D

        src_bn = [l for l in src if isinstance(l, BatchNorm2D)][0]
        dst_bn = [l for l in dst if isinstance(l, BatchNorm2D)][0]
        np.testing.assert_array_equal(src_bn.running_mean, dst_bn.running_mean)
