import struct

import numpy as np
import pytest

from blockprune.data import (Dataset, SyntheticSpec, batch_iter,
                             generate_synthetic, load_idx, normalize_images)
from blockprune.errors import DataFormatError

from conftest import write_idx_pair


class TestSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(seed=11, train_per_class=5, val_per_class=2)
        a_train, a_val, _ = generate_synthetic(spec)
        b_train, b_val, _ = generate_synthetic(spec)
        assert np.array_equal(a_train.images, b_train.images)
        assert np.array_equal(a_val.images, b_val.images)
        assert np.array_equal(a_train.labels, b_train.labels)

    def test_noiseless_nearest_template_is_perfect(self):
        spec = SyntheticSpec(noise=0.0, train_per_class=4, val_per_class=4, seed=3)
        train, val, templates = generate_synthetic(spec)
        flat_t = templates.reshape(spec.num_classes, -1)
        for ds in (train, val):
            flat = ds.images.reshape(len(ds), -1)
            d = ((flat[:, None, :] - flat_t[None]) ** 2).sum(-1)
            assert np.array_equal(d.argmin(1), ds.labels)

    def test_images_in_unit_range(self):
        train, _, _ = generate_synthetic(SyntheticSpec(train_per_class=3, val_per_class=1))
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticSpec(num_classes=1))

    def test_splits_disjoint_draws(self):
        spec = SyntheticSpec(train_per_class=3, val_per_class=3, seed=0)
        train, val, _ = generate_synthetic(spec)
        assert not np.array_equal(train.images[:len(val)], val.images)


class TestNormalize:
    # shapes and values at which the float32 mean of a constant image misses
    # the value by a rounding step
    @pytest.mark.parametrize("shape", [(8, 8, 1), (8, 8, 3), (28, 28, 1), (32, 32, 3)])
    def test_zero_mean_unit_std_and_constant_images_to_zero(self, shape):
        rng = np.random.default_rng(0)
        images = rng.uniform(0.0, 1.0, (4,) + shape).astype(np.float32)
        images[1] = 0.7
        images[3] = 0.0
        out = normalize_images(images)
        assert out.dtype == np.float32 and out.shape == images.shape
        flat = out.reshape(4, -1)
        assert np.allclose(flat[[0, 2]].mean(axis=1), 0.0, atol=1e-6)
        assert np.allclose(flat[[0, 2]].std(axis=1), 1.0, atol=1e-5)
        assert not np.any(out[[1, 3]])


class TestIdxLoader:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(2, 28, 28), dtype=np.uint8)
        labels = np.array([3, 7], dtype=np.uint8)
        ipath, lpath = write_idx_pair(tmp_path, images, labels)
        ds = load_idx(ipath, lpath, image_size=28, num_classes=10)
        assert ds.images.shape == (2, 28, 28, 1)
        assert np.max(np.abs(ds.images[..., 0] - images / 255.0)) < 1 / 255.0
        assert np.array_equal(ds.labels, labels)

    def test_resize_to_configured_geometry(self, tmp_path):
        images = np.zeros((1, 28, 28), dtype=np.uint8)
        images[0, 10, 10] = 255
        ipath, lpath = write_idx_pair(tmp_path, images, np.array([0]))
        ds = load_idx(ipath, lpath, image_size=32, num_classes=2)
        assert ds.images.shape == (1, 32, 32, 1)
        assert ds.images.max() == 1.0

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(struct.pack(">IIII", 0x00000999, 1, 2, 2) + b"\x00" * 4)
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">II", 0x00000801, 1) + b"\x00")
        with pytest.raises(DataFormatError):
            load_idx(str(p), str(lp))

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((3, 4, 4), dtype=np.uint8)
        ipath, lpath = write_idx_pair(tmp_path, images, np.zeros(3, dtype=np.uint8))
        short = tmp_path / "short.idx"
        short.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x00\x00")
        with pytest.raises(DataFormatError):
            load_idx(ipath, str(short))

    def test_truncated_header(self, tmp_path):
        # magic 0x803 announces three dimension words; none follow
        p = tmp_path / "short.idx"
        p.write_bytes(struct.pack(">II", 0x00000803, 2))
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x00\x00")
        with pytest.raises(DataFormatError, match="truncated IDX header"):
            load_idx(str(p), str(lp))

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "trunc.idx"
        p.write_bytes(struct.pack(">IIII", 0x00000803, 2, 4, 4) + b"\x00" * 10)
        lp = tmp_path / "l.idx"
        lp.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x00\x00")
        with pytest.raises(DataFormatError):
            load_idx(str(p), str(lp))


class TestBatching:
    def ds(self, n=10):
        rng = np.random.default_rng(1)
        return Dataset(rng.uniform(size=(n, 4, 4, 1)).astype(np.float32),
                       np.arange(n) % 3, num_classes=3)

    def test_single_batch_when_large(self):
        batches = list(batch_iter(self.ds(), batch_size=64, seed=0, epoch=0))
        assert len(batches) == 1
        assert batches[0][0].shape[0] == 10

    def test_partition_exact(self):
        ds = self.ds(10)
        batches = list(batch_iter(ds, batch_size=3, seed=5, epoch=2))
        sizes = [b[0].shape[0] for b in batches]
        assert sizes == [3, 3, 3, 1]
        seen = np.concatenate([b[1] for b in batches])
        assert sorted(seen.tolist()) == sorted(ds.labels.tolist())

    def test_deterministic_per_seed_epoch(self):
        ds = self.ds()
        a = [b[1].tolist() for b in batch_iter(ds, 4, seed=7, epoch=3)]
        b = [b[1].tolist() for b in batch_iter(ds, 4, seed=7, epoch=3)]
        c = [b[1].tolist() for b in batch_iter(ds, 4, seed=7, epoch=4)]
        assert a == b
        assert a != c

    def test_flip_mirrors_some_images_deterministically(self):
        n = 40
        rng = np.random.default_rng(2)
        # one label per image, so a label names its source image
        ds = Dataset(rng.uniform(size=(n, 4, 5, 2)).astype(np.float32), np.arange(n), n)
        before = ds.images.copy()
        runs = [list(batch_iter(ds, 8, seed=3, epoch=1, flip=True)) for _ in range(2)]
        for (xa, ya), (xb, yb) in zip(*runs):
            assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
        plain = batch_iter(ds, 8, seed=3, epoch=1)
        assert [y.tolist() for _, y in runs[0]] == [y.tolist() for _, y in plain]
        mirrored = []
        for images, labels in runs[0]:
            for image, k in zip(images, labels):
                mirrored.append(not np.array_equal(image, ds.images[k]))
                if mirrored[-1]:
                    assert np.array_equal(image, ds.images[k][:, ::-1])
        assert len(mirrored) == n and any(mirrored) and not all(mirrored)
        assert np.array_equal(ds.images, before)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(batch_iter(self.ds(), 0, 0, 0))
