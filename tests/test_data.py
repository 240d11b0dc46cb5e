"""IDX parsing, synthetic blobs, and task protocols."""

import struct

import numpy as np
import pytest

from protoreplay.data import (Batch, Dataset, FormatError, Image, _apply_perm,
                              incremental_class_plan, load_idx,
                              permuted_protocol, split_protocol,
                              synthetic_blobs, task_test_images,
                              task_train_images)


def write_idx_pair(tmp_path, count=4, rows=2, cols=2, labels=None,
                   image_magic=0x00000803, label_magic=0x00000801,
                   clip_images=0, clip_labels=0):
    labels = labels if labels is not None else list(range(count))
    pixels = bytes(range(count * rows * cols))
    img_bytes = struct.pack(">IIII", image_magic, count, rows, cols) + pixels
    lbl_bytes = struct.pack(">II", label_magic, len(labels)) + bytes(labels)
    if clip_images:
        img_bytes = img_bytes[:-clip_images]
    if clip_labels:
        lbl_bytes = lbl_bytes[:-clip_labels]
    ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    ip.write_bytes(img_bytes)
    lp.write_bytes(lbl_bytes)
    return ip, lp


# ---------------------------------------------------------------------------
# IDX loading

def test_load_idx_fixture(tmp_path):
    ip, lp = write_idx_pair(tmp_path, labels=[3, 1, 4, 1])
    images = load_idx(ip, lp)
    assert len(images) == 4
    assert [img.label for img in images] == [3, 1, 4, 1]
    assert [img.index for img in images] == [0, 1, 2, 3]
    assert images[0].pixels.shape == (1, 2, 2)
    # bytes 0..15 scaled by 255
    assert np.allclose(images[0].pixels.reshape(-1),
                       np.array([0, 1, 2, 3]) / 255.0)


def test_load_idx_byte_255_maps_to_one(tmp_path):
    ip = tmp_path / "i.idx"
    lp = tmp_path / "l.idx"
    ip.write_bytes(struct.pack(">IIII", 0x803, 1, 1, 1) + b"\xff")
    lp.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
    images = load_idx(ip, lp)
    assert images[0].pixels.reshape(-1)[0] == 1.0


def test_load_idx_rejects_bad_image_magic(tmp_path):
    ip, lp = write_idx_pair(tmp_path, image_magic=0x00000000)
    with pytest.raises(FormatError, match="magic"):
        load_idx(ip, lp)


def test_load_idx_rejects_bad_label_magic(tmp_path):
    ip, lp = write_idx_pair(tmp_path, label_magic=0x00000000)
    with pytest.raises(FormatError, match="magic"):
        load_idx(ip, lp)


def test_load_idx_rejects_truncated_header(tmp_path):
    ip, lp = write_idx_pair(tmp_path)
    ip.write_bytes(ip.read_bytes()[:10])
    with pytest.raises(FormatError, match="header"):
        load_idx(ip, lp)


def test_load_idx_rejects_truncated_pixels(tmp_path):
    ip, lp = write_idx_pair(tmp_path, clip_images=3)
    with pytest.raises(FormatError, match="pixel"):
        load_idx(ip, lp)


def test_load_idx_rejects_truncated_labels(tmp_path):
    ip, lp = write_idx_pair(tmp_path, clip_labels=1)
    with pytest.raises(FormatError, match="label"):
        load_idx(ip, lp)


def test_load_idx_rejects_count_mismatch(tmp_path):
    ip, lp = write_idx_pair(tmp_path, labels=[0, 1])
    with pytest.raises(FormatError, match="count"):
        load_idx(ip, lp)


@pytest.mark.parametrize("count, rows, cols", [
    (0xFFFFFFFF, 0xFFFF, 0xFFFF),       # more bytes than a read can ask for
    (2 ** 31, 2 ** 16, 2 ** 10),        # more bytes than memory holds
])
def test_load_idx_rejects_sizes_larger_than_the_file(tmp_path, count, rows, cols):
    ip, lp = write_idx_pair(tmp_path)
    ip.write_bytes(struct.pack(">IIII", 0x803, count, rows, cols) + bytes(16))
    with pytest.raises(FormatError, match="truncated pixel data") as info:
        load_idx(ip, lp)
    assert str(ip) in str(info.value)


def test_load_idx_accepts_trailing_bytes(tmp_path):
    ip, lp = write_idx_pair(tmp_path)
    ip.write_bytes(ip.read_bytes() + b"\x00\x00")
    assert len(load_idx(ip, lp)) == 4


# ---------------------------------------------------------------------------
# synthetic blobs

def nearest_mean_accuracy(ds: Dataset) -> float:
    means = {}
    for c in range(ds.num_classes):
        pts = np.stack([i.pixels.reshape(-1) for i in ds.train if i.label == c])
        means[c] = pts.mean(axis=0)
    hits = 0
    for img in ds.test:
        x = img.pixels.reshape(-1)
        pred = min(means, key=lambda c: np.linalg.norm(x - means[c]))
        hits += pred == img.label
    return hits / len(ds.test)


def test_blobs_wide_separation_is_ncm_separable():
    ds = synthetic_blobs(5, 20, 30, 30, separation=10.0, seed=0)
    assert nearest_mean_accuracy(ds) > 0.99


def test_blobs_zero_separation_is_chance():
    ds = synthetic_blobs(5, 20, 200, 200, separation=0.0, seed=1)
    assert abs(nearest_mean_accuracy(ds) - 0.2) < 0.05


def test_blobs_same_seed_bitwise_identical():
    a = synthetic_blobs(3, 8, 5, 5, 2.0, seed=7)
    b = synthetic_blobs(3, 8, 5, 5, 2.0, seed=7)
    for x, y in zip(a.train + a.test, b.train + b.test):
        assert np.array_equal(x.pixels, y.pixels)
        assert (x.label, x.index) == (y.label, y.index)


def test_blobs_shapes_and_counts():
    ds = synthetic_blobs(4, 6, 3, 2, 1.0, seed=2)
    assert len(ds.train) == 12 and len(ds.test) == 8
    assert all(img.pixels.shape == (1, 1, 6) for img in ds.train)
    assert ds.num_classes == 4


# ---------------------------------------------------------------------------
# permuted (incremental-domain) protocol

def test_permuted_protocol_identity_first_then_bijections():
    ds = synthetic_blobs(3, 10, 4, 4, 2.0, seed=0)
    schedule = permuted_protocol(ds, 50, seed=0)
    assert schedule.kind == "incremental_domain"
    assert len(schedule.tasks) == 50
    assert schedule.tasks[0].permutation is None
    for spec in schedule.tasks[1:]:
        assert sorted(spec.permutation.tolist()) == list(range(10))
    # every task sees every class
    assert all(spec.class_ids == [0, 1, 2] for spec in schedule.tasks)


def test_permuted_task_images_apply_permutation():
    ds = synthetic_blobs(2, 6, 3, 3, 2.0, seed=3)
    schedule = permuted_protocol(ds, 3, seed=1)
    spec = schedule.tasks[2]
    imgs = task_train_images(ds, spec)
    base = ds.train[spec.train_indices[imgs[0].label][0]]
    assert np.array_equal(imgs[0].pixels.reshape(-1),
                          base.pixels.reshape(-1)[spec.permutation])
    assert imgs[0].task == 3
    # task 1 leaves pixels untouched
    first = task_train_images(ds, schedule.tasks[0])[0]
    assert np.array_equal(first.pixels, ds.train[0].pixels)


def test_permuted_protocol_on_multichannel_images():
    # the permutation runs over C*H*W, so channels mix like pixels do
    rng = np.random.default_rng(5)
    train = [Image(rng.standard_normal((3, 4, 4)), c, index=i)
             for c in range(2) for i in range(3)]
    test = [Image(rng.standard_normal((3, 4, 4)), c, index=10 + c) for c in range(2)]
    ds = Dataset(train, test, 2)
    spec = permuted_protocol(ds, 2, seed=4).tasks[1]
    assert spec.permutation.size == 48
    pairs = [(img.pixels, base) for img, base in zip(task_train_images(ds, spec), train)]
    pairs += list(zip(task_test_images(ds, spec).pixels, test))
    assert len(pairs) == len(train) + len(test)
    for got, base in pairs:
        assert got.shape == (3, 4, 4)
        assert np.array_equal(np.sort(got, axis=None),
                              np.sort(base.pixels, axis=None))
        assert np.array_equal(got.reshape(-1),
                              base.pixels.reshape(-1)[spec.permutation])


def _multichannel_dataset(num_classes=3, per_class=5, seed=5):
    rng = np.random.default_rng(seed)
    images = [Image(rng.standard_normal((3, 4, 4)), c, index=i)
              for i in range(per_class) for c in range(num_classes)]
    return Dataset(images, images, num_classes)


@pytest.mark.parametrize("which", ["identity", "permuted", "class-subset"])
def test_task_test_images_equals_the_stacked_per_image_permutation(which):
    # the batch is bit for bit what stacking each test image's _apply_perm gives,
    # and holds only the spec's classes, in test-split order
    ds = _multichannel_dataset(per_class=70)      # more rows than one permutation block
    if which == "class-subset":
        spec = split_protocol(ds, [([0], None), ([2, 1], None)], seed=0).tasks[1]
    else:
        spec = permuted_protocol(ds, 2, seed=4).tasks[which == "permuted"]
    batch = task_test_images(ds, spec)
    expected = [_apply_perm(img, spec.permutation, spec.task_id)
                for img in ds.test if img.label in spec.class_ids]
    assert isinstance(batch, Batch) and len(batch) == len(expected)
    assert batch.pixels.dtype == np.float64 and batch.pixels.shape == (len(expected), 3, 4, 4)
    assert batch.pixels.tobytes() == np.stack([img.pixels for img in expected]).tobytes()
    assert batch.labels.tolist() == [img.label for img in expected]


def test_task_test_images_constructs_no_image(monkeypatch):
    ds = _multichannel_dataset()
    made = []
    init = Image.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Image, "__init__", counting_init)
    for spec in permuted_protocol(ds, 2, seed=4).tasks:
        task_test_images(ds, spec)
    assert made == []


def test_task_test_images_rejects_a_task_without_test_images():
    ds = _multichannel_dataset()
    ds = Dataset(ds.train, [img for img in ds.test if img.label != 2], 3)
    spec = split_protocol(ds, [([0, 1], None), ([2], None)], seed=0).tasks[1]
    with pytest.raises(ValueError, match=r"task 2: classes \[2\] have no test images"):
        task_test_images(ds, spec)


def test_task_test_images_rejects_a_permutation_out_of_range():
    ds = _multichannel_dataset()
    spec = permuted_protocol(ds, 2, seed=4).tasks[1]
    spec.permutation[0] = 48
    with pytest.raises(ValueError, match="task 2: the permutation does not index the 48"):
        task_test_images(ds, spec)


def test_batch_of_stacks_pixels_and_labels():
    images = _multichannel_dataset(per_class=1).test
    batch = Batch.of(images)
    assert len(batch) == 3 and batch.labels.tolist() == [0, 1, 2]
    assert np.array_equal(batch.pixels, np.stack([img.pixels for img in images]))


def test_permuted_protocol_rejects_zero_tasks():
    ds = synthetic_blobs(2, 4, 2, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        permuted_protocol(ds, 0, seed=0)


# ---------------------------------------------------------------------------
# split (incremental-class) protocol

def test_split_cifar_like_task_layout():
    ds = synthetic_blobs(10, 8, 12, 4, 2.0, seed=0)
    schedule = split_protocol(ds, "cifar_like", few_shot_quota=10, seed=0)
    assert schedule.kind == "incremental_class"
    assert len(schedule.tasks) == 9
    assert schedule.tasks[0].class_ids == [0, 1]
    assert all(len(s.class_ids) == 1 for s in schedule.tasks[1:])
    for spec in schedule.tasks:
        for c in spec.class_ids:
            assert len(spec.train_indices[c]) == 10


def test_split_imagenet_like_first_task_quota():
    train = [Image(np.zeros((1, 1, 2)), c, index=i)
             for c in range(20) for i in range(12)]
    ds = Dataset(train, [], 20)
    schedule = split_protocol(ds, "imagenet_like", few_shot_quota=10, seed=0)
    assert len(schedule.tasks) == 2
    assert schedule.tasks[0].class_ids == list(range(10))
    # first-task quota 480 exceeds supply, so every image is kept
    assert all(len(v) == 12 for v in schedule.tasks[0].train_indices.values())
    assert all(len(v) == 10 for v in schedule.tasks[1].train_indices.values())


def test_split_classes_are_disjoint_across_tasks():
    ds = synthetic_blobs(10, 8, 12, 4, 2.0, seed=0)
    schedule = split_protocol(ds, "cifar_like", seed=0)
    seen = [c for s in schedule.tasks for c in s.class_ids]
    assert len(seen) == len(set(seen)) == 10


def test_split_rejects_repeated_class_in_custom_plan():
    ds = synthetic_blobs(3, 4, 5, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        split_protocol(ds, [([0, 1], 3), ([1, 2], 3)], seed=0)


def test_split_custom_plan_and_test_images():
    ds = synthetic_blobs(5, 6, 10, 4, 2.0, seed=0)
    schedule = split_protocol(ds, incremental_class_plan(5, 2, 1, 10), seed=0)
    assert [s.class_ids for s in schedule.tasks] == [[0, 1], [2], [3], [4]]
    t2 = task_test_images(ds, schedule.tasks[1])
    assert len(t2) == 4 and all(label == 2 for label in t2.labels)


def test_split_subsampling_deterministic_under_seed():
    ds = synthetic_blobs(4, 6, 20, 4, 2.0, seed=0)
    a = split_protocol(ds, "cifar_like", few_shot_quota=5, seed=9)
    b = split_protocol(ds, "cifar_like", few_shot_quota=5, seed=9)
    for sa, sb in zip(a.tasks, b.tasks):
        assert sa.train_indices == sb.train_indices


@pytest.mark.parametrize("first, per_task", [(2, 0), (0, 1), (2, -1)])
def test_incremental_class_plan_rejects_counts_below_one(first, per_task):
    with pytest.raises(ValueError, match="must be >= 1"):
        incremental_class_plan(5, first, per_task, 10)


@pytest.mark.parametrize("make, fragment", [
    (lambda ds: split_protocol(ds, "cifar_like"), "cifar_like needs >= 3 classes, got 2"),
    (lambda ds: split_protocol(ds, "imagenet_like"), "imagenet_like needs >= 20 classes"),
    (lambda ds: split_protocol(ds, [([0], 2), ([5], 2)]), "class 5 has no training images"),
    (lambda ds: split_protocol(ds, "cifar"),
     "unknown schedule kind 'cifar': the presets are 'cifar_like' and 'imagenet_like'"),
])
def test_split_protocol_rejects_what_it_cannot_schedule(make, fragment):
    with pytest.raises(ValueError, match=fragment):
        make(synthetic_blobs(2, 3, 4, 2, 1.0, seed=0))
