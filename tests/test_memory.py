"""Episodic memory: exemplars, prototype history, footprints, serialization."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from protoreplay.autodiff import Tensor
from protoreplay.data import Image
from protoreplay.encoder import (baseline_head, init_encoder,
                                 reference_architecture)
from protoreplay.memory import (EpisodicMemory, load_memory, memory_footprint,
                                rebalance, save_memory, store_exemplars,
                                store_prototypes)
from protoreplay.proto import VariationalPrototype


def images(c, n, shape=(1, 2, 2), task=1):
    rng = np.random.default_rng(c * 100 + n)
    return [Image(rng.uniform(0, 1, shape), c, task, i) for i in range(n)]


def prototype(task, c, D=4):
    rng = np.random.default_rng(task * 10 + c)
    return VariationalPrototype(task, c, Tensor(rng.uniform(-1, 1, D)),
                                Tensor(rng.uniform(-1, 1, D)))


# ---------------------------------------------------------------------------
# store_exemplars

def test_store_exemplars_respects_quota():
    mem = EpisodicMemory()
    store_exemplars(mem, {0: images(0, 10)}, 1, np.random.default_rng(0))
    assert len(mem.exemplars[0]) == 1


def test_store_exemplars_keeps_all_when_quota_exceeds_supply():
    mem = EpisodicMemory()
    store_exemplars(mem, {0: images(0, 2)}, 3, np.random.default_rng(0))
    assert len(mem.exemplars[0]) == 2


def test_store_exemplars_deterministic_under_seed():
    def run():
        mem = EpisodicMemory()
        store_exemplars(mem, {0: images(0, 10), 1: images(1, 10)}, 3,
                        np.random.default_rng(42))
        return [(c, [img.index for img in imgs])
                for c, imgs in sorted(mem.exemplars.items())]
    assert run() == run()


def test_store_exemplars_rejects_bad_quota_and_empty_class():
    mem = EpisodicMemory()
    with pytest.raises(ValueError):
        store_exemplars(mem, {0: images(0, 3)}, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        store_exemplars(mem, {0: []}, 1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# store_prototypes

def test_prototype_history_counts_across_tasks():
    mem = EpisodicMemory()
    store_prototypes(mem, 1, [prototype(1, 0), prototype(1, 1)])
    assert len(mem.prototype_history) == 2
    # task 2: one new class plus both old classes re-stored
    store_prototypes(mem, 2, [prototype(2, 2), prototype(2, 0),
                              prototype(2, 1)])
    assert len(mem.prototype_history) == 5
    latest = mem.latest_prototypes()
    assert {c: p.task_id for c, p in latest.items()} == {0: 2, 1: 2, 2: 2}


def test_store_prototypes_rejects_duplicate_key():
    mem = EpisodicMemory()
    store_prototypes(mem, 1, [prototype(1, 0)])
    with pytest.raises(ValueError):
        store_prototypes(mem, 1, [prototype(1, 0)])


def test_stored_prototypes_are_detached_copies():
    mem = EpisodicMemory()
    p = prototype(1, 0)
    store_prototypes(mem, 1, [p])
    p.mean.data[:] = 99.0
    assert not np.any(mem.prototype_history[(1, 0)].mean.data == 99.0)


# ---------------------------------------------------------------------------
# rebalance

def test_rebalance_quota_floor():
    elements = 4  # (1, 2, 2) images
    mem = EpisodicMemory(budget_elements=20 * elements)
    store_exemplars(mem, {0: images(0, 15), 1: images(1, 15)}, 15,
                    np.random.default_rng(0))
    rebalance(mem, 2, np.random.default_rng(1))
    assert all(len(v) == 10 for v in mem.exemplars.values())
    # with 10 classes the same budget allows 2 exemplars each
    mem10 = EpisodicMemory(budget_elements=20 * elements)
    store_exemplars(mem10, {c: images(c, 5) for c in range(10)}, 5,
                    np.random.default_rng(2))
    rebalance(mem10, 10, np.random.default_rng(3))
    assert all(len(v) == 2 for v in mem10.exemplars.values())
    assert mem10.exemplar_elements() <= mem10.budget_elements


def test_rebalance_always_keeps_one_per_class():
    mem = EpisodicMemory(budget_elements=3 * 4)
    store_exemplars(mem, {c: images(c, 4) for c in range(3)}, 4,
                    np.random.default_rng(0))
    rebalance(mem, 3, np.random.default_rng(1))
    assert all(len(v) >= 1 for v in mem.exemplars.values())


def test_rebalance_rejects_budget_below_one_each():
    mem = EpisodicMemory(budget_elements=4)
    store_exemplars(mem, {0: images(0, 2), 1: images(1, 2)}, 2,
                    np.random.default_rng(0))
    with pytest.raises(ValueError):
        rebalance(mem, 2, np.random.default_rng(1))


def test_rebalance_deterministic_under_seed():
    def run():
        mem = EpisodicMemory(budget_elements=6 * 4)
        store_exemplars(mem, {c: images(c, 8) for c in range(3)}, 8,
                        np.random.default_rng(5))
        rebalance(mem, 3, np.random.default_rng(6))
        return [(c, [img.index for img in imgs])
                for c, imgs in sorted(mem.exemplars.items())]
    assert run() == run()


# ---------------------------------------------------------------------------
# memory_footprint: Table-1 parity

def test_footprint_baseline_sgd_network_count():
    layers = baseline_head(reference_architecture("cifar_like_32"), 10)
    params = init_encoder(layers, 500, seed=0, zero=True)
    report = memory_footprint(params, EpisodicMemory(), "baseline_sgd")
    assert report.network_params == 1_631_500
    assert report.total == 1_631_500


def test_footprint_regularizer_doubles_network():
    layers = baseline_head(reference_architecture("cifar_like_32"), 10)
    params = init_encoder(layers, 500, seed=0, zero=True)
    report = memory_footprint(params, EpisodicMemory(), "baseline_regularizer")
    assert report.regularizer_params == 1_631_500
    assert report.total == 3_263_000


def test_footprint_ours_empty_memory():
    layers = reference_architecture("cifar_like_32")
    params = init_encoder(layers, 500, seed=0, zero=True)
    report = memory_footprint(params, EpisodicMemory(), "ours")
    assert report.network_params == 2_126_500
    assert report.total == 2_126_500


def test_footprint_ours_table1_total():
    layers = reference_architecture("cifar_like_32")
    params = init_encoder(layers, 500, seed=0, zero=True)
    mem = EpisodicMemory()
    for c in range(10):
        mem.exemplars[c] = [Image(np.zeros((3, 32, 32)), c)]
        mem.prototype_history[(1, c)] = VariationalPrototype(
            1, c, Tensor(np.zeros(500)), Tensor(np.zeros(500)))
    report = memory_footprint(params, mem, "ours")
    assert report.exemplar_elements == 30_720
    assert report.prototype_elements == 10_000
    assert report.total == 2_167_220


def test_footprint_full_history_reported_separately():
    layers = reference_architecture("synthetic_vector", latent_dim=4,
                                    input_dim=6)
    params = init_encoder(layers, 4, seed=0, zero=True)
    mem = EpisodicMemory()
    for t in (1, 2):
        mem.prototype_history[(t, 0)] = prototype(t, 0)
    report = memory_footprint(params, mem, "ours")
    assert report.prototype_elements == 8          # latest only
    assert report.prototype_elements_full_history == 16


def test_footprint_rejects_unknown_mode():
    layers = reference_architecture("synthetic_vector", latent_dim=4,
                                    input_dim=6)
    params = init_encoder(layers, 4, seed=0, zero=True)
    with pytest.raises(ValueError):
        memory_footprint(params, EpisodicMemory(), "icarl")


# ---------------------------------------------------------------------------
# serialization

def saved_memory(tmp_path):
    """A snapshot with exemplars and prototypes: (memory, its file path)."""
    mem = EpisodicMemory(budget_elements=1000)
    store_exemplars(mem, {0: images(0, 3), 1: images(1, 2, task=2)}, 3,
                    np.random.default_rng(0))
    store_prototypes(mem, 1, [prototype(1, 0), prototype(1, 1)])
    store_prototypes(mem, 2, [prototype(2, 0)])
    path = tmp_path / "memory.bin"
    save_memory(mem, path)
    return mem, path


def test_save_rejects_a_negative_budget_before_opening_the_file(tmp_path):
    # the layout writes -1 for an unset budget, so -5 would load back as None
    path = tmp_path / "memory.bin"
    with pytest.raises(ValueError, match="budget_elements must be >= 0 or None, got -5"):
        save_memory(EpisodicMemory(budget_elements=-5), path)
    assert not path.exists()


def test_save_load_roundtrip_bitwise(tmp_path):
    mem, path = saved_memory(tmp_path)
    loaded = load_memory(path)
    assert loaded.budget_elements == 1000
    assert sorted(loaded.exemplars) == sorted(mem.exemplars)
    for c in mem.exemplars:
        for a, b in zip(mem.exemplars[c], loaded.exemplars[c]):
            assert np.array_equal(a.pixels, b.pixels)
            assert (a.label, a.task, a.index) == (b.label, b.task, b.index)
    assert sorted(loaded.prototype_history) == sorted(mem.prototype_history)
    for key in mem.prototype_history:
        assert np.array_equal(mem.prototype_history[key].mean.data,
                              loaded.prototype_history[key].mean.data)
        assert np.array_equal(mem.prototype_history[key].logvar.data,
                              loaded.prototype_history[key].logvar.data)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOTAMEM\x00" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_memory(path)


def test_load_rejects_truncated_and_trailing_bytes(tmp_path):
    _, path = saved_memory(tmp_path)
    data = path.read_bytes()
    bad = tmp_path / "bad.bin"
    for cut in range(len(data)):
        bad.write_bytes(data[:cut])
        with pytest.raises(ValueError) as err:
            load_memory(bad)
        assert str(bad) in str(err.value), f"cut at byte {cut}"
    for extra in (b"\x00", b"\x00" * 8, data):
        bad.write_bytes(data + extra)
        with pytest.raises(ValueError, match="trailing"):
            load_memory(bad)


def int64_field_offsets(mem, D=4):
    """Byte offset of every int64 header and record field in the snapshot
    ``save_memory`` writes for ``mem``, in file order."""
    offsets, pos = [8, 16, 24, 32], 40
    for c in sorted(mem.exemplars):
        offsets += [pos, pos + 8]
        pos += 16
        for img in mem.exemplars[c]:
            offsets += [pos + 8 * i for i in range(6)]
            pos += 48 + 8 * img.elements
    for _ in mem.prototype_history:
        offsets += [pos, pos + 8]
        pos += 16 + 16 * D
    return offsets, pos


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.integers(0, 43), bit=st.integers(0, 63))
@example(field=9, bit=62)       # the first image's C: a raw OverflowError once
@example(field=9, bit=40)       # the same field: a raw MemoryError once
@example(field=9, bit=63)       # a negative C
def test_load_rejects_or_reads_any_bit_flip_in_an_int_field(tmp_path, field, bit):
    mem, path = saved_memory(tmp_path)
    data = bytearray(path.read_bytes())
    offsets, end = int64_field_offsets(mem)
    assert (len(offsets), end) == (44, len(data))
    pos = offsets[field] + bit // 8
    data[pos] ^= 1 << (bit % 8)
    bad = tmp_path / "flipped.bin"
    bad.write_bytes(bytes(data))
    try:
        load_memory(bad)
    except ValueError as err:
        assert str(bad) in str(err)


@pytest.mark.parametrize("field,what", [
    (41, r"duplicate \(task, class\) key \(1, 0\)"),   # prototype (1, 1) becomes (1, 0)
    (24, r"duplicate class id 0"),                     # the second class id becomes 0
])
def test_load_rejects_a_repeated_key(tmp_path, field, what):
    mem, path = saved_memory(tmp_path)
    data = bytearray(path.read_bytes())
    offsets, _ = int64_field_offsets(mem)
    data[offsets[field]] ^= 1
    bad = tmp_path / "repeated.bin"
    bad.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=what) as err:
        load_memory(bad)
    assert str(bad) in str(err.value)


def test_load_rejects_a_class_without_exemplars(tmp_path):
    # magic; D = 2, one exemplar class, no prototypes, no budget; class 0
    # holding no image. save_memory never writes such a class.
    path = tmp_path / "empty-class.bin"
    path.write_bytes(b"VPRMEM1\x00" + struct.pack("<4q", 2, 1, 0, -1)
                     + struct.pack("<2q", 0, 0))
    with pytest.raises(ValueError, match=r"image count \(0,\)") as err:
        load_memory(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("sizes, what", [
    ([(4, 4), (3, 3)], r"prototype \(task=2, class=0\): latent size 3 != 4"),
    ([(4, 4), (4, 3)], r"prototype \(task=2, class=0\): mean size 4 and log-variance size 3"),
    ([(0, 0)], r"prototype \(task=1, class=0\): mean size 0"),
], ids=["mixed-latent-sizes", "mean-and-logvar-differ", "empty"])
def test_save_rejects_prototypes_one_latent_size_cannot_hold(tmp_path, sizes, what):
    # the snapshot stores one latent size; these once saved, and the load failed
    mem = EpisodicMemory()
    for task, (mean, logvar) in enumerate(sizes, start=1):
        mem.prototype_history[(task, 0)] = VariationalPrototype(
            task, 0, Tensor(np.ones(mean)), Tensor(np.ones(logvar)))
    path = tmp_path / "mixed.bin"
    with pytest.raises(ValueError, match=what):
        save_memory(mem, path)
    assert not path.exists()


def test_load_rejects_an_exemplar_stored_under_another_class(tmp_path):
    mem, path = saved_memory(tmp_path)
    data = bytearray(path.read_bytes())
    offsets, _ = int64_field_offsets(mem)
    data[offsets[8]:offsets[8] + 8] = struct.pack("<q", 5)    # class 0's first label
    bad = tmp_path / "relabelled.bin"
    bad.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"image labelled 5 in class 0 before offset "
                                         f"{offsets[8] + 32}") as err:
        load_memory(bad)
    assert str(bad) in str(err.value)


def test_load_rejects_prototypes_of_latent_size_zero(tmp_path):
    # magic; D = 0, no exemplar class, one prototype, no budget; the
    # (task, class) record (0, 1) then holds zero-width mean and log-variance.
    # save_memory writes D = 0 only when there are no prototypes.
    path = tmp_path / "zero-width.bin"
    path.write_bytes(b"VPRMEM1\x00" + struct.pack("<4q", 0, 0, 1, -1)
                     + struct.pack("<2q", 0, 1))
    with pytest.raises(ValueError, match=r"latent size of the prototypes \(0,\)") as err:
        load_memory(path)
    assert str(path) in str(err.value)
