"""Training loop, SGD, evaluation rules, and the fine-tuning baselines."""

import os
import threading

import numpy as np
import pytest

import protoreplay.autodiff as ad
from protoreplay import trainer
from protoreplay.autodiff import Tensor
from protoreplay.data import (Batch, Image, incremental_class_plan, permuted_protocol,
                              split_protocol, synthetic_blobs,
                              task_test_images, task_train_images)
from protoreplay.encoder import encode_batch, init_encoder, reference_architecture
from protoreplay.memory import load_memory, save_memory
from protoreplay.proto import (NoiseStream, SamplingConfig, VariationalPrototype,
                               mixed_classification_loss)
from protoreplay.trainer import (TrainerConfig, TrainingState, _replay_task_order,
                                 evaluate, make_state, run_continual, sgd_step,
                                 split_support_query, train_baseline, train_task)


def small_cfg(**kwargs):
    defaults = dict(sampling=SamplingConfig(Z=5, tau=1.0, D=4),
                    learning_rate=0.05, epochs_per_task=5, batch_per_class=6,
                    per_class_quota=4, seed=0)
    defaults.update(kwargs)
    return TrainerConfig(**defaults)


def small_arch(input_dim=8, latent_dim=4):
    return reference_architecture("synthetic_vector", latent_dim=latent_dim,
                                  input_dim=input_dim)


# ---------------------------------------------------------------------------
# support/query split

def test_split_support_query_half_of_ten():
    imgs = [Image(np.zeros((1, 1, 2)), 0, index=i) for i in range(10)]
    support, query = split_support_query(imgs, 0.5, np.random.default_rng(0))
    assert len(support) == 5 and len(query) == 5
    got = sorted(i.index for i in support + query)
    assert got == list(range(10))
    assert not {i.index for i in support} & {i.index for i in query}


def test_split_support_query_three_images_floors_to_one():
    imgs = [Image(np.zeros((1, 1, 2)), 0, index=i) for i in range(3)]
    support, query = split_support_query(imgs, 0.5, np.random.default_rng(1))
    assert len(support) == 1 and len(query) == 2


def test_split_support_query_deterministic_under_seed():
    imgs = [Image(np.zeros((1, 1, 2)), 0, index=i) for i in range(8)]
    a = split_support_query(imgs, 0.5, np.random.default_rng(7))
    b = split_support_query(imgs, 0.5, np.random.default_rng(7))
    assert [i.index for i in a[0]] == [i.index for i in b[0]]
    assert [i.index for i in a[1]] == [i.index for i in b[1]]


def test_split_support_query_rejects_singleton():
    with pytest.raises(ValueError):
        split_support_query([Image(np.zeros((1, 1, 2)), 0)], 0.5,
                            np.random.default_rng(0))


# ---------------------------------------------------------------------------
# SGD

def test_sgd_step_quadratic_rule():
    params = init_encoder(small_arch(), latent_dim=4, seed=0)
    before = [t.data.copy() for t in params.parameters()]
    for t in params.parameters():
        t.grad = 2.0 * t.data        # gradient of sum(w^2)
    sgd_step(params, 0.1)
    for t, old in zip(params.parameters(), before):
        assert np.allclose(t.data, 0.8 * old)
        assert t.grad is None


def test_sgd_step_requires_gradients():
    params = init_encoder(small_arch(), latent_dim=4, seed=0)
    with pytest.raises(ValueError, match="gradient"):
        sgd_step(params, 0.1)


# ---------------------------------------------------------------------------
# config validation and replay order

def test_trainer_config_validation():
    for bad in [dict(learning_rate=0.0), dict(epochs_per_task=0),
                dict(support_fraction=1.0), dict(replay_weight=-1.0),
                dict(replay_order="random"), dict(recall="proto_only"),
                dict(batch_per_class=1), dict(batch_per_class=0),
                dict(replay_weight=float("nan")), dict(learning_rate=float("inf")),
                dict(support_fraction=float("nan"))]:
        with pytest.raises(ValueError):
            small_cfg(**bad)


def test_replay_task_order():
    assert _replay_task_order([3, 1, 2], "forward") == [1, 2, 3]
    assert _replay_task_order([3, 1, 2], "backward") == [3, 2, 1]
    assert _replay_task_order([3, 1, 2], "current_only") == [3]


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_tie_breaks_to_lowest_class_id():
    cfg = small_cfg()
    params = init_encoder(small_arch(), latent_dim=4, seed=0, zero=True)
    state = make_state(params, cfg)
    state.current_task = 1
    for c in (0, 1):
        state.memory.prototype_history[(1, c)] = VariationalPrototype(
            1, c, Tensor(np.zeros(4)), Tensor(np.zeros(4)))
    tests = [Image(np.ones((1, 1, 8)), 0), Image(np.ones((1, 1, 8)), 1)]
    acc, per_class = evaluate(state, Batch.of(tests), cfg)
    assert per_class == {0: 1.0, 1: 0.0}   # both predicted as class 0
    assert acc == 0.5


def test_evaluate_rejects_unknown_scope_and_missing_class():
    cfg = small_cfg()
    params = init_encoder(small_arch(), latent_dim=4, seed=0, zero=True)
    state = make_state(params, cfg)
    state.memory.prototype_history[(1, 0)] = VariationalPrototype(
        1, 0, Tensor(np.zeros(4)), Tensor(np.zeros(4)))
    img = Image(np.ones((1, 1, 8)), 0)
    with pytest.raises(ValueError):
        evaluate(state, Batch.of([img]), cfg, prototype_scope="newest")
    with pytest.raises(ValueError):
        evaluate(state, Batch.of([Image(np.ones((1, 1, 8)), 5)]), cfg)


def test_evaluate_on_task_test_images_constructs_no_image(monkeypatch):
    ds = synthetic_blobs(3, 8, 8, 6, separation=3.0, seed=1)
    schedule = permuted_protocol(ds, 2, seed=0)
    cfg = small_cfg(epochs_per_task=1)
    _, state = run_continual(ds, schedule, small_arch(), 4, cfg)
    made = []
    init = Image.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Image, "__init__", counting_init)
    for spec in schedule.tasks:
        acc, _ = evaluate(state, task_test_images(ds, spec), cfg, prototype_scope="history")
        assert 0.0 <= acc <= 1.0
    assert made == []


def test_evaluate_rejects_an_empty_batch():
    cfg = small_cfg()
    state = make_state(init_encoder(small_arch(), latent_dim=4, seed=0, zero=True), cfg)
    state.memory.prototype_history[(1, 0)] = VariationalPrototype(
        1, 0, Tensor(np.zeros(4)), Tensor(np.zeros(4)))
    with pytest.raises(ValueError, match="holds no images"):
        evaluate(state, Batch(np.zeros((0, 1, 1, 8)), np.zeros(0, dtype=int)), cfg)


# ---------------------------------------------------------------------------
# single-task training

def test_single_task_training_separates_blobs():
    ds = synthetic_blobs(3, 8, 12, 10, separation=4.0, seed=0)
    schedule = split_protocol(ds, [([0, 1, 2], 12)], seed=0)
    cfg = small_cfg(epochs_per_task=10, learning_rate=0.1)
    matrix, state = run_continual(ds, schedule, small_arch(), 4, cfg)
    assert matrix.rows[0][0] > 0.9
    # one task: exemplars stored for each class, prototypes under task 1
    assert sorted(state.memory.exemplars) == [0, 1, 2]
    assert sorted(state.memory.prototype_history) == [(1, 0), (1, 1), (1, 2)]


def test_train_task_rejects_repeated_class_in_class_protocol():
    ds = synthetic_blobs(2, 8, 6, 4, 2.0, seed=0)
    cfg = small_cfg()
    params = init_encoder(small_arch(), latent_dim=4, seed=0)
    state = make_state(params, cfg)
    imgs = [img for img in ds.train]
    train_task(state, 1, imgs, cfg)
    with pytest.raises(ValueError, match="repeat"):
        train_task(state, 2, imgs, cfg)


def test_train_task_stops_on_non_finite_loss():
    ds = synthetic_blobs(2, 8, 6, 4, 2.0, seed=0)
    cfg = small_cfg()
    state = make_state(init_encoder(small_arch(), latent_dim=4, seed=0), cfg)
    imgs = [Image(img.pixels.copy(), img.label, img.task, img.index) for img in ds.train]
    imgs[3].pixels[0, 0, 5] = np.nan
    with pytest.raises(FloatingPointError,
                       match=r"non-finite loss nan at task 1, epoch 1/5, batch 1/1"):
        train_task(state, 1, imgs, cfg)


def _producers():
    return [t for t in threading.enumerate() if t.name == "noise-ahead"]


def test_train_task_joins_the_noise_producer_on_a_non_finite_loss(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    running = []

    def loss(*args, **kwargs):
        running.append(len(_producers()))
        return mixed_classification_loss(*args, **kwargs)
    monkeypatch.setattr(trainer, "mixed_classification_loss", loss)
    ds = synthetic_blobs(2, 8, 6, 4, 2.0, seed=0)
    cfg = small_cfg()
    state = make_state(init_encoder(small_arch(), latent_dim=4, seed=0), cfg)
    imgs = [Image(img.pixels.copy(), img.label, img.task, img.index) for img in ds.train]
    imgs[3].pixels[0, 0, 5] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite loss"):
        train_task(state, 1, imgs, cfg)
    assert running == [1] and not _producers()


def test_run_continual_same_with_noise_drawn_ahead_or_inline(monkeypatch):
    ds = synthetic_blobs(4, 8, 8, 6, separation=3.0, seed=1)
    schedule = split_protocol(ds, incremental_class_plan(4, 2, 1, 8), seed=0)
    cfg = small_cfg(epochs_per_task=3, sampling=SamplingConfig(Z=50, tau=1.0, D=200))
    monkeypatch.setattr(NoiseStream, "BLOCK", 1000)   # requests span several blocks

    def run(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        matrix, state = run_continual(ds, schedule, small_arch(latent_dim=200), 200, cfg)
        history = state.memory.prototype_history
        return matrix.rows, [(k, history[k].mean.data.tobytes(),
                              history[k].logvar.data.tobytes()) for k in sorted(history)]

    assert run(cpus=2) == run(cpus=1)


def test_run_continual_without_sched_getaffinity_matches_one_cpu(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity; os.cpu_count() gates
    # the noise producer there
    ds = synthetic_blobs(4, 8, 8, 6, separation=3.0, seed=1)
    schedule = split_protocol(ds, incremental_class_plan(4, 2, 1, 8), seed=0)
    cfg = small_cfg(epochs_per_task=2, sampling=SamplingConfig(Z=20, tau=1.0, D=50))
    monkeypatch.setattr(NoiseStream, "BLOCK", 1000)   # requests span several blocks
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    producers = []

    def loss(*args, **kwargs):
        producers.append(len(_producers()))
        return mixed_classification_loss(*args, **kwargs)
    monkeypatch.setattr(trainer, "mixed_classification_loss", loss)

    def run(cpus):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        producers.clear()
        matrix, state = run_continual(ds, schedule, small_arch(latent_dim=50), 50, cfg)
        history = state.memory.prototype_history
        return set(producers), matrix.rows, [(k, history[k].mean.data.tobytes(),
                                              history[k].logvar.data.tobytes())
                                             for k in sorted(history)]

    ahead, inline = run(cpus=2), run(cpus=1)
    assert ahead[0] == {1} and inline[0] == {0}
    assert ahead[1:] == inline[1:]


def _inf_in_backward(loss_fn):
    """``loss_fn`` plus a zero-valued node whose backward sends inf into the loss."""
    def patched(*args, **kwargs):
        loss = loss_fn(*args, **kwargs)

        def backward(g):
            ad._accumulate(loss, np.full_like(loss.data, np.inf))
        return ad.add(loss, ad._node(np.zeros_like(loss.data), (loss,), backward))
    return patched


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_task_stops_on_non_finite_gradient(monkeypatch):
    monkeypatch.setattr(trainer, "mixed_classification_loss",
                        _inf_in_backward(trainer.mixed_classification_loss))
    ds = synthetic_blobs(2, 8, 6, 4, 2.0, seed=0)
    cfg = small_cfg()
    state = make_state(init_encoder(small_arch(), latent_dim=4, seed=0), cfg)
    before = [p.data.copy() for p in state.encoder.parameters()]
    with pytest.raises(FloatingPointError, match=r"non-finite gradient in parameter 0 "
                       r"\(shape \(8, 64\)\) at task 1, epoch 1/5, batch 1/1"):
        train_task(state, 1, list(ds.train), cfg)
    assert all(np.array_equal(p.data, b)
               for p, b in zip(state.encoder.parameters(), before))


def test_train_task_rejects_sampling_width_other_than_encoder_latent():
    cfg = small_cfg(sampling=SamplingConfig(Z=5, tau=1.0, D=500))
    state = make_state(init_encoder(small_arch(latent_dim=16), latent_dim=16, seed=0), cfg)
    ds = synthetic_blobs(2, 8, 6, 4, 2.0, seed=0)
    with pytest.raises(ValueError, match=r"D = 500 .* latent width 16"):
        train_task(state, 1, list(ds.train), cfg)


def test_budget_too_small_fails_before_the_task_changes_anything():
    # 4-element images under a 10-element budget: two classes fit one
    # exemplar each, four do not
    ds = synthetic_blobs(4, 4, 6, 2, separation=3.0, seed=0)
    cfg = small_cfg(budget_elements=10)
    state = make_state(init_encoder(small_arch(input_dim=4), latent_dim=4, seed=0), cfg)
    train_task(state, 1, [img for img in ds.train if img.label < 2], cfg)

    def snapshot():
        return ({c: [id(img) for img in imgs] for c, imgs in state.memory.exemplars.items()},
                {k: (p.mean.data.tobytes(), p.logvar.data.tobytes())
                 for k, p in state.memory.prototype_history.items()},
                [t.data.tobytes() for t in state.encoder.parameters()])

    before = snapshot()
    with pytest.raises(ValueError, match="budget of 10 elements"):
        train_task(state, 2, [img for img in ds.train if img.label >= 2], cfg)
    assert snapshot() == before
    assert state.memory.exemplar_elements() == 8


def test_a_state_given_a_loaded_memory_knows_the_classes_it_has_seen(tmp_path):
    # 4-element images under a 24-element budget: task 1's two classes keep
    # three exemplars each; after task 2 the four classes keep one each,
    # whether or not the memory went through a snapshot in between
    ds = synthetic_blobs(4, 4, 6, 2, separation=3.0, seed=0)
    cfg = small_cfg(budget_elements=24)
    first, second = ([img for img in ds.train if lo <= img.label < lo + 2] for lo in (0, 2))
    held = []
    for resumed in (False, True):
        state = make_state(init_encoder(small_arch(input_dim=4), latent_dim=4, seed=0), cfg)
        train_task(state, 1, first, cfg)
        if resumed:         # a new state: the same encoder and generators, the memory read back
            save_memory(state.memory, tmp_path / "memory.bin")
            state = TrainingState(state.encoder, load_memory(tmp_path / "memory.bin"),
                                  state.rng, state.noise)
        train_task(state, 2, second, cfg)
        held.append(state.memory.exemplar_elements())
    assert held == [16, 16]
    with pytest.raises(ValueError, match=r"classes \[0\] repeat at task 3"):
        train_task(state, 3, [img for img in first if img.label == 0], cfg)


def test_trailing_single_image_chunk_is_skipped(monkeypatch):
    # 11 and 6 images at batch_per_class=10: batch 1 holds both classes;
    # batch 2 holds only class 0's one leftover image, which cannot be split
    # into support and query, so the batch is skipped without encoding it.
    import protoreplay.trainer as trainer
    ds = synthetic_blobs(2, 8, 11, 1, separation=3.0, seed=0)
    imgs = [img for img in ds.train if img.label == 0 or img.index < 6]
    cfg = small_cfg(epochs_per_task=2, batch_per_class=10)
    state = make_state(init_encoder(small_arch(), latent_dim=4, seed=0), cfg)
    events = []
    encode_batch, sgd = trainer.encode_batch, trainer.sgd_step

    def spy_encode(params, pixels):
        events.append(len(pixels))
        return encode_batch(params, pixels)

    def spy_sgd(params, lr):
        events.append("step")
        return sgd(params, lr)

    monkeypatch.setattr(trainer, "encode_batch", spy_encode)
    monkeypatch.setattr(trainer, "sgd_step", spy_sgd)
    train_task(state, 1, imgs, cfg)
    assert events == [16, "step", 16, "step", 17]


def test_one_encoder_pass_per_step_and_per_task_end(monkeypatch):
    # At task 3 every exemplar of classes 0 and 1 enters two replay terms
    # (tasks 1 and 2 both hold prototypes of those classes); each step must
    # still encode it once, in a single pass with the new-class images.
    import protoreplay.trainer as trainer
    ds = synthetic_blobs(4, 8, 8, 6, separation=3.0, seed=1)
    schedule = split_protocol(ds, incremental_class_plan(4, 2, 1, 8), seed=0)
    cfg = small_cfg(epochs_per_task=2)
    state = make_state(init_encoder(small_arch(), latent_dim=4, seed=0), cfg)
    for spec in schedule.tasks[:2]:
        train_task(state, spec.task_id, task_train_images(ds, spec), cfg)

    events = []                    # each encoded pixel batch, and "step"
    encode_batch, sgd = trainer.encode_batch, trainer.sgd_step

    def spy_encode(params, pixels):
        events.append(pixels.copy())
        return encode_batch(params, pixels)

    def spy_sgd(params, lr):
        events.append("step")
        return sgd(params, lr)

    monkeypatch.setattr(trainer, "encode_batch", spy_encode)
    monkeypatch.setattr(trainer, "sgd_step", spy_sgd)
    stored = [img for c in sorted(state.memory.exemplars)
              for img in state.memory.exemplars[c]]
    train_task(state, 3, task_train_images(ds, schedule.tasks[2]), cfg)

    is_step = [isinstance(e, str) for e in events]
    steps = sum(is_step)
    assert steps > 0
    assert is_step == [False, True] * steps + [False]
    for batch in events[:-1:2]:
        for img in stored:
            hits = np.all(batch == img.pixels, axis=(1, 2, 3)).sum()
            assert hits == 1, f"exemplar {img.label}/{img.index} encoded {hits} times"


# ---------------------------------------------------------------------------
# continual runs

def test_run_continual_bitwise_deterministic():
    ds = synthetic_blobs(4, 8, 8, 6, separation=3.0, seed=1)
    schedule = split_protocol(ds, incremental_class_plan(4, 2, 1, 8), seed=0)
    cfg = small_cfg(epochs_per_task=3)

    def run():
        matrix, state = run_continual(ds, schedule, small_arch(), 4, cfg)
        return matrix.rows, [t.data.copy() for t in state.encoder.parameters()]

    rows_a, params_a = run()
    rows_b, params_b = run()
    assert rows_a == rows_b
    assert all(np.array_equal(a, b) for a, b in zip(params_a, params_b))


def test_replay_weight_changes_the_run():
    ds = synthetic_blobs(4, 8, 8, 6, separation=3.0, seed=1)
    schedule = split_protocol(ds, incremental_class_plan(4, 2, 1, 8), seed=0)
    with_replay, _ = run_continual(ds, schedule, small_arch(), 4,
                                   small_cfg(epochs_per_task=3, replay_weight=1.0))
    without, _ = run_continual(ds, schedule, small_arch(), 4,
                               small_cfg(epochs_per_task=3, replay_weight=0.0))
    assert with_replay.rows != without.rows


@pytest.mark.parametrize("replay_weight", [0.0, 1.0])
def test_new_classes_are_scored_against_every_old_class(monkeypatch, replay_weight):
    # without replay the old classes' prototypes stay under the task that
    # learned them, so each task still has to see all of them
    frozen_at = {}

    def loss(mean, logvar, labels, online, frozen, *rest):
        if online:
            frozen_at.setdefault(online[0].task_id, {p.class_id for p in frozen})
        return mixed_classification_loss(mean, logvar, labels, online, frozen, *rest)
    monkeypatch.setattr(trainer, "mixed_classification_loss", loss)
    ds = synthetic_blobs(5, 8, 8, 6, separation=3.0, seed=1)
    schedule = split_protocol(ds, incremental_class_plan(5, 2, 1, 8), seed=0)
    run_continual(ds, schedule, small_arch(), 4,
                  small_cfg(epochs_per_task=1, replay_weight=replay_weight))
    assert frozen_at == {1: set(), 2: {0, 1}, 3: {0, 1, 2}, 4: {0, 1, 2, 3}}


def test_run_continual_matrix_is_lower_triangular():
    ds = synthetic_blobs(4, 8, 8, 6, separation=3.0, seed=1)
    schedule = split_protocol(ds, incremental_class_plan(4, 2, 1, 8), seed=0)
    matrix, _ = run_continual(ds, schedule, small_arch(), 4,
                              small_cfg(epochs_per_task=2))
    assert [len(r) for r in matrix.rows] == [1, 2, 3]


def test_domain_run_stores_per_task_prototypes():
    ds = synthetic_blobs(3, 10, 8, 6, separation=3.0, seed=2)
    schedule = permuted_protocol(ds, 3, seed=0)
    _, state = run_continual(ds, schedule, small_arch(input_dim=10), 4,
                             small_cfg(epochs_per_task=2))
    assert sorted(state.memory.prototype_history) == [
        (t, c) for t in (1, 2, 3) for c in (0, 1, 2)]


def test_evaluate_matches_per_image_loop():
    # the nearest-prototype rule, one test image at a time, as the reference
    ds = synthetic_blobs(4, 8, 8, 30, separation=1.0, seed=1)
    schedule = split_protocol(ds, incremental_class_plan(4, 2, 1, 8), seed=0)
    cfg = small_cfg(epochs_per_task=2)
    _, state = run_continual(ds, schedule, small_arch(), 4, cfg)
    tests = ds.test
    for scope in ("latest", "history"):
        if scope == "latest":
            latest = state.memory.latest_prototypes()
            protos = [latest[c] for c in sorted(latest)]
        else:
            protos = [state.memory.prototype_history[k]
                      for k in sorted(state.memory.prototype_history)]
        means = np.stack([p.mean.data for p in protos])
        emb = encode_batch(state.encoder, np.stack([img.pixels for img in tests]))[0].data
        preds = [protos[int(np.argmin(np.linalg.norm(e[None, :] - means, axis=1)))].class_id
                 for e in emb]
        hits = [p == img.label for p, img in zip(preds, tests)]
        acc, per_class = evaluate(state, Batch.of(tests), cfg, prototype_scope=scope)
        assert 0.0 < acc < 1.0
        assert acc == sum(hits) / len(tests)
        assert per_class == {c: sum(h for h, img in zip(hits, tests) if img.label == c)
                             / sum(img.label == c for img in tests) for c in range(4)}


def _per_image_loop(state, tests, scope):
    """The nearest-prototype rule one test image at a time, by np.linalg.norm;
    a tie goes to the first candidate in scope order."""
    if scope == "latest":
        latest = state.memory.latest_prototypes()
        protos = [latest[c] for c in sorted(latest)]
    else:
        protos = [state.memory.prototype_history[k]
                  for k in sorted(state.memory.prototype_history)]
    means = np.stack([p.mean.data for p in protos])
    emb = encode_batch(state.encoder, np.stack([img.pixels for img in tests]))[0].data
    hits = [protos[int(np.argmin(np.linalg.norm(e - means, axis=1)))].class_id == img.label
            for e, img in zip(emb, tests)]
    labels = sorted({img.label for img in tests})
    return sum(hits) / len(tests), {
        c: sum(h for h, img in zip(hits, tests) if img.label == c)
        / sum(img.label == c for img in tests) for c in labels}


def _tied_prototype_state(rng, scope, offset=0.0):
    """An untrained encoder whose stored prototype means are three anchor
    images' means, each stored under two or three (task, class) keys, and
    test images of random labels close to the anchors. A non-zero
    ``offset`` moves every latent mean by it and shrinks their spread a
    millionfold."""
    D = 50
    cfg = small_cfg(sampling=SamplingConfig(Z=5, tau=1.0, D=D))
    params = init_encoder(small_arch(latent_dim=D), latent_dim=D,
                          seed=int(rng.integers(1 << 16)))
    if offset:
        w, b = params.weights[-1]
        w.data[:, :D] *= 1e-6
        b.data[:D] += offset
    anchors = rng.uniform(-1, 1, (3, 1, 1, 8))
    bases = encode_batch(params, anchors)[0].data
    state = make_state(params, cfg)
    if scope == "latest":
        keys = [(1, c) for c in range(6)]
        uses = rng.permutation([0, 0, 1, 1, 2, 2])
    else:
        keys = [(t, c) for t in (1, 2, 3) for c in range(3)]
        uses = rng.permutation([0, 0, 0, 1, 1, 1, 2, 2, 2])
    for (t, c), u in zip(keys, uses):
        state.memory.prototype_history[(t, c)] = VariationalPrototype(
            t, c, Tensor(bases[u].copy()), Tensor(np.zeros(D)))
    classes = sorted({c for _, c in keys})
    tests = [Image(anchors[i % 3] + rng.normal(0, 0.05, (1, 1, 8)), int(rng.choice(classes)))
             for i in range(30)]
    return state, tests, cfg


@pytest.mark.parametrize("scope", ["latest", "history"])
def test_evaluate_ties_between_equal_means_match_per_image_loop(scope):
    # the GEMM behind evaluate can round two equal prototype columns apart,
    # so equal means must resolve like the per-image loop: first candidate
    rng = np.random.default_rng(11)
    for _ in range(60):
        state, tests, cfg = _tied_prototype_state(rng, scope)
        assert evaluate(state, Batch.of(tests), cfg, prototype_scope=scope) == \
            _per_image_loop(state, tests, scope)


@pytest.mark.parametrize("scope", ["latest", "history"])
def test_evaluate_far_from_the_origin_matches_per_image_loop(scope):
    # latents near 1e3 that differ by about 1e-6: the squared-distance
    # expansion is only exact enough on samples centred first
    state, tests, cfg = _tied_prototype_state(np.random.default_rng(5), scope, offset=1e3)
    acc, per_class = evaluate(state, Batch.of(tests), cfg, prototype_scope=scope)
    assert 0.0 < acc < 1.0
    assert (acc, per_class) == _per_image_loop(state, tests, scope)


def test_evaluate_between_tasks_leaves_the_next_steps_gradients_unchanged(monkeypatch):
    ds = synthetic_blobs(3, 8, 8, 6, separation=3.0, seed=1)
    schedule = split_protocol(ds, incremental_class_plan(3, 2, 1, 8), seed=0)
    cfg = small_cfg(epochs_per_task=2)
    sgd = trainer.sgd_step

    def gradients(evaluate_first):
        grads = []

        def spy_sgd(params, lr):
            grads.append([p.grad.copy() for p in params.parameters()])
            return sgd(params, lr)

        state = make_state(init_encoder(small_arch(), latent_dim=4, seed=0), cfg)
        train_task(state, 1, task_train_images(ds, schedule.tasks[0]), cfg)
        if evaluate_first:
            evaluate(state, task_test_images(ds, schedule.tasks[0]), cfg)
        with monkeypatch.context() as m:
            m.setattr(trainer, "sgd_step", spy_sgd)
            train_task(state, 2, task_train_images(ds, schedule.tasks[1]), cfg)
        return grads

    with_eval, without = gradients(True), gradients(False)
    assert len(with_eval) == len(without) > 0
    for a, b in zip(with_eval, without):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(np.any(g) for g in with_eval[0])


def test_evaluate_keeps_no_graph_alive(monkeypatch):
    # Memory held right after evaluate's encode of 80 cifar_like_32 images:
    # 0.6 MB graph-free (the (80, 500) means and log-variances; the pixels
    # arrive as one batch), about 208 MB with the forward graph kept.
    import tracemalloc
    cfg = TrainerConfig(SamplingConfig(Z=2, D=500))
    state = make_state(init_encoder(reference_architecture("cifar_like_32"), 500, seed=0), cfg)
    rng = np.random.default_rng(0)
    for c in (0, 1):
        state.memory.prototype_history[(1, c)] = VariationalPrototype(
            1, c, Tensor(rng.normal(size=500)), Tensor(np.zeros(500)))
    tests = Batch.of([Image(rng.uniform(0, 1, (3, 32, 32)), i % 2) for i in range(80)])
    held = []
    encode = trainer.encode_batch

    def spy_encode(params, pixels):
        out = encode(params, pixels)
        held.append(tracemalloc.get_traced_memory()[0])
        return out

    monkeypatch.setattr(trainer, "encode_batch", spy_encode)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate(state, tests, cfg)
    finally:
        tracemalloc.stop()
    assert (held[0] - before) / 1e6 < 4.0


def test_evaluate_peak_memory_on_cifar_like_32():
    # Traced peak of evaluate on 80 cifar_like_32 images: 13.7 MB (15.7 MB
    # when evaluate stacked the pixels itself), against 100.5 MB when conv2d
    # built its whole-batch im2col block.
    import tracemalloc
    cfg = TrainerConfig(SamplingConfig(Z=2, D=500))
    state = make_state(init_encoder(reference_architecture("cifar_like_32"), 500, seed=0), cfg)
    rng = np.random.default_rng(0)
    for c in (0, 1):
        state.memory.prototype_history[(1, c)] = VariationalPrototype(
            1, c, Tensor(rng.normal(size=500)), Tensor(np.zeros(500)))
    tests = Batch.of([Image(rng.uniform(0, 1, (3, 32, 32)), i % 2) for i in range(80)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate(state, tests, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / 1e6 < 40.0


def test_accuracy_matrices_pinned():
    # Recorded values, equal at 1 and 2 BLAS threads: an engine change that
    # moves them changes the results of a run.
    cfg = small_cfg(epochs_per_task=4)
    ds = synthetic_blobs(4, 8, 10, 25, separation=2.0, seed=1)
    schedule = split_protocol(ds, incremental_class_plan(4, 2, 1, 8), seed=0)
    matrix, _ = run_continual(ds, schedule, small_arch(), 4, cfg)
    assert matrix.rows == [[0.84], [0.66, 0.64], [0.6, 0.48, 0.64]]
    ds = synthetic_blobs(4, 8, 10, 25, separation=3.0, seed=2)
    matrix, _ = run_continual(ds, permuted_protocol(ds, 3, seed=0), small_arch(), 4, cfg)
    assert matrix.rows == [[0.69], [0.54, 0.47], [0.38, 0.46, 0.49]]


# ---------------------------------------------------------------------------
# baselines

def test_baseline_rejects_a_negative_l2_weight():
    ds = synthetic_blobs(3, 8, 6, 4, 2.0, seed=0)
    schedule = split_protocol(ds, incremental_class_plan(3, 2, 1, 6), seed=0)
    with pytest.raises(ValueError, match="l2_weight must be >= 0, got -1.0"):
        train_baseline(ds, schedule, small_arch(), small_cfg(), l2_weight=-1.0)


def test_l2_penalty_slows_forgetting_versus_naive():
    ds = synthetic_blobs(3, 8, 10, 10, separation=3.0, seed=0)
    schedule = split_protocol(ds, incremental_class_plan(3, 2, 1, 10), seed=0)
    cfg = small_cfg(epochs_per_task=5, learning_rate=0.05)
    naive = train_baseline(ds, schedule, small_arch(), cfg)
    l2 = train_baseline(ds, schedule, small_arch(), cfg, l2_weight=100.0)
    # a strong penalty trades new-task plasticity for old-task retention
    assert l2.rows[-1][0] > naive.rows[-1][0]
    assert l2.rows[-1][-1] < naive.rows[-1][-1]


def test_baseline_stops_on_non_finite_loss():
    ds = synthetic_blobs(3, 8, 6, 4, separation=3.0, seed=0)
    next(img for img in ds.train if img.label == 0).pixels[0, 0, 3] = np.nan
    schedule = split_protocol(ds, incremental_class_plan(3, 2, 1, 6), seed=0)
    with pytest.raises(FloatingPointError,
                       match=r"non-finite loss nan at task 1, epoch 1/5, batch 1/1"):
        train_baseline(ds, schedule, small_arch(), small_cfg())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_baseline_stops_on_non_finite_gradient(monkeypatch):
    monkeypatch.setattr(trainer, "_softmax_ce_logits",
                        _inf_in_backward(trainer._softmax_ce_logits))
    ds = synthetic_blobs(3, 8, 6, 4, separation=3.0, seed=0)
    schedule = split_protocol(ds, incremental_class_plan(3, 2, 1, 6), seed=0)
    with pytest.raises(FloatingPointError, match=r"non-finite gradient in parameter 0 "
                       r"\(shape \(8, 64\)\) at task 1, epoch 1/5, batch 1/1"):
        train_baseline(ds, schedule, small_arch(), small_cfg())


def test_sgd_naive_forgets_more_than_ours():
    ds = synthetic_blobs(4, 10, 10, 10, separation=3.0, seed=3)
    schedule = split_protocol(ds, incremental_class_plan(4, 2, 1, 10), seed=0)
    cfg = small_cfg(epochs_per_task=8, learning_rate=0.1, per_class_quota=5)
    ours, _ = run_continual(ds, schedule, small_arch(input_dim=10), 4, cfg)
    naive = train_baseline(ds, schedule, small_arch(input_dim=10), cfg)
    assert ours.rows[-1][0] > naive.rows[-1][0]
