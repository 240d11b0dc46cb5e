"""Training loop, SGD, evaluation rules, and the fine-tuning baselines."""

import numpy as np
import pytest

import protoreplay.autodiff as ad
from protoreplay import trainer
from protoreplay.autodiff import Tensor
from protoreplay.data import (Image, incremental_class_plan, permuted_protocol,
                              split_protocol, synthetic_blobs,
                              task_test_images, task_train_images)
from protoreplay.encoder import encode_batch, init_encoder, reference_architecture
from protoreplay.proto import SamplingConfig, VariationalPrototype
from protoreplay.trainer import (TrainerConfig, _replay_task_order, evaluate,
                                 make_state, run_continual, sgd_step,
                                 split_support_query, train_baseline,
                                 train_task)


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
                dict(batch_per_class=1), dict(batch_per_class=0)]:
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
        state.classes_seen[c] = 1
    tests = [Image(np.ones((1, 1, 8)), 0), Image(np.ones((1, 1, 8)), 1)]
    acc, per_class = evaluate(state, tests, cfg)
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
        evaluate(state, [img], cfg, prototype_scope="newest")
    with pytest.raises(ValueError):
        evaluate(state, [Image(np.ones((1, 1, 8)), 5)], cfg)


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
                dict(state.classes_seen),
                [t.data.tobytes() for t in state.encoder.parameters()])

    before = snapshot()
    with pytest.raises(ValueError, match="budget of 10 elements"):
        train_task(state, 2, [img for img in ds.train if img.label >= 2], cfg)
    assert snapshot() == before
    assert state.memory.exemplar_elements() == 8


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
        acc, per_class = evaluate(state, tests, cfg, prototype_scope=scope)
        assert 0.0 < acc < 1.0
        assert acc == sum(hits) / len(tests)
        assert per_class == {c: sum(h for h, img in zip(hits, tests) if img.label == c)
                             / sum(img.label == c for img in tests) for c in range(4)}


# ---------------------------------------------------------------------------
# baselines

def test_baseline_rejects_unknown_kind():
    ds = synthetic_blobs(3, 8, 6, 4, 2.0, seed=0)
    schedule = split_protocol(ds, incremental_class_plan(3, 2, 1, 6), seed=0)
    with pytest.raises(ValueError):
        train_baseline("ewc", ds, schedule, small_arch(), small_cfg())


def test_l2_zero_weight_matches_sgd_naive():
    ds = synthetic_blobs(3, 8, 6, 4, separation=3.0, seed=0)
    schedule = split_protocol(ds, incremental_class_plan(3, 2, 1, 6), seed=0)
    cfg = small_cfg(epochs_per_task=3, learning_rate=0.05)
    naive = train_baseline("sgd_naive", ds, schedule, small_arch(), cfg)
    l2 = train_baseline("l2", ds, schedule, small_arch(), cfg, l2_weight=0.0)
    assert naive.rows == l2.rows


def test_l2_penalty_slows_forgetting_versus_naive():
    ds = synthetic_blobs(3, 8, 10, 10, separation=3.0, seed=0)
    schedule = split_protocol(ds, incremental_class_plan(3, 2, 1, 10), seed=0)
    cfg = small_cfg(epochs_per_task=5, learning_rate=0.05)
    naive = train_baseline("sgd_naive", ds, schedule, small_arch(), cfg)
    l2 = train_baseline("l2", ds, schedule, small_arch(), cfg, l2_weight=100.0)
    # a strong penalty trades new-task plasticity for old-task retention
    assert l2.rows[-1][0] > naive.rows[-1][0]
    assert l2.rows[-1][-1] < naive.rows[-1][-1]


def test_baseline_stops_on_non_finite_loss():
    ds = synthetic_blobs(3, 8, 6, 4, separation=3.0, seed=0)
    next(img for img in ds.train if img.label == 0).pixels[0, 0, 3] = np.nan
    schedule = split_protocol(ds, incremental_class_plan(3, 2, 1, 6), seed=0)
    with pytest.raises(FloatingPointError,
                       match=r"non-finite loss nan at task 1, epoch 1/5, batch 1/1"):
        train_baseline("sgd_naive", ds, schedule, small_arch(), small_cfg())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_baseline_stops_on_non_finite_gradient(monkeypatch):
    monkeypatch.setattr(trainer, "_softmax_ce_logits",
                        _inf_in_backward(trainer._softmax_ce_logits))
    ds = synthetic_blobs(3, 8, 6, 4, separation=3.0, seed=0)
    schedule = split_protocol(ds, incremental_class_plan(3, 2, 1, 6), seed=0)
    with pytest.raises(FloatingPointError, match=r"non-finite gradient in parameter 0 "
                       r"\(shape \(8, 64\)\) at task 1, epoch 1/5, batch 1/1"):
        train_baseline("sgd_naive", ds, schedule, small_arch(), small_cfg())


def test_sgd_naive_forgets_more_than_ours():
    ds = synthetic_blobs(4, 10, 10, 10, separation=3.0, seed=3)
    schedule = split_protocol(ds, incremental_class_plan(4, 2, 1, 10), seed=0)
    cfg = small_cfg(epochs_per_task=8, learning_rate=0.1, per_class_quota=5)
    ours, _ = run_continual(ds, schedule, small_arch(input_dim=10), 4, cfg)
    naive = train_baseline("sgd_naive", ds, schedule,
                           small_arch(input_dim=10), cfg)
    assert ours.rows[-1][0] > naive.rows[-1][0]
