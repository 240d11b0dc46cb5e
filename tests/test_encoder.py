"""Encoder architectures, parameter counts, differentiability, and the
conv blocks' image loops over two threads."""

import os
import threading
import time

import numpy as np
import pytest

import protoreplay.autodiff as ad
from protoreplay.autodiff import Tensor, grad_check
from protoreplay.data import Image
from protoreplay.encoder import (LOGVAR_BOUND, LayerSpec, baseline_head,
                                 encode_batch, forward, grow_head, init_encoder,
                                 param_count, reference_architecture)


def small_layers(input_dim=6, hidden=8, D=2):
    return [LayerSpec("flatten"), LayerSpec("fullyconnected", (input_dim, hidden)),
            LayerSpec("relu"), LayerSpec("fullyconnected", (hidden, 2 * D))]


def test_zero_weights_give_zero_embedding():
    params = init_encoder(small_layers(), latent_dim=2, seed=0, zero=True)
    img = Image(np.random.default_rng(0).uniform(0, 1, (1, 1, 6)), 0)
    mean, logvar = encode_batch(params, img.pixels[None])
    assert np.array_equal(mean.data, np.zeros((1, 2)))
    assert np.array_equal(logvar.data, np.zeros((1, 2)))


def test_cifar_architecture_shapes_and_latent_500():
    layers = reference_architecture("cifar_like_32")
    params = init_encoder(layers, latent_dim=500, seed=0)
    img = Image(np.random.default_rng(1).uniform(0, 1, (3, 32, 32)), 0)
    mean, logvar = encode_batch(params, img.pixels[None])
    assert mean.data.shape == (1, 500)
    assert logvar.data.shape == (1, 500)
    # flattened conv output feeding fc(3200, 500)
    fc = [l for l in layers if l.kind == "fullyconnected"][0]
    assert fc.dims == (3200, 500)


def test_cifar_encoder_parameter_count_table1():
    layers = reference_architecture("cifar_like_32")
    assert param_count(layers) == 2_126_500
    assert param_count(layers) == (3 * 20 * 5 * 5 + 20 * 50 * 5 * 5
                                   + 3200 * 500 + 500 * 1000)


def test_baseline_classifier_parameter_count_table1():
    layers = baseline_head(reference_architecture("cifar_like_32"), 10)
    assert param_count(layers) == 1_631_500


def test_baseline_head_zero_weights_uniform_softmax():
    layers = baseline_head(reference_architecture("synthetic_vector",
                                                  latent_dim=4, input_dim=6), 3)
    params = init_encoder(layers, latent_dim=4, seed=0, zero=True)
    from protoreplay.encoder import forward
    logits = forward(params, Tensor(np.random.default_rng(2)
                                    .uniform(0, 1, (2, 1, 1, 6)))).data
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    assert np.allclose(probs, 1.0 / 3.0)


def test_grow_head_copies_old_columns():
    layers = baseline_head(small_layers(), 2)
    params = init_encoder(layers, latent_dim=2, seed=3)
    grown = grow_head(params, 3)
    last = max(i for i, l in enumerate(grown.layers)
               if l.kind == "fullyconnected")
    assert grown.layers[last].dims == (8, 3)
    w_old = params.weights[last][0].data
    w_new = grown.weights[last][0].data
    assert np.array_equal(w_new[:, :2], w_old)
    # head growth adds exactly in_features + 1 parameters per class (w + bias)
    assert grown.weights[last][0].data.size - w_old.size == 8


def test_grow_head_rejects_shrink():
    layers = baseline_head(small_layers(), 3)
    params = init_encoder(layers, latent_dim=2, seed=3)
    with pytest.raises(ValueError):
        grow_head(params, 2)


def test_mnist_and_synthetic_architectures_end_in_2d():
    for name, kwargs, expect_in in [
            ("mnist_like_28", {"latent_dim": 50}, 784),
            ("synthetic_vector", {"latent_dim": 7, "input_dim": 20}, 20)]:
        layers = reference_architecture(name, **kwargs)
        first_fc = [l for l in layers if l.kind == "fullyconnected"][0]
        last_fc = [l for l in layers if l.kind == "fullyconnected"][-1]
        assert first_fc.dims[0] == expect_in
        assert last_fc.dims[1] == 2 * kwargs["latent_dim"]


def test_encode_deterministic():
    params = init_encoder(small_layers(), latent_dim=2, seed=4)
    img = Image(np.random.default_rng(5).uniform(0, 1, (1, 1, 6)), 0)
    (m1, lv1), (m2, lv2) = (encode_batch(params, img.pixels[None]) for _ in range(2))
    assert np.array_equal(m1.data, m2.data)
    assert np.array_equal(lv1.data, lv2.data)


def test_encode_rejects_shape_mismatch():
    params = init_encoder(small_layers(input_dim=6), latent_dim=2, seed=0)
    with pytest.raises(Exception):
        encode_batch(params, Image(np.zeros((1, 1, 9)), 0).pixels[None])


def test_encode_batch_rejects_output_width_other_than_2d():
    # the network ends in 2 * 2 = 4 outputs but is told D = 3
    params = init_encoder(small_layers(D=2), latent_dim=3, seed=0)
    with pytest.raises(ad.ShapeError, match=r"encoder output width 4 != 2\*D = 6"):
        encode_batch(params, np.zeros((2, 1, 1, 6)))


def test_logvar_clamped_to_bound():
    params = init_encoder(small_layers(), latent_dim=2, seed=6)
    # inflate the final layer so raw outputs exceed the bound
    last = max(i for i, l in enumerate(params.layers)
               if l.kind == "fullyconnected")
    params.weights[last][0].data *= 1e4
    img = Image(np.random.default_rng(7).uniform(0.5, 1, (1, 1, 6)), 0)
    _, logvar = encode_batch(params, img.pixels[None])
    assert np.all(logvar.data <= LOGVAR_BOUND)
    assert np.all(logvar.data >= -LOGVAR_BOUND)


def test_encoder_param_count_class_independent():
    layers = reference_architecture("synthetic_vector", latent_dim=8,
                                    input_dim=12)
    # the variational path has no class-count-dependent layer
    assert param_count(layers) == 12 * 64 + 64 * 16


def test_encode_batch_gradcheck():
    params = init_encoder(small_layers(), latent_dim=2, seed=8)
    pixels = np.random.default_rng(9).uniform(0, 1, (2, 1, 1, 6))

    def f(*weights):
        mean, logvar = encode_batch(params, pixels)
        return ad.tsum(ad.add(ad.square(mean), ad.square(logvar)))

    assert grad_check(f, params.parameters(), epsilon=1e-5) < 1e-4


@pytest.mark.parametrize("make, fragment", [
    (lambda: encode_batch(init_encoder([LayerSpec("dropout")], latent_dim=1),
                          np.zeros((1, 1, 1, 2))), "unknown layer kind 'dropout'"),
    # pooling is part of a conv layer, not a layer of its own
    (lambda: forward(init_encoder([LayerSpec("maxpool2x2")], latent_dim=1),
                     Tensor(np.zeros((1, 1, 2, 2)))), "unknown layer kind 'maxpool2x2'"),
    (lambda: reference_architecture("synthetic_vector", latent_dim=4),
     "synthetic_vector needs latent_dim and input_dim"),
    (lambda: reference_architecture("resnet18"), "unknown architecture 'resnet18'"),
    (lambda: baseline_head(small_layers(), 1), "num_classes must be >= 2"),
])
def test_validation_errors_name_the_problem(make, fragment):
    with pytest.raises(ValueError, match=fragment):
        make()


# ---------------------------------------------------------------------------
# the conv blocks' image loops on two threads

def _cifar(head=None):
    layers = reference_architecture("cifar_like_32", latent_dim=8)
    return init_encoder(layers if head is None else baseline_head(layers, head), 8, seed=3)


def _started_threads(monkeypatch):
    """Names of the threads started from here on."""
    names = []

    class Spy(threading.Thread):
        def start(self):
            names.append(self.name)
            super().start()
    monkeypatch.setattr(threading, "Thread", Spy)
    return names


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _serial_forward(params, x):
    """The layer loop with each conv layer as separate conv, bias add, ReLU
    and pool ops."""
    for layer, wb in zip(params.layers, params.weights):
        if layer.kind == "conv":
            x = ad.add(ad.conv2d(x, wb[0], padding=layer.padding),
                       ad.reshape(wb[1], (1, -1, 1, 1)))
            x = ad.maxpool2x2(ad.relu(x))
        elif layer.kind == "fullyconnected":
            x = ad.add(ad.matmul(x, wb[0]), ad.reshape(wb[1], (1, -1)))
        elif layer.kind == "relu":
            x = ad.relu(x)
        else:
            x = ad.reshape(x, (x.shape[0], -1))
    return x


@pytest.mark.parametrize("head", [None, 5], ids=["latent", "baseline"])
@pytest.mark.parametrize("B", [1, 10, 11, 39, 80])
def test_untracked_trunk_split_is_byte_equal_to_serial(monkeypatch, head, B):
    params = _cifar(head)
    x = Tensor(np.random.default_rng(B).uniform(0, 1, (B, 3, 32, 32)))
    conv_out = []
    conv2d = ad.conv2d

    def spy_conv2d(*args, **kwargs):
        out = conv2d(*args, **kwargs)
        conv_out.append(out)
        return out
    with ad.no_grad():
        serial = _serial_forward(params, x).data
        monkeypatch.setattr(ad, "conv2d", spy_conv2d)
        started = _started_threads(monkeypatch)
        _cpus(monkeypatch, 1)
        one = forward(params, x).data
        assert started == []
        _cpus(monkeypatch, 2)
        split = forward(params, x).data
    # each of the two conv blocks splits its image loop once, if it has two groups
    assert started == (["conv-images"] * 2 if B > ad._GROUP else [])
    assert split.tobytes() == one.tobytes() == serial.tobytes()
    # both blocks run through conv2d, untracked
    assert len(conv_out) == 4 and all(out._backward is None for out in conv_out)


def test_the_caller_waits_for_a_slow_worker(monkeypatch):
    params = _cifar()
    x = Tensor(np.random.default_rng(2).uniform(0, 1, (50, 3, 32, 32)))
    with ad.no_grad():
        _cpus(monkeypatch, 1)
        serial = forward(params, x).data
        beside = ad.beside

        def slow_beside(work, name):
            def slow_work():
                time.sleep(0.05)
                work()
            return beside(slow_work, name)
        monkeypatch.setattr(ad, "beside", slow_beside)
        _cpus(monkeypatch, 2)
        assert forward(params, x).data.tobytes() == serial.tobytes()


@pytest.mark.parametrize("layers", [
    reference_architecture("mnist_like_28"),
    reference_architecture("synthetic_vector", latent_dim=4, input_dim=12),
], ids=["mnist", "vector"])
def test_stacks_that_start_with_flatten_start_no_thread(monkeypatch, layers):
    params = init_encoder(layers, 50, seed=0)
    width = layers[1].dims[0]
    started = _started_threads(monkeypatch)
    _cpus(monkeypatch, 2)
    out = forward(params, Tensor(np.ones((40, 1, 1, width))))
    ad.tsum(out).backward()
    with ad.no_grad():
        forward(params, Tensor(np.ones((40, 1, 1, width))))
    assert out.shape[0] == 40 and started == []


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    started = _started_threads(monkeypatch)
    _cpus(monkeypatch, 1)
    params = _cifar()
    x = Tensor(np.random.default_rng(0).uniform(0, 1, (40, 3, 32, 32)))
    with ad.no_grad():
        forward(params, x)
    ad.tsum(ad.square(forward(params, x))).backward()
    assert started == []


def test_without_sched_getaffinity_the_cpu_count_gates_the_split(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    params = _cifar()
    x = Tensor(np.random.default_rng(12).uniform(0, 1, (12, 3, 32, 32)))
    started = _started_threads(monkeypatch)
    with ad.no_grad():
        serial = _serial_forward(params, x).data
        for cpus, split in ((2, True), (1, False), (None, False)):  # cpu_count() may not know
            started.clear()
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert forward(params, x).data.tobytes() == serial.tobytes()
            assert started == (["conv-images"] * 2 if split else [])


def test_tracked_forward_splits_and_keeps_its_gradients(monkeypatch):
    x = np.random.default_rng(1).uniform(0, 1, (24, 3, 32, 32))

    def gradients(run):
        params = _cifar()
        ad.tsum(ad.square(run(params, Tensor(x)))).backward()
        return [p.grad.tobytes() for p in params.parameters()]

    serial = gradients(_serial_forward)
    started = _started_threads(monkeypatch)
    _cpus(monkeypatch, 2)
    assert gradients(forward) == serial
    # both forwards and both backwards split: the second block's splits its
    # input gradient, the first's (pixels take none) its weight gradient
    assert started == ["conv-images"] * 4


@pytest.mark.parametrize("where", ["conv-images", "MainThread"])
def test_a_chunk_error_reaches_the_caller_and_joins_the_worker(monkeypatch, where):
    copyto = np.copyto

    def failing_copyto(*args, **kwargs):
        if threading.current_thread().name == where:
            raise ad.ShapeError(f"image copy failed in {where}")
        return copyto(*args, **kwargs)
    monkeypatch.setattr(np, "copyto", failing_copyto)
    started = _started_threads(monkeypatch)
    _cpus(monkeypatch, 2)
    with ad.no_grad(), pytest.raises(ad.ShapeError, match=f"failed in {where}"):
        forward(_cifar(), Tensor(np.ones((40, 3, 32, 32))))
    assert started == ["conv-images"]
    assert not [t for t in threading.enumerate() if t.name == "conv-images"]


def test_a_block_whose_conv_output_is_odd_raises_shape_error():
    layers = [LayerSpec("conv", (3, 4, 4), padding=1), LayerSpec("flatten"),
              LayerSpec("fullyconnected", (4 * 4 * 4, 4))]
    params = init_encoder(layers, 2, seed=0)
    # a 7x7 conv output cannot pool, as maxpool2x2 on it could not
    with pytest.raises(ad.ShapeError, match="conv_block: .* even height and width"):
        forward(params, Tensor(np.ones((2, 3, 8, 8))))


def test_each_cifar_conv_spec_is_a_whole_conv_block():
    layers = reference_architecture("cifar_like_32")
    assert [l.kind for l in layers] == ["conv", "conv", "flatten", "fullyconnected",
                                        "relu", "fullyconnected"]


def test_a_tracked_cifar_forward_builds_one_conv_block_node_per_conv_spec():
    params = _cifar()
    out = forward(params, Tensor(np.random.default_rng(4).uniform(0, 1, (2, 3, 32, 32))))
    nodes, stack = [], [out]
    while stack:
        node = stack.pop()
        if node._backward is not None and all(node is not n for n in nodes):
            nodes.append(node)
            stack.extend(node._parents)
    blocks = [n for n in nodes if len(n._parents) == 3]
    # the two blocks, the flatten, then matmul and add, relu, matmul and add
    assert len(nodes) == 8 and len(blocks) == 2
    for (w, b), shape in zip(params.weights[:2], [(2, 20, 16, 16), (2, 50, 8, 8)]):
        block, = [n for n in blocks if n._parents[1:] == (w, b)]
        assert block.shape == shape
