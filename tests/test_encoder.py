"""Encoder architectures, parameter counts, and differentiability."""

import numpy as np
import pytest

import protoreplay.autodiff as ad
from protoreplay.autodiff import Tensor, grad_check
from protoreplay.data import Image
from protoreplay.encoder import (LOGVAR_BOUND, LayerSpec, baseline_head,
                                 encode, encode_batch, grow_head, init_encoder,
                                 param_count, reference_architecture)


def small_layers(input_dim=6, hidden=8, D=2):
    return [LayerSpec("flatten"), LayerSpec("fullyconnected", (input_dim, hidden)),
            LayerSpec("relu"), LayerSpec("fullyconnected", (hidden, 2 * D))]


def test_zero_weights_give_zero_embedding():
    params = init_encoder(small_layers(), latent_dim=2, seed=0, zero=True)
    img = Image(np.random.default_rng(0).uniform(0, 1, (1, 1, 6)), 0)
    e = encode(params, img)
    assert np.array_equal(e.mean.data, np.zeros(2))
    assert np.array_equal(e.logvar.data, np.zeros(2))


def test_cifar_architecture_shapes_and_latent_500():
    layers = reference_architecture("cifar_like_32")
    params = init_encoder(layers, latent_dim=500, seed=0)
    img = Image(np.random.default_rng(1).uniform(0, 1, (3, 32, 32)), 0)
    e = encode(params, img)
    assert e.mean.data.shape == (500,)
    assert e.logvar.data.shape == (500,)
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
    e1, e2 = encode(params, img), encode(params, img)
    assert np.array_equal(e1.mean.data, e2.mean.data)
    assert np.array_equal(e1.logvar.data, e2.logvar.data)


def test_encode_rejects_shape_mismatch():
    params = init_encoder(small_layers(input_dim=6), latent_dim=2, seed=0)
    with pytest.raises(Exception):
        encode(params, Image(np.zeros((1, 1, 9)), 0))


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
    e = encode(params, img)
    assert np.all(e.logvar.data <= LOGVAR_BOUND)
    assert np.all(e.logvar.data >= -LOGVAR_BOUND)


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
