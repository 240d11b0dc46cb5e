"""Feed-forward encoders mapping images to latent Gaussians.

The reference 32x32 RGB architecture mirrors the memory-accounting table:
conv(3,20,5,pad 2) -> conv(20,50,5,pad 2) -> flatten -> fc(3200,500) -> relu
-> fc(500,1000), where each ``conv`` layer is a whole conv -> bias -> ReLU ->
2x2 max-pool unit, run as one fused ``autodiff.conv_block``, and the final
1000-wide output splits into a 500-dim mean and a 500-dim log-variance.
Baseline classifiers share the trunk but end in fc(500, num_classes) ->
softmax.

Parameter-count parity with the accounting table deliberately excludes
biases (the table's sums contain none), although biases are trained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


LOGVAR_BOUND = 10.0  # log-variance clamp before exponentiation


@dataclass(frozen=True)
class LayerSpec:
    kind: str                 # conv | fullyconnected | relu | flatten; a conv is the
                              # whole conv -> bias -> relu -> 2x2 max pool unit
    dims: tuple = ()          # conv: (cin, cout, k); fullyconnected: (nin, nout)
    padding: int = 0


def param_count(layers: List[LayerSpec]) -> int:
    """Closed-form weight count (no biases), matching the accounting table."""
    total = 0
    for layer in layers:
        if layer.kind == "conv":
            cin, cout, k = layer.dims
            total += cin * cout * k * k
        elif layer.kind == "fullyconnected":
            nin, nout = layer.dims
            total += nin * nout
    return total


@dataclass
class EncoderParams:
    layers: List[LayerSpec]
    weights: list            # per layer: (W, b) Tensors for conv/fc, else None
    latent_dim: int

    def parameters(self) -> List[Tensor]:
        return [t for wb in self.weights if wb is not None for t in wb]


def _glorot(rng, shape, fan_in, fan_out) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_encoder(layers: List[LayerSpec], latent_dim: int, seed: int = 0,
                 zero: bool = False) -> EncoderParams:
    rng = np.random.default_rng(seed)
    weights = []
    for layer in layers:
        if layer.kind == "conv":
            cin, cout, k = layer.dims
            shape, fans = (cout, cin, k, k), (cin * k * k, cout * k * k)
        elif layer.kind == "fullyconnected":
            shape, fans = layer.dims, layer.dims        # (nin, nout)
        else:
            weights.append(None)
            continue
        w = np.zeros(shape) if zero else _glorot(rng, shape, *fans)
        weights.append((Tensor(w, requires_grad=True),
                        Tensor(np.zeros(layer.dims[1]), requires_grad=True)))   # cout or nout
    return EncoderParams(layers, weights, latent_dim)


def forward(params: EncoderParams, x: Tensor) -> Tensor:
    """Run the layer stack on a batch: (B,C,H,W) in, (B, out) out.

    Each ``conv`` layer is one ``autodiff.conv_block`` (conv, bias, ReLU and
    2x2 max pool), whose image loop runs on two threads when two CPUs are
    usable; every other layer is its own op.
    """
    for layer, wb in zip(params.layers, params.weights):
        if layer.kind == "conv":
            x = ad.conv_block(x, wb[0], wb[1], padding=layer.padding)
        elif layer.kind == "fullyconnected":
            x = ad.add(ad.matmul(x, wb[0]), wb[1])    # the (n,) bias broadcasts over rows
        elif layer.kind == "relu":
            x = ad.relu(x)
        elif layer.kind == "flatten":
            x = ad.reshape(x, (x.shape[0], -1))
        else:
            raise ValueError(f"unknown layer kind {layer.kind!r}")
    return x


def encode_batch(params: EncoderParams, pixels: np.ndarray):
    """Encode a (B,C,H,W) pixel batch; returns (mean, logvar) of shape (B,D)."""
    out = forward(params, Tensor(pixels))
    D = params.latent_dim
    if out.shape[1] != 2 * D:
        raise ad.ShapeError(
            f"encoder output width {out.shape[1]} != 2*D = {2 * D}")
    mean = ad.narrow(out, 1, 0, D)
    logvar = ad.clip(ad.narrow(out, 1, D, D), -LOGVAR_BOUND, LOGVAR_BOUND)
    return mean, logvar


def reference_architecture(dataset: str, latent_dim: Optional[int] = None,
                           input_dim: Optional[int] = None) -> List[LayerSpec]:
    """Named layer stacks ending in fc(., 2*D).

    cifar_like_32: the reference conv net, two conv blocks -> flatten ->
        fc(3200,500) -> relu -> fc(500, 2*D), D default 500.
    mnist_like_28: flatten -> fc(784,100) -> relu -> fc(100, 2*D), D default 50.
    synthetic_vector: flatten -> fc(input_dim,64) -> relu -> fc(64, 2*D).
    """
    if dataset == "cifar_like_32":
        D = 500 if latent_dim is None else latent_dim
        return [
            LayerSpec("conv", (3, 20, 5), padding=2),
            LayerSpec("conv", (20, 50, 5), padding=2),
            LayerSpec("flatten"),
            LayerSpec("fullyconnected", (3200, 500)),
            LayerSpec("relu"),
            LayerSpec("fullyconnected", (500, 2 * D)),
        ]
    if dataset == "mnist_like_28":
        D = 50 if latent_dim is None else latent_dim
        return [
            LayerSpec("flatten"),
            LayerSpec("fullyconnected", (784, 100)),
            LayerSpec("relu"),
            LayerSpec("fullyconnected", (100, 2 * D)),
        ]
    if dataset == "synthetic_vector":
        if latent_dim is None or input_dim is None:
            raise ValueError("synthetic_vector needs latent_dim and input_dim")
        return [
            LayerSpec("flatten"),
            LayerSpec("fullyconnected", (input_dim, 64)),
            LayerSpec("relu"),
            LayerSpec("fullyconnected", (64, 2 * latent_dim)),
        ]
    raise ValueError(f"unknown architecture {dataset!r}")


def baseline_head(layers: List[LayerSpec], num_classes: int) -> List[LayerSpec]:
    """Replace the final latent projection with a logits layer of width
    num_classes; the shared trunk is untouched."""
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    last_fc = max(i for i, l in enumerate(layers) if l.kind == "fullyconnected")
    nin = layers[last_fc].dims[0]
    return layers[:last_fc] + [LayerSpec("fullyconnected", (nin, num_classes))]


def grow_head(params: EncoderParams, num_classes: int, seed: int = 0) -> EncoderParams:
    """Widen the final logits layer, copying existing class weights."""
    layers = list(params.layers)
    last_fc = max(i for i, l in enumerate(layers) if l.kind == "fullyconnected")
    nin, old_nc = layers[last_fc].dims
    if num_classes < old_nc:
        raise ValueError(f"cannot shrink head from {old_nc} to {num_classes}")
    if num_classes == old_nc:
        return params
    rng = np.random.default_rng(seed)
    w_new = _glorot(rng, (nin, num_classes), nin, num_classes)
    b_new = np.zeros(num_classes)
    w_old, b_old = params.weights[last_fc]
    w_new[:, :old_nc] = w_old.data
    b_new[:old_nc] = b_old.data
    layers[last_fc] = LayerSpec("fullyconnected", (nin, num_classes))
    weights = list(params.weights)
    weights[last_fc] = (Tensor(w_new, requires_grad=True),
                        Tensor(b_new, requires_grad=True))
    return EncoderParams(layers, weights, params.latent_dim)
