"""Tensor autodiff: forward examples, backward rules, finite differences."""

import zlib

import numpy as np
import pytest

import protoreplay.autodiff as ad
from protoreplay.autodiff import ShapeError, Tensor, forward_op, grad_check

KINDS = ["matmul", "conv2d", "maxpool2x2", "relu", "add", "sub",
         "elementwise_mul", "exp", "scale", "sum", "mean_over_axis",
         "square", "sqrt"]


def test_forward_op_dispatch_covers_contracted_kinds():
    for kind in KINDS:
        rng = np.random.default_rng(0)
        if kind == "matmul":
            out = forward_op(kind, [Tensor(rng.uniform(size=(2, 3))),
                                    Tensor(rng.uniform(size=(3, 2)))])
            assert out.shape == (2, 2)
        elif kind == "conv2d":
            out = forward_op(kind, [Tensor(rng.uniform(size=(1, 1, 4, 4))),
                                    Tensor(rng.uniform(size=(1, 1, 3, 3)))],
                             {"padding": 0})
            assert out.shape == (1, 1, 2, 2)
        elif kind == "maxpool2x2":
            out = forward_op(kind, [Tensor(rng.uniform(size=(1, 1, 4, 4)))])
            assert out.shape == (1, 1, 2, 2)
        elif kind in ("add", "sub", "elementwise_mul"):
            out = forward_op(kind, [Tensor(np.ones(3)), Tensor(np.ones(3))])
            assert out.shape == (3,)
        elif kind == "scale":
            out = forward_op(kind, [Tensor(np.ones(3))], {"alpha": 2.0})
            assert np.allclose(out.data, 2.0)
        elif kind == "mean_over_axis":
            out = forward_op(kind, [Tensor(np.ones((2, 3)))], {"axis": 0})
            assert out.shape == (3,)
        elif kind == "sum":
            out = forward_op(kind, [Tensor(np.ones((2, 3)))])
            assert out.item() == 6.0
        else:
            out = forward_op(kind, [Tensor(np.full(3, 0.5))])
            assert out.shape == (3,)
    with pytest.raises(ValueError):
        forward_op("transpose", [Tensor(np.ones(2))])


def test_conv2d_all_ones_example():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = ad.conv2d(x, w, padding=0)
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == 9.0


def test_relu_example():
    out = ad.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_maxpool_example_and_tie_break():
    out = ad.maxpool2x2(Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])))
    assert out.data.reshape(-1).tolist() == [4.0]
    # ties route the gradient to the first index in row-major order
    x = Tensor(np.array([[[[5.0, 5.0], [5.0, 5.0]]]]), requires_grad=True)
    ad.tsum(ad.maxpool2x2(x)).backward()
    assert np.array_equal(x.grad.reshape(-1), [1.0, 0.0, 0.0, 0.0])


def test_backward_sum_of_squares():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    ad.tsum(ad.square(x)).backward()
    assert np.allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_exp_at_zero():
    x = Tensor(np.array([0.0]), requires_grad=True)
    ad.tsum(ad.exp(x)).backward()
    assert np.allclose(x.grad, [1.0])


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        ad.square(x).backward()


def test_shape_mismatch_diagnostic_names_shapes():
    with pytest.raises(ShapeError) as exc:
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "2, 3" in str(exc.value).replace("(", "").replace(")", "")


def test_gradcheck_sum_is_exact():
    # power-of-two point and step keep the central difference exact in
    # binary floating point, so the all-ones gradient matches to 1e-12
    point = Tensor(np.array([0.5, 1.0, -2.0, 0.25, 4.0]))
    err = grad_check(lambda x: ad.tsum(x), point, epsilon=2.0 ** -16)
    assert err < 1e-12


def test_gradcheck_rejects_non_scalar():
    with pytest.raises(ShapeError):
        grad_check(lambda x: ad.square(x), Tensor(np.ones(3)))


@pytest.mark.parametrize("name,f,shapes", [
    ("matmul", lambda a, b: ad.tsum(ad.matmul(a, b)), [(3, 4), (4, 2)]),
    ("conv2d", lambda x, w: ad.tsum(ad.conv2d(x, w, padding=1)),
     [(1, 2, 4, 4), (3, 2, 3, 3)]),
    ("maxpool2x2", lambda x: ad.tsum(ad.maxpool2x2(x)), [(1, 2, 4, 4)]),
    ("relu", lambda x: ad.tsum(ad.relu(x)), [(7,)]),
    ("add", lambda a, b: ad.tsum(ad.add(a, b)), [(4,), (4,)]),
    ("sub", lambda a, b: ad.tsum(ad.sub(a, b)), [(4,), (4,)]),
    ("mul", lambda a, b: ad.tsum(ad.mul(a, b)), [(4,), (4,)]),
    ("exp", lambda x: ad.tsum(ad.exp(x)), [(4,)]),
    ("scale", lambda x: ad.tsum(ad.scale(x, -1.7)), [(4,)]),
    ("mean_over_axis", lambda x: ad.tsum(ad.mean_over_axis(x, 0)), [(3, 3)]),
    ("square", lambda x: ad.tsum(ad.square(x)), [(4,)]),
    ("logsumexp", lambda x: ad.tsum(ad.logsumexp(x, axis=-1)), [(3, 4)]),
    ("stack", lambda a, b: ad.tsum(ad.square(ad.stack([a, b]))), [(4,), (4,)]),
    ("take_rows", lambda x: ad.tsum(ad.square(ad.take_rows(x, [2, 0, 2]))), [(3, 2)]),
    # two overlapping reads, so the second backward adds onto the first's gradient
    ("narrow", lambda x: ad.tsum(ad.square(ad.mul(ad.narrow(x, 1, 0, 3),
                                                  ad.narrow(x, 1, 1, 3)))), [(3, 4)]),
    ("take_class", lambda x: ad.tsum(ad.square(ad.mul(ad.take_class(x, [2, 0, 2]),
                                                      ad.take_class(x, [1, 0, 3])))),
     [(3, 2, 4)]),
    # the same two reads on the last axis, counted from the end
    ("narrow axis -1", lambda x: ad.tsum(ad.square(ad.mul(ad.narrow(x, -1, 0, 2),
                                                          ad.narrow(x, -1, 1, 2)))),
     [(2, 3, 3)]),
])
def test_gradcheck_per_op(name, f, shapes):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    points = [Tensor(rng.uniform(-1, 1, s)) for s in shapes]
    assert grad_check(f, points, epsilon=1e-5) < 1e-4


def test_gradcheck_sqrt_on_positive_inputs():
    rng = np.random.default_rng(11)
    err = grad_check(lambda x: ad.tsum(ad.sqrt(x)),
                     Tensor(rng.uniform(0.5, 1.5, 4)), epsilon=1e-5)
    assert err < 1e-4


def test_conv2d_gradient_vs_finite_differences():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)))
    w = Tensor(rng.uniform(-1, 1, (2, 2, 3, 3)))
    err = grad_check(lambda a, b: ad.tsum(ad.mul(ad.conv2d(a, b, padding=1),
                                                 ad.conv2d(a, b, padding=1))),
                     [x, w], epsilon=1e-5)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# conv2d and maxpool2x2 against the row-major im2col and argmax lowerings
# they replaced, kept here as references

def _conv2d_reference(x, w, p, g):
    """Output of conv2d(x, w) and the gradients of sum(g * output)."""
    B, ci, H, W = x.shape
    co, _, k, _ = w.shape
    ho, wo = H + 2 * p - k + 1, W + 2 * p - k + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(B, ho * wo, ci * k * k)
    wm = w.reshape(co, ci * k * k)
    out = (cols @ wm.T).transpose(0, 2, 1).reshape(B, co, ho, wo)
    gm = g.reshape(B, co, ho * wo).transpose(0, 2, 1)
    gw = (gm.reshape(-1, co).T @ cols.reshape(-1, ci * k * k)).reshape(w.shape)
    gcols = (gm @ wm).reshape(B, ho, wo, ci, k, k)
    gxp = np.zeros(xp.shape)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i:i + ho, j:j + wo] += gcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return out, gxp[:, :, p:p + H, p:p + W], gw


def _maxpool2x2_reference(x, g):
    """Output of maxpool2x2(x) and the gradient of sum(g * output)."""
    B, C, H, W = x.shape
    blocks = x.reshape(B, C, H // 2, 2, W // 2, 2).transpose(0, 1, 2, 4, 3, 5) \
        .reshape(B, C, H // 2, W // 2, 4)
    idx = blocks.argmax(axis=-1)
    out = np.take_along_axis(blocks, idx[..., None], axis=-1).squeeze(-1)
    gb = np.zeros(blocks.shape)
    np.put_along_axis(gb, idx[..., None], g[..., None], axis=-1)
    gx = gb.reshape(B, C, H // 2, W // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(x.shape)
    return out, gx


def _forward_backward(op, inputs, g):
    """op's output and the input gradients of sum(g * op(*inputs))."""
    tensors = [Tensor(a, requires_grad=True) for a in inputs]
    out = op(*tensors)
    ad.tsum(ad.mul(out, Tensor(g))).backward()
    return [out.data] + [t.grad for t in tensors]


@pytest.mark.parametrize("batch,cin,cout,size,pad", [
    (1, 3, 20, 32, 2), (3, 3, 20, 32, 2),      # first reference layer
    (1, 20, 50, 16, 2), (3, 20, 50, 16, 2),    # second reference layer
    (2, 3, 4, 9, 0),
])
def test_conv2d_matches_row_major_reference(batch, cin, cout, size, pad):
    rng = np.random.default_rng([batch, cin, pad])
    x = rng.uniform(-1, 1, (batch, cin, size, size))
    w = rng.uniform(-1, 1, (cout, cin, 5, 5)) / np.sqrt(cin * 25)
    out_size = size + 2 * pad - 4
    g = rng.uniform(-1, 1, (batch, cout, out_size, out_size))
    got = _forward_backward(lambda a, b: ad.conv2d(a, b, padding=pad), [x, w], g)
    for have, want in zip(got, _conv2d_reference(x, w, pad, g)):
        assert have.shape == want.shape
        np.testing.assert_allclose(have, want, rtol=0, atol=1e-12)


def test_maxpool2x2_routes_ties_like_argmax_reference():
    rng = np.random.default_rng(4)
    # ReLU zeros tie the four corners of a block with no positive input;
    # small integers tie 2 to 4 ways; the hand-made blocks tie away from the
    # first corner: [[0, 1], [1, 0]], [[0, 0], [3, 3]], [[2, 2], [0, 2]]
    relu_d = np.maximum(rng.standard_normal((3, 4, 8, 8)), 0.0)
    late = np.array([[[[0.0, 1.0, 0.0, 0.0, 2.0, 2.0],
                       [1.0, 0.0, 3.0, 3.0, 0.0, 2.0]]]])
    small_ints = rng.integers(0, 3, (2, 3, 6, 6)).astype(float)
    for x in (relu_d, late, small_ints):
        g = rng.uniform(1, 2, (x.shape[0], x.shape[1], x.shape[2] // 2, x.shape[3] // 2))
        got = _forward_backward(ad.maxpool2x2, [x], g)
        for have, want in zip(got, _maxpool2x2_reference(x, g)):
            assert np.array_equal(have, want)
    # the reference routes the late ties to corners 1, 2 and 0
    _, gx = _maxpool2x2_reference(late, np.ones((1, 1, 1, 3)))
    assert gx.reshape(2, 3, 2).transpose(1, 0, 2).reshape(3, 4).tolist() == [
        [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]]


def test_backward_linearity():
    rng = np.random.default_rng(5)
    data = rng.uniform(-1, 1, 6)

    def grad_of(fn):
        x = Tensor(data.copy(), requires_grad=True)
        fn(x).backward()
        return x.grad.copy()

    f = lambda x: ad.tsum(ad.square(x))
    g = lambda x: ad.tsum(ad.exp(x))
    a, b = 2.5, -0.75
    combined = grad_of(lambda x: ad.add(ad.scale(f(x), a), ad.scale(g(x), b)))
    assert np.all(np.abs(combined - (a * grad_of(f) + b * grad_of(g))) < 1e-12)


def test_gradient_accumulates_across_fanout():
    x = Tensor(np.array([1.5]), requires_grad=True)
    y = ad.add(ad.square(x), ad.square(x))
    y = ad.tsum(y)
    y.backward()
    assert np.allclose(x.grad, [6.0])  # 2 * d(x^2)/dx at 1.5


def test_backward_frees_interior_gradients_and_keeps_leaf_gradients():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    w = Tensor(np.array([0.5, 3.0]), requires_grad=True)
    inner = ad.mul(x, w)
    out = ad.tsum(ad.square(inner))
    out.backward()
    assert inner.grad is None and out.grad is None
    assert np.array_equal(x.grad, 2 * x.data * w.data ** 2)
    assert np.array_equal(w.grad, 2 * w.data * x.data ** 2)


def test_forward_backward_bitwise_deterministic():
    rng = np.random.default_rng(9)
    data = rng.uniform(-1, 1, (3, 3))

    def run():
        x = Tensor(data.copy(), requires_grad=True)
        ad.tsum(ad.exp(ad.mul(x, x))).backward()
        return x.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)
