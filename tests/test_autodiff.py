"""Tensor autodiff: forward examples, backward rules, finite differences."""

import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import protoreplay.autodiff as ad
from protoreplay.autodiff import ShapeError, Tensor, forward_op, grad_check

def test_forward_op_dispatch_covers_contracted_kinds():
    rng = np.random.default_rng(0)
    u = lambda *shape: Tensor(rng.uniform(size=shape))
    ones = Tensor(np.ones((2, 3)))
    for kind, inputs, attrs, shape in [
            ("matmul", [u(2, 3), u(3, 2)], {}, (2, 2)),
            ("conv2d", [u(1, 1, 4, 4), u(1, 1, 3, 3)], {"padding": 0}, (1, 1, 2, 2)),
            ("conv_block", [u(1, 1, 4, 4), u(2, 1, 3, 3), u(2)], {"padding": 1}, (1, 2, 2, 2)),
            ("maxpool2x2", [u(1, 1, 4, 4)], {}, (1, 1, 2, 2)),
            ("relu", [u(3)], {}, (3,)), ("exp", [u(3)], {}, (3,)),
            ("add", [u(3), u(3)], {}, (3,)), ("sub", [u(3), u(3)], {}, (3,)),
            ("elementwise_mul", [u(3), u(3)], {}, (3,)),
            ("square", [u(3)], {}, (3,)), ("sqrt", [u(3)], {}, (3,)),
            ("mean_over_axis", [ones], {"axis": 0}, (3,))]:
        assert forward_op(kind, inputs, attrs).shape == shape
    assert np.array_equal(forward_op("scale", [ones], {"alpha": 2.0}).data, np.full((2, 3), 2.0))
    assert forward_op("sum", [ones]).item() == 6.0
    with pytest.raises(ValueError):
        forward_op("transpose", [Tensor(np.ones(2))])


def test_forward_op_honours_attrs():
    out = forward_op("sum", [Tensor(np.ones((2, 3)))], {"axis": 0, "keepdims": True})
    assert out.shape == (1, 3)


@pytest.mark.parametrize("kind, inputs, attrs", [
    ("matmul", [Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))], {"padding": 3}),
    ("sum", [Tensor(np.ones((2, 3)))], {"axis": 0, "keepdim": True}),
])
def test_forward_op_rejects_an_attr_the_op_does_not_take(kind, inputs, attrs):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        forward_op(kind, inputs, attrs)


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


class _CountedMatmul(np.ndarray):
    """An array that counts the matmuls it enters, as operand or transpose."""
    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountedMatmul.calls += 1
        def plain(x):
            return x.view(np.ndarray) if isinstance(x, _CountedMatmul) else x
        if "out" in kwargs:
            kwargs["out"] = tuple(map(plain, kwargs["out"]))
        return getattr(ufunc, method)(*map(plain, inputs), **kwargs)


@pytest.mark.parametrize("tracked", ["b", "a", "both"])
def test_matmul_backward_forms_only_the_gradients_its_operands_take(tracked):
    # an untracked left operand (the pixels at an fc layer) costs one GEMM, not two
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=tracked in ("a", "both"))
    b = Tensor(rng.normal(size=(3, 2)), requires_grad=tracked in ("b", "both"))
    out = ad.matmul(a, b)
    a.data, b.data = a.data.view(_CountedMatmul), b.data.view(_CountedMatmul)
    _CountedMatmul.calls = 0
    ad.tsum(out).backward()
    assert _CountedMatmul.calls == (2 if tracked == "both" else 1)
    g = np.ones((4, 2))
    if a.requires_grad:
        assert np.array_equal(a.grad, g @ b.data.view(np.ndarray).T)
    else:
        assert a.grad is None
    if b.requires_grad:
        assert np.array_equal(b.grad, a.data.view(np.ndarray).T @ g)
    else:
        assert b.grad is None


def test_gradcheck_sum_is_exact():
    # power-of-two point and step keep the central difference exact in
    # binary floating point, so the all-ones gradient matches to 1e-12
    point = Tensor(np.array([0.5, 1.0, -2.0, 0.25, 4.0]))
    err = grad_check(lambda x: ad.tsum(x), point, epsilon=2.0 ** -16)
    assert err < 1e-12


def test_gradcheck_rejects_non_scalar():
    with pytest.raises(ShapeError):
        grad_check(lambda x: ad.square(x), Tensor(np.ones(3)))


@pytest.mark.parametrize("case", ad.GRAD_CASES, ids=[case[0] for case in ad.GRAD_CASES])
def test_gradcheck_per_op(case):
    assert ad.check_case(case) < 1e-4


# two overlapping reads, so the second backward adds onto the first's gradient
@pytest.mark.parametrize("read, first, second, shape", [
    (ad.narrow, (1, 0, 3), (1, 1, 3), (3, 4)),
    (ad.take_class, ([2, 0, 2],), ([1, 0, 3],), (3, 2, 4)),
], ids=["narrow", "take_class"])
def test_gradcheck_overlapping_reads_accumulate(read, first, second, shape):
    x = Tensor(np.random.default_rng(0).uniform(-1, 1, shape))
    f = lambda x: ad.tsum(ad.square(ad.mul(read(x, *first), read(x, *second))))
    assert grad_check(f, x, epsilon=1e-5) < 1e-4


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


def _conv2d_batched_reference(x, w, p, g):
    """conv2d's output and the gradients of sum(g * output), lowered over the
    whole batch at once: one (B, ci*k*k, ho*wo) column block, one batched
    matmul each way, and col2im over the batch."""
    B, ci, H, W = x.shape
    co, _, k, _ = w.shape
    ho, wo = H + 2 * p - k + 1, W + 2 * p - k + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    cols = np.lib.stride_tricks.sliding_window_view(xp, (ho, wo), axis=(2, 3)) \
        .reshape(B, ci * k * k, ho * wo)
    wm = w.reshape(co, ci * k * k)
    out = np.matmul(wm, cols).reshape(B, co, ho, wo)
    gm = g.reshape(B, co, ho * wo)
    gw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gcols = np.matmul(wm.T, gm).reshape(B, ci, k, k, ho, wo)
    gxp = np.zeros((B, ci, H + 2 * p, W + 2 * p))
    for i in range(k):
        for j in range(k):
            gxp[:, :, i:i + ho, j:j + wo] += gcols[:, :, i, j]
    return out, gxp[:, :, p:p + H, p:p + W] if p else gxp, gw


@pytest.mark.parametrize("batch,cin,cout,size,k,pad,strided", [
    (1, 3, 20, 32, 5, 2, False), (3, 3, 20, 32, 5, 2, False),
    (40, 3, 20, 32, 5, 2, False),                      # first reference layer
    (1, 20, 50, 16, 5, 2, False), (3, 20, 50, 16, 5, 2, False),
    (40, 20, 50, 16, 5, 2, False),                     # second reference layer
    (2, 4, 6, 7, 1, 0, False), (3, 4, 5, 9, 3, 0, False),
    (3, 4, 5, 9, 3, 0, True), (3, 20, 50, 16, 5, 2, True),
    (0, 3, 20, 32, 5, 2, False), (0, 20, 50, 16, 5, 2, False),   # an empty batch
])
def test_conv2d_bits_match_batched_lowering(batch, cin, cout, size, k, pad, strided):
    rng = np.random.default_rng([batch, cin, k, pad, strided])
    x = rng.uniform(-1, 1, (batch, cin, size, size))
    if strided:
        x = x.transpose(0, 1, 3, 2)
        assert not x.flags.c_contiguous
    w = rng.uniform(-1, 1, (cout, cin, k, k)) / np.sqrt(cin * k * k)
    out_size = size + 2 * pad - k + 1
    g = rng.uniform(-1, 1, (batch, cout, out_size, out_size))
    want_out, want_gx, want_gw = _conv2d_batched_reference(x, w, pad, g)
    with ad.no_grad():
        out = ad.conv2d(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True), pad)
    assert out._backward is None and out.data.tobytes() == want_out.tobytes()
    for need_x, need_w in ((True, False), (False, True), (True, True)):
        xt, wt = Tensor(x, requires_grad=need_x), Tensor(w, requires_grad=need_w)
        out = ad.conv2d(xt, wt, padding=pad)
        assert out.shape == want_out.shape and out.data.tobytes() == want_out.tobytes()
        out._backward(g)
        for t, need, want in ((xt, need_x, want_gx), (wt, need_w, want_gw)):
            if not need:
                assert t.grad is None
                continue
            acc = np.zeros(t.shape)
            acc += want                                  # as _accumulate adds it
            assert t.grad.shape == acc.shape and t.grad.tobytes() == acc.tobytes()


def test_tracked_conv2d_keeps_no_column_block():
    # The second reference layer at a batch of 40: the padded input the graph
    # keeps is 2.6 MB; the whole-batch column block would be 41 MB.
    rng = np.random.default_rng(6)
    x = Tensor(rng.uniform(-1, 1, (40, 20, 16, 16)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (50, 20, 5, 5)), requires_grad=True)
    tracemalloc.start()
    try:
        out = ad.conv2d(x, w, padding=2)
        held = tracemalloc.get_traced_memory()[0] - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert out._backward is not None
    assert held / 1e6 < 8.0


def _block_chain(x, w, b, padding):
    """conv_block as the separate ops it fuses."""
    pre = ad.add(ad.conv2d(x, w, padding=padding), ad.reshape(b, (1, -1, 1, 1)))
    return ad.maxpool2x2(ad.relu(pre))


@pytest.mark.parametrize("values", ["uniform", "integers"])
@pytest.mark.parametrize("B", [1, 3, 40])
@pytest.mark.parametrize("cpus", [1, 2])
def test_conv_block_bits_match_the_separate_ops(monkeypatch, cpus, B, values):
    monkeypatch.setattr(ad, "usable_cpus", lambda: cpus)
    rng = np.random.default_rng(B)
    if values == "integers":
        # integer sums tie many 2x2 maxima exactly, and zero many
        # pre-activations; channel 0's bias leaves each of its windows negative
        x = rng.integers(-2, 3, (B, 3, 8, 8)).astype(float)
        w = rng.integers(-1, 2, (4, 3, 3, 3)).astype(float)
        b = rng.integers(-2, 3, 4).astype(float)
        b[0] = -100.0
    else:
        x, w, b = (rng.uniform(-1, 1, s) for s in ((B, 3, 8, 8), (4, 3, 3, 3), (4,)))
    # signed, so negative gradients reach corners the ReLU masks
    g = rng.standard_normal((B, 4, 4, 4))
    got = []
    for op in (_block_chain, ad.conv_block):
        ts = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        out = op(*ts, 1)
        ad.tsum(ad.mul(out, Tensor(g))).backward()
        with ad.no_grad():              # the same bias, pool, ReLU sequence untracked
            untracked = op(*ts, 1).data.tobytes()
        got.append([out.data.tobytes(), untracked] + [t.grad.tobytes() for t in ts])
    assert got[0] == got[1]
    assert got[1][0] == got[1][1]
    if values == "integers":
        assert not np.frombuffer(got[1][0]).reshape(B, 4, 4, 4)[:, 0].any()


@pytest.mark.parametrize("B", [1, 3, 35])
@pytest.mark.parametrize("block", [False, True])
def test_a_first_layer_weight_gradient_is_byte_equal_at_one_and_two_cpus(monkeypatch, B,
                                                                         block):
    # pixels take no gradient: with two CPUs the weight gradient's per-image
    # products run on both threads, and are added in batch order as with one
    rng = np.random.default_rng(B)
    x = rng.uniform(0, 1, (B, 3, 32, 32))
    w, b = rng.uniform(-0.2, 0.2, (20, 3, 5, 5)), rng.uniform(-0.1, 0.1, 20)
    g = rng.standard_normal((B, 20, 16, 16) if block else (B, 20, 32, 32))
    got = []
    for x_takes, cpus in ((False, 1), (False, 2), (True, 1)):
        monkeypatch.setattr(ad, "usable_cpus", lambda: cpus)
        xt, wt, bt = Tensor(x, requires_grad=x_takes), Tensor(w, requires_grad=True), \
            Tensor(b, requires_grad=True)
        out = ad.conv_block(xt, wt, bt, 2) if block else ad.conv2d(xt, wt, 2)
        ad.tsum(ad.mul(out, Tensor(g))).backward()
        got.append(wt.grad.tobytes())
    assert got[0] == got[1] == got[2]


def test_tracked_conv_block_keeps_no_pre_activation():
    # The second reference layer at a batch of 40: the graph keeps the 2.6 MB
    # padded input and a one-byte route per output; the pre-activation alone
    # would be 4.1 MB.
    rng = np.random.default_rng(6)
    x = Tensor(rng.uniform(-1, 1, (40, 20, 16, 16)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (50, 20, 5, 5)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, 50), requires_grad=True)
    tracemalloc.start()
    try:
        out = ad.conv_block(x, w, b, padding=2)
        held = tracemalloc.get_traced_memory()[0] - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert out._backward is not None and out.shape == (40, 50, 8, 8)
    assert held / 1e6 < 3.5


def test_conv_block_rejects_an_odd_conv_output_and_a_bias_of_another_width():
    x, w = Tensor(np.ones((1, 2, 5, 6))), Tensor(np.ones((3, 2, 3, 3)))
    with pytest.raises(ShapeError, match="3x4 .* even height and width"):
        ad.conv_block(x, w, Tensor(np.zeros(3)))
    with pytest.raises(ShapeError, match=r"bias shape \(2,\), want \(3,\)"):
        ad.conv_block(x, w, Tensor(np.zeros(2)), padding=1)


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


def _maxpool2x2_corner_scan_gradient(x, g):
    """The gradient of sum(g * maxpool2x2(x)) routed by comparing each corner
    with the output in row-major order, first match wins."""
    B, C, H, W = x.shape
    xr = x.reshape(B, C, H // 2, 2, W // 2, 2)
    corners = ((0, 0), (0, 1), (1, 0), (1, 1))
    quads = [xr[:, :, :, i, :, j] for i, j in corners]
    out = np.maximum(np.maximum(quads[0], quads[1]), np.maximum(quads[2], quads[3]))
    gx = np.zeros(xr.shape)
    free = np.ones(out.shape, dtype=bool)
    for (i, j), q in zip(corners, quads):
        hit = (q == out) & free
        np.copyto(gx[:, :, :, i, :, j], g, where=hit)
        free ^= hit
    return gx.reshape(x.shape)


def test_maxpool2x2_gradient_bits_match_corner_scan():
    rng = np.random.default_rng(11)
    for x in (np.maximum(rng.standard_normal((3, 4, 8, 8)), 0.0),
              rng.integers(-1, 2, (2, 3, 6, 6)).astype(float),
              rng.standard_normal((2, 2, 4, 6))):
        g = rng.standard_normal((x.shape[0], x.shape[1], x.shape[2] // 2, x.shape[3] // 2))
        g.flat[:4] = [-0.0, np.nan, np.inf, -np.inf]
        t = Tensor(x, requires_grad=True)
        ad.maxpool2x2(t)._backward(g)
        want = np.zeros(x.shape)
        want += _maxpool2x2_corner_scan_gradient(x, g)   # as _accumulate adds it
        assert t.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("op", [ad.relu, lambda t: ad.clip(t, -0.5, 0.5)])
def test_untracked_relu_and_clip_allocate_no_mask(op):
    x = Tensor(np.random.default_rng(5).standard_normal((500, 1000)), requires_grad=True)

    def peak(track):
        tracemalloc.start()
        try:
            if track:
                out = op(x)
            else:
                with ad.no_grad():
                    out = op(x)
            return tracemalloc.get_traced_memory()[1] - out.data.nbytes
        finally:
            tracemalloc.stop()
    # a boolean mask is one byte per element
    assert peak(track=True) >= x.size
    assert peak(track=False) < x.size // 8


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


@pytest.mark.parametrize("make, fragment", [
    (lambda: ad.take_class(Tensor(np.zeros(3)), [0, 1, 2]), "take_class: labels shape"),
    (lambda: ad.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 2, 3, 3)))),
     "need 4-D input and kernel"),
    (lambda: ad.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3)))),
     "incompatible shapes"),
    (lambda: ad.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 2, 5, 5)))),
     "kernel 5 too large"),
    (lambda: ad.maxpool2x2(Tensor(np.zeros((2, 4, 4)))), "need 4-D input"),
    (lambda: ad.maxpool2x2(Tensor(np.zeros((1, 1, 3, 4)))), "spatial dims must be even"),
])
def test_shape_errors_name_the_problem(make, fragment):
    with pytest.raises(ShapeError, match=fragment):
        make()


@pytest.mark.parametrize("x, w, fragment", [
    ((2, 4, 4), (1, 2, 3, 3), "need 4-D input and kernel"),
    ((1, 2, 4, 4), (1, 3, 3, 3), "incompatible shapes"),
    ((1, 2, 4, 4), (1, 2, 5, 5), "kernel 5 too large"),
])
def test_conv_shape_errors_name_the_op_that_runs(x, w, fragment):
    x, w = Tensor(np.zeros(x)), Tensor(np.zeros(w))
    with pytest.raises(ShapeError, match=f"^conv2d: {fragment}"):
        ad.conv2d(x, w)
    with pytest.raises(ShapeError, match=f"^conv_block: {fragment}"):
        ad.conv_block(x, w, Tensor(np.zeros(1)))


# ---------------------------------------------------------------------------
# no_grad

@pytest.mark.parametrize("index", range(len(ad.GRAD_CASES)))
def test_no_grad_ops_build_no_node(index):
    _, kind, attrs, shapes, (lo, hi) = ad.GRAD_CASES[index]
    rng = np.random.default_rng(4)
    leaves = [Tensor(rng.uniform(lo, hi, s), requires_grad=True) for s in shapes]
    tracked = forward_op(kind, leaves, attrs)
    assert tracked._backward is not None and tracked._parents
    with ad.no_grad():
        out = forward_op(kind, leaves, attrs)
    assert out._backward is None and out._parents == () and not out.requires_grad
    assert np.array_equal(out.data, tracked.data)


@pytest.mark.parametrize("kind", sorted(ad.OPS))
def test_an_op_sets_requires_grad_exactly_when_it_keeps_a_backward(kind):
    # the one tracking rule reads requires_grad alone, interior nodes included
    _, _, attrs, shapes, (lo, hi) = next(c for c in ad.GRAD_CASES if c[1] == kind)
    rng = np.random.default_rng(4)
    arrays = [rng.uniform(lo, hi, s) for s in shapes]
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    interior = [ad.scale(t, 1.0) for t in leaves]
    constants = [Tensor(a) for a in arrays]
    for inputs, tracked in ((leaves, True), (interior, True), (constants, False)):
        out = forward_op(kind, inputs, attrs)
        assert out.requires_grad is tracked and (out._backward is not None) is tracked
        with ad.no_grad():
            out = forward_op(kind, inputs, attrs)
        assert out.requires_grad is False and out._backward is None


def _is_tracked():
    return ad.add(Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(2)))._backward \
        is not None


def test_no_grad_restores_tracking_after_nesting_and_exceptions():
    with ad.no_grad():
        with ad.no_grad():
            assert not _is_tracked()
        assert not _is_tracked()
    assert _is_tracked()
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad():
            raise RuntimeError("raised inside the block")
    assert _is_tracked()
    with ad.no_grad():
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("raised inside the inner block")
        assert not _is_tracked()
    assert _is_tracked()


def test_no_grad_is_per_thread():
    # This thread (A) enters no_grad, thread B enters it too, then A leaves:
    # B must still build no node, and A must be tracked again.
    b_inside, a_left = threading.Event(), threading.Event()
    seen = {}

    def thread_b():
        with ad.no_grad():
            b_inside.set()
            a_left.wait(10)
            seen["B inside, after A left"] = _is_tracked()
        seen["B after"] = _is_tracked()

    b = threading.Thread(target=thread_b)
    with ad.no_grad():
        b.start()
        b_inside.wait(10)
    seen["A after"] = _is_tracked()
    a_left.set()
    b.join(10)
    assert not b.is_alive()
    assert seen == {"B inside, after A left": False, "B after": True, "A after": True}


def test_a_new_thread_starts_tracked():
    seen = []
    with ad.no_grad():
        assert not ad.grad_enabled()
        t = threading.Thread(target=lambda: seen.append((ad.grad_enabled(), _is_tracked())))
        t.start()
        t.join(10)
    assert seen == [(True, True)] and ad.grad_enabled()


def test_beside_raises_the_blocks_own_exception_over_the_workers():
    worker_raising = threading.Event()

    def work():
        worker_raising.set()
        raise RuntimeError("raised in the worker")
    with pytest.raises(KeyError, match="raised in the block"):
        with ad.beside(work, "beside-test"):
            worker_raising.wait(10)
            raise KeyError("raised in the block")
    assert not [t for t in threading.enumerate() if t.name == "beside-test"]


def test_autodiff_holds_the_only_cpu_probe_and_helper_thread():
    # parallel code elsewhere in the package goes through usable_cpus and beside
    package = Path(ad.__file__).parent
    found = [(path.name, word) for path in sorted(package.rglob("*.py"))
             if path.name != "autodiff.py"
             for word in ("sched_getaffinity", "threading.Thread") if word in path.read_text()]
    assert found == []
