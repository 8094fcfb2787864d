import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateformer import numerics as nm
from gateformer.numerics import (
    LSTMParams,
    Tape,
    backward,
    clamp_min,
    concat_rows,
    conv1d,
    cosine,
    dot,
    gather_rows,
    layer_norm,
    log,
    logsumexp,
    lstm_last,
    matmul,
    mean,
    mul,
    narrow,
    relu,
    reshape,
    sigmoid,
    softmax,
    tanh,
    tensor,
    transpose2d,
    vsum,
)
from oracles import (
    attention_oracle,
    attention_pool_oracle,
    autodiff_grads,
    check_grads,
    conv1d_oracle,
    conv1d_window_oracle,
    cosine_oracle,
    feed_forward_oracle,
    gather_rows_oracle,
    layer_norm_oracle,
    lstm_last_oracle,
    rel_err,
    softmax_oracle,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestMatmul:
    def test_identity(self):
        a = tensor(np.eye(2))
        b = tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_basis_selection(self):
        out = matmul(tensor([[1.0, 0.0]]), tensor([[2.0], [3.0]]))
        assert np.array_equal(out.data, [[2.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        r = rng(1)
        a = tensor(r.normal(size=(3, 4)), requires_grad=True)
        b = tensor(r.normal(size=(4, 2)), requires_grad=True)
        c = tensor(r.normal(size=(3, 2)))
        check_grads(lambda: vsum(mul(matmul(a, b), c)), [a, b], tol=1e-6)

    def test_vector_cases_grad(self):
        r = rng(2)
        m = tensor(r.normal(size=(3, 4)), requires_grad=True)
        v = tensor(r.normal(size=(4,)), requires_grad=True)
        u = tensor(r.normal(size=(3,)), requires_grad=True)
        check_grads(lambda: dot(u, matmul(m, v)), [m, v, u], tol=1e-6)
        check_grads(lambda: vsum(matmul(v, transpose2d(m))), [m, v], tol=1e-6)


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = softmax(tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_large_logit_no_overflow(self):
        out = softmax(tensor([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] < 1e-300

    def test_gradient_matches_finite_differences(self):
        r = rng(3)
        x = tensor(r.normal(size=(7,)), requires_grad=True)
        c = tensor(r.normal(size=(7,)))
        check_grads(lambda: dot(softmax(x), c), [x], tol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.floats(-100, 100))
    def test_sums_to_one_and_shift_invariant(self, logits, shift):
        x = np.asarray(logits)
        a = softmax(tensor(x)).data
        b = softmax(tensor(x + shift)).data
        assert abs(a.sum() - 1.0) <= 1e-12
        assert np.abs(a - b).max() <= 1e-12

    def test_axis_rows(self):
        r = rng(4)
        x = r.normal(size=(3, 5))
        out = softmax(tensor(x), axis=-1).data
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        for i in range(3):
            assert np.allclose(out[i], softmax_oracle(x[i]), atol=1e-12)


class TestConv1d:
    def test_zero_input_zero_bias(self):
        out = conv1d(tensor(np.zeros((4, 3))), tensor(np.ones((2, 9))), tensor(np.zeros(2)), 1)
        assert np.array_equal(out.data, np.zeros((4, 2)))

    def test_length_one_uses_zero_padding(self):
        # With L=1 and w=1 both neighbors are padding, so only the center
        # block of the filter contributes.
        x = np.array([[1.0, 2.0]])
        f = rng(5).normal(size=(3, 6))
        b = np.zeros(3)
        out = conv1d(tensor(x), tensor(f), tensor(b), 1)
        assert out.data.shape == (1, 3)
        assert np.allclose(out.data[0], f[:, 2:4] @ x[0], atol=1e-15)

    def test_matches_sliding_window_oracle_exactly(self):
        # Integer-valued inputs keep every float64 intermediate exact, so the
        # im2col path and the naive oracle must agree bitwise.
        r = rng(6)
        x = r.integers(-8, 9, size=(5, 3)).astype(float)
        f = r.integers(-8, 9, size=(2, 9)).astype(float)
        b = r.integers(-8, 9, size=(2,)).astype(float)
        out = conv1d(tensor(x), tensor(f), tensor(b), 1)
        assert np.array_equal(out.data, conv1d_oracle(x, f, b, 1))

    def test_matches_oracle_on_floats(self):
        r = rng(6)
        x = r.normal(size=(5, 3))
        f = r.normal(size=(2, 9))
        b = r.normal(size=(2,))
        out = conv1d(tensor(x), tensor(f), tensor(b), 1)
        np.testing.assert_allclose(out.data, conv1d_oracle(x, f, b, 1), rtol=1e-13, atol=1e-14)

    def test_preserves_length(self):
        r = rng(7)
        for L in (1, 2, 5, 9):
            for w in (1, 2):
                x = tensor(r.normal(size=(L, 3)))
                f = tensor(r.normal(size=(4, (2 * w + 1) * 3)))
                out = conv1d(x, f, tensor(np.zeros(4)), w)
                assert out.data.shape == (L, 4)

    def test_gradient_matches_finite_differences(self):
        r = rng(8)
        x = tensor(r.normal(size=(5, 3)), requires_grad=True)
        f = tensor(r.normal(size=(2, 9)), requires_grad=True)
        b = tensor(r.normal(size=(2,)), requires_grad=True)
        c = tensor(r.normal(size=(5, 2)))
        check_grads(lambda: vsum(mul(conv1d(x, f, b, 1), c)), [x, f, b], tol=1e-6)


    @pytest.mark.parametrize("w", [1, 2])
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("batched", [False, True])
    def test_tapwise_matches_window_oracle(self, w, L, batched):
        # L < 2w+1 leaves some taps with no rows in range
        r = rng(100 + 10 * w + L)
        d, nf = 3, 4
        x = tensor(r.normal(size=(2, L, d) if batched else (L, d)), requires_grad=True)
        f = tensor(r.normal(size=(nf, (2 * w + 1) * d)), requires_grad=True)
        b = tensor(r.normal(size=(nf,)), requires_grad=True)
        c = r.normal(size=x.data.shape[:-1] + (nf,))

        def oracle():
            if not batched:
                return conv1d_window_oracle(x, f, b, w)
            rows = [conv1d_window_oracle(reshape(narrow(x, 0, i, 1), (L, d)), f, b, w)
                    for i in range(2)]
            return reshape(concat_rows(rows), (2, L, nf))

        with nm.count_flops() as counted:
            out = conv1d(x, f, b, w)
        rows = x.data[..., 0].size
        assert counted.flops == 2 * rows * nf * (2 * w + 1) * d + rows * nf
        assert rel_err(out.data, oracle().data) < 1e-12
        fast = autodiff_grads(lambda: vsum(mul(conv1d(x, f, b, w), tensor(c))), [x, f, b])
        slow = autodiff_grads(lambda: vsum(mul(oracle(), tensor(c))), [x, f, b])
        for a, e in zip(fast, slow):
            assert rel_err(a, e) < 1e-12


def make_lstm(r, g, in_dim, scale=0.4):
    return LSTMParams(
        tensor(r.normal(size=(4 * g, in_dim)) * scale, requires_grad=True),
        tensor(r.normal(size=(4 * g, g)) * scale, requires_grad=True),
        tensor(r.normal(size=(4 * g,)) * scale, requires_grad=True),
    )


class TestLstmLast:
    def test_zero_weights_zero_output(self):
        g = 3
        params = LSTMParams(
            tensor(np.zeros((4 * g, 2))), tensor(np.zeros((4 * g, g))), tensor(np.zeros(4 * g))
        )
        out = lstm_last(tensor(rng(9).normal(size=(4, 2))), params)
        assert np.array_equal(out.data, np.zeros(g))

    def test_single_step_matches_hand_cell(self):
        r = rng(10)
        g, in_dim = 3, 2
        params = make_lstm(r, g, in_dim)
        x = r.normal(size=(1, in_dim))
        out = lstm_last(tensor(x), params).data

        z = params.w_ih.data @ x[0] + params.bias.data  # h0 = 0
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        i, f, c_hat, o = (z[0:g], z[g:2 * g], z[2 * g:3 * g], z[3 * g:4 * g])
        c = sig(i) * np.tanh(c_hat)
        assert np.allclose(out, sig(o) * np.tanh(c), atol=1e-14)

    def test_gradient_every_weight_matches_finite_differences(self):
        r = rng(11)
        g, in_dim = 4, 4
        params = make_lstm(r, g, in_dim)
        seq = tensor(r.normal(size=(3, in_dim)), requires_grad=True)
        c = tensor(r.normal(size=(g,)))
        check_grads(
            lambda: dot(lstm_last(seq, params), c),
            [seq, *params.tensors()],
            tol=1e-5,
        )


    @pytest.mark.parametrize("n_steps", [1, 30])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_fused_matches_composed_oracle(self, n_steps, batch):
        r = rng(12 + n_steps)
        g, in_dim = 4, 5
        params = make_lstm(r, g, in_dim)
        shape = (n_steps, in_dim) if batch is None else (batch, n_steps, in_dim)
        seq = tensor(r.normal(size=shape), requires_grad=True)
        c = tensor(r.normal(size=shape[:-2] + (g,)))
        with nm.count_flops() as fused_flops:
            fused = lstm_last(seq, params)
        with nm.count_flops() as composed_flops:
            composed = lstm_last_oracle(seq, params)
        assert fused_flops.flops == composed_flops.flops
        assert rel_err(fused.data, composed.data) < 1e-12
        weights = [seq, *params.tensors()]
        fast = autodiff_grads(lambda: vsum(mul(lstm_last(seq, params), c)), weights)
        slow = autodiff_grads(lambda: vsum(mul(lstm_last_oracle(seq, params), c)), weights)
        for a, e in zip(fast, slow):
            assert rel_err(a, e) < 1e-12

    def test_one_tape_node(self):
        params = make_lstm(rng(13), 3, 2)
        with Tape() as tape:
            lstm_last(tensor(rng(14).normal(size=(2, 30, 2)), requires_grad=True), params)
        assert len(tape) == 1


def assert_close_to_oracle(got, want, tol=1e-12):
    """|got - want| <= tol * max(1, |want|) elementwise: the floor covers
    entries that are zero in exact arithmetic, such as the key bias's
    gradient (softmax ignores a shift shared by a row of scores)."""
    assert got.shape == want.shape
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert err.max(initial=0.0) <= tol, err.max()


def kernel_matches_oracle(kernel, oracle, inputs, **kwargs):
    """Values, every input's gradient and the FLOP count of ``kernel``
    equal those of its composed ``oracle``; the kernel is one tape node."""
    with nm.count_flops() as fast_flops:
        fast = kernel(*inputs, **kwargs)
    with nm.count_flops() as slow_flops:
        slow = oracle(*inputs, **kwargs)
    assert fast_flops.flops == slow_flops.flops
    assert_close_to_oracle(fast.data, slow.data)
    c = tensor(rng(99).normal(size=slow.data.shape))
    grads = [t for t in inputs if isinstance(t, nm.Tensor)]
    fast_grads = autodiff_grads(lambda: vsum(mul(kernel(*inputs, **kwargs), c)), grads)
    slow_grads = autodiff_grads(lambda: vsum(mul(oracle(*inputs, **kwargs), c)), grads)
    for a, e in zip(fast_grads, slow_grads):
        assert_close_to_oracle(a, e)
    with Tape() as tape:
        kernel(*inputs, **kwargs)
    assert len(tape) == 1


class TestAttention:
    @pytest.mark.parametrize("B", [1, 5])
    @pytest.mark.parametrize("n", [1, 7, 30])
    @pytest.mark.parametrize("heads", [1, 4])
    def test_matches_composed_oracle(self, B, n, heads):
        r = rng(200 + 10 * B + n + heads)
        d = 8
        x = tensor(r.normal(size=(B, n, d)), requires_grad=True)
        weights = [
            tensor(r.normal(size=(d, d) if i % 2 == 0 else (d,)) * 0.5, requires_grad=True)
            for i in range(8)
        ]
        kernel_matches_oracle(nm.attention, attention_oracle, [x, *weights, heads])
        maps, oracle_maps = [], []
        nm.attention(x, *weights, heads, collect=maps)
        attention_oracle(x, *weights, heads, collect=oracle_maps)
        assert len(maps) == 1 and not maps[0].requires_grad
        assert maps[0].data.shape == (B, heads, n, n)
        assert_close_to_oracle(maps[0].data, oracle_maps[0].data)

    def test_rejects_bad_shapes(self):
        d = 4
        w = [tensor(np.zeros((d, d) if i % 2 == 0 else (d,))) for i in range(8)]
        with pytest.raises(ValueError, match=r"\(B, n, d\)"):
            nm.attention(tensor(np.zeros((3, d))), *w, 2)
        with pytest.raises(ValueError, match="divisible"):
            nm.attention(tensor(np.zeros((1, 3, d))), *w, 3)
        w[3] = tensor(np.zeros((d, d)))
        with pytest.raises(ValueError, match="does not fit"):
            nm.attention(tensor(np.zeros((1, 3, d))), *w, 2)


class TestFeedForward:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 30), (5, 7), (7,)])
    def test_matches_composed_oracle(self, shape):
        r = rng(300 + sum(shape))
        d = 8
        x = tensor(r.normal(size=(*shape, d)), requires_grad=True)
        w1 = tensor(r.normal(size=(d, 4 * d)) * 0.5, requires_grad=True)
        b1 = tensor(r.normal(size=(4 * d,)) * 0.5, requires_grad=True)
        w2 = tensor(r.normal(size=(4 * d, d)) * 0.5, requires_grad=True)
        b2 = tensor(r.normal(size=(d,)) * 0.5, requires_grad=True)
        kernel_matches_oracle(nm.feed_forward, feed_forward_oracle, [x, w1, b1, w2, b2])

    def test_rejects_bad_shapes(self):
        x = tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="feed_forward shapes"):
            nm.feed_forward(x, tensor(np.zeros((4, 8))), tensor(np.zeros(8)),
                            tensor(np.zeros((8, 4))), tensor(np.zeros(8)))


class TestLayerNorm:
    @pytest.mark.parametrize("shape", [(1, 1), (5, 30), (2, 3, 7), (9,)])
    def test_matches_composed_oracle(self, shape):
        r = rng(400 + sum(shape))
        d = 8
        x = tensor(r.normal(size=(*shape, d)) * 3.0 + 1.0, requires_grad=True)
        gamma = tensor(r.normal(size=d), requires_grad=True)
        beta = tensor(r.normal(size=d), requires_grad=True)
        with nm.count_flops() as flops:
            out = layer_norm(x, gamma, beta)
        # the cost model's 7 per element; the composed form's per-row
        # epsilon add and square root are not charged
        assert flops.flops == 7 * out.data.size
        assert_close_to_oracle(out.data, layer_norm_oracle(x, gamma, beta).data)
        c = tensor(rng(99).normal(size=out.data.shape))
        params = [x, gamma, beta]
        fast = autodiff_grads(lambda: vsum(mul(layer_norm(x, gamma, beta), c)), params)
        slow = autodiff_grads(lambda: vsum(mul(layer_norm_oracle(x, gamma, beta), c)), params)
        for a, e in zip(fast, slow):
            assert_close_to_oracle(a, e)
        with Tape() as tape:
            layer_norm(x, gamma, beta)
        assert len(tape) == 1

    def test_constant_row_normalises_to_beta(self):
        x = tensor(np.full((2, 4), 3.0))
        out = layer_norm(x, tensor(np.ones(4)), tensor([1.0, 2.0, 3.0, 4.0]))
        assert np.array_equal(out.data, np.tile([1.0, 2.0, 3.0, 4.0], (2, 1)))

    def test_rejects_bad_shapes(self):
        x = tensor(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="layer_norm params"):
            layer_norm(x, tensor(np.ones(3)), tensor(np.zeros(4)))
        with pytest.raises(ValueError, match="layer_norm params"):
            layer_norm(x, tensor(np.ones(4)), tensor(np.zeros((1, 4))))


class TestAttentionPool:
    # the call sites' shapes: the gate's item pooling ((G, L, N_f) context
    # rows, pads masked), the gate's attention user encoder ((H, N, N_f)
    # item summaries) and transformer.weighted_pool ((n, d) or (B, n, d))
    @pytest.mark.parametrize("shape, pads", [
        ((6, 5, 8), True),
        ((1, 1, 8), False),
        ((4, 3, 8), False),
        ((7, 8), False),
        ((3, 9, 8), False),
        ((2, 4, 3, 8), True),
    ])
    def test_matches_composed_oracle(self, shape, pads):
        r = rng(500 + sum(shape))
        x = tensor(r.normal(size=shape), requires_grad=True)
        q = tensor(r.normal(size=shape[-1]), requires_grad=True)
        mask = None
        if pads:
            valid = r.random(size=shape[:-1]) < 0.6
            valid[..., 0] = True                            # one row per pooling
            mask = np.where(valid, 0.0, -1e30)
        kernel_matches_oracle(nm.attention_pool, attention_pool_oracle, [x, q], mask=mask)
        if pads:
            # a padded row gets no weight: changing it changes nothing
            moved = x.data + np.where(valid, 0.0, 5.0)[..., None]
            assert np.array_equal(nm.attention_pool(tensor(moved), q, mask).data,
                                  nm.attention_pool(x, q, mask).data)

    def test_one_row_pools_to_itself(self):
        x = tensor(np.array([[[1.0, -2.0, 3.0]]]))
        out = nm.attention_pool(x, tensor(np.ones(3)))
        assert np.array_equal(out.data, x.data[:, 0])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match=r"\(\.\.\., n, d\)"):
            nm.attention_pool(tensor(np.zeros(4)), tensor(np.zeros(4)))
        with pytest.raises(ValueError, match=r"\(\.\.\., n, d\)"):
            nm.attention_pool(tensor(np.zeros((2, 3, 4))), tensor(np.zeros(3)))
        with pytest.raises(ValueError, match="mask shape"):
            nm.attention_pool(tensor(np.zeros((2, 3, 4))), tensor(np.zeros(4)), np.zeros((2, 4)))


class TestGatherRows:
    @pytest.mark.parametrize("source, indices", [
        ((7,), [3, 0, 3, 3, 6]),                  # scores and weights: 1-D sources
        ((7,), 2),
        ((7,), [[1, 1], [4, 0], [1, 6]]),
        ((9, 4), [8, 2, 2, 0, 8, 2]),              # a table; row 1 is never picked
        ((9, 4), 5),
        ((9, 4), [[0, 3, 3], [7, 0, 0]]),          # a (G, L) index array
        ((9, 4), np.zeros(0, dtype=int)),
        ((9, 4), np.zeros((2, 0), dtype=int)),
        ((6, 2, 3), [5, 1, 5]),
    ])
    def test_matches_add_at_oracle_exactly(self, source, indices):
        r = rng(600 + len(source))
        x = tensor(r.normal(size=source), requires_grad=True)
        want_rows, _ = gather_rows_oracle(x.data, indices, 0.0)
        c = r.normal(size=want_rows.shape)
        _, want_grad = gather_rows_oracle(x.data, indices, c)
        assert np.array_equal(gather_rows(x, indices).data, want_rows)
        (grad,) = autodiff_grads(lambda: vsum(mul(gather_rows(x, indices), tensor(c))), [x])
        assert grad.shape == x.data.shape
        assert np.array_equal(grad, want_grad)

    def test_repeated_picks_sum_in_index_order(self):
        # 1e16 + 1 + 1 rounds differently from 1e16 + 2: the scatter adds the
        # picks of a row one by one, in index order, as np.add.at does
        x = tensor(np.zeros((2, 1)), requires_grad=True)
        g = np.array([[1e16], [1.0], [1.0]])
        (grad,) = autodiff_grads(lambda: vsum(mul(gather_rows(x, [1, 1, 1]), tensor(g))), [x])
        assert np.array_equal(grad, gather_rows_oracle(x.data, [1, 1, 1], g)[1])
        assert grad[1, 0] == 1e16

    @pytest.mark.parametrize("indices", [[0, -1], [3], -4, [[0, 1], [1, 9]]])
    def test_out_of_range_index_rejected(self, indices):
        with pytest.raises(ValueError, match="out of range"):
            gather_rows(tensor(np.zeros((3, 2))), indices)


class TestAssembleRows:
    def test_one_chunk_in_order_adds_no_tape_node(self):
        chunk = tensor(rng(610).normal(size=(4, 3)), requires_grad=True)
        with Tape() as tape:
            out = nm.assemble_rows([chunk], np.arange(4))
        assert out is chunk and len(tape) == 0

    def test_permuted_order_restored(self):
        r = rng(611)
        chunks = [tensor(r.normal(size=(2, 3)), requires_grad=True),
                  tensor(r.normal(size=(3, 3)), requires_grad=True)]
        order = np.array([3, 0, 4, 1, 2])        # concatenated row r is global row order[r]
        out = nm.assemble_rows(chunks, order)
        stacked = np.concatenate([ch.data for ch in chunks])
        assert np.array_equal(out.data[order], stacked)
        c = r.normal(size=(5, 3))
        grads = autodiff_grads(lambda: vsum(mul(nm.assemble_rows(chunks, order), tensor(c))), chunks)
        assert np.array_equal(np.concatenate(grads), c[order])


class TestCosine:
    def test_self_similarity_is_one(self):
        v = tensor([3.0, -4.0, 1.0])
        assert cosine(v, v).item() == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cosine(tensor([1.0, 0.0]), tensor([0.0, 1.0])).item() == 0.0

    def test_hand_value(self):
        out = cosine(tensor([1.0, 1.0]), tensor([1.0, 0.0])).item()
        assert out == pytest.approx(0.7071067811865475, abs=1e-15)

    def test_zero_vector_is_safe(self):
        out = cosine(tensor([0.0, 0.0]), tensor([1.0, 2.0])).item()
        assert out == 0.0

    def test_range(self):
        r = rng(12)
        for _ in range(100):
            a, b = r.normal(size=4), r.normal(size=4)
            val = cosine(tensor(a), tensor(b)).item()
            assert -1.0 - 1e-9 <= val <= 1.0 + 1e-9

    def test_gradient(self):
        r = rng(13)
        a = tensor(r.normal(size=(5,)), requires_grad=True)
        b = tensor(r.normal(size=(5,)), requires_grad=True)
        check_grads(lambda: cosine(a, b), [a, b], tol=1e-6)

    # the gate's scoring is (G, L, N_f) context rows against (G, 1, N_f)
    # interest vectors
    @pytest.mark.parametrize("a_shape, b_shape", [
        ((5,), (5,)),
        ((6, 4), (4,)),
        ((4,), (6, 4)),
        ((3, 7, 4), (3, 1, 4)),
        ((3, 7, 4), (7, 4)),
        ((2, 1, 4), (1, 5, 4)),
    ])
    def test_matches_composed_oracle(self, a_shape, b_shape):
        r = rng(700 + len(a_shape) + 3 * len(b_shape))
        a = tensor(r.normal(size=a_shape), requires_grad=True)
        b = tensor(r.normal(size=b_shape), requires_grad=True)
        kernel_matches_oracle(nm.cosine, cosine_oracle, [a, b])

    def test_zero_rows_match_oracle_clamp(self):
        r = rng(14)
        ctx = r.normal(size=(3, 6, 4))
        ctx[0, 2] = 0.0                       # a zero-norm context row
        ctx[2, 4] *= 1e-13                    # a nonzero row inside the clamp
        interest = r.normal(size=(3, 1, 4))
        interest[1] = 0.0                     # a zero-norm interest vector
        interest[0] *= 1e-13
        a = tensor(ctx, requires_grad=True)
        b = tensor(interest, requires_grad=True)
        kernel_matches_oracle(nm.cosine, cosine_oracle, [a, b])
        out = nm.cosine(a, b).data
        assert out[0, 2] == 0.0 and not out[1].any()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="rows of equal length"):
            cosine(tensor(np.zeros((2, 3))), tensor(np.zeros(4)))
        with pytest.raises(ValueError, match="rows of equal length"):
            cosine(tensor(1.0), tensor(1.0))
        with pytest.raises(ValueError):
            cosine(tensor(np.zeros((2, 3))), tensor(np.zeros((4, 3))))


class TestBackward:
    def test_sum_gives_ones(self):
        x = tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = vsum(x)
        backward(tape, loss)
        assert np.array_equal(x.grad, np.ones(3))

    def test_quadratic_gives_two_x(self):
        x = tensor([1.0, -2.0, 0.5], requires_grad=True)
        with Tape() as tape:
            loss = dot(x, x)
        backward(tape, loss)
        assert np.allclose(x.grad, 2 * x.data, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            backward(tape, y)

    def test_repeated_backward_accumulates(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = dot(x, x)
        backward(tape, loss)
        backward(tape, loss)
        assert np.allclose(x.grad, 4 * x.data, atol=1e-15)

    def test_shared_subexpression_accumulates_additively(self):
        # loss = sum(y) + sum(y*y) with shared y, against an oracle that
        # rebuilds y twice so no node is shared.
        r = rng(14)
        xv = r.normal(size=(4,))

        x = tensor(xv.copy(), requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
            loss = nm.add(vsum(y), vsum(mul(y, y)))
        backward(tape, loss)

        x2 = tensor(xv.copy(), requires_grad=True)
        with Tape() as tape2:
            y1 = mul(x2, x2)
            y2 = mul(x2, x2)
            loss2 = nm.add(vsum(y1), vsum(mul(y2, y2)))
        backward(tape2, loss2)

        assert np.allclose(x.grad, x2.grad, atol=1e-15)

    def test_no_tape_records_nothing(self):
        x = tensor([1.0], requires_grad=True)
        y = mul(x, x)
        assert y.requires_grad is False


class TestElementwiseGradients:
    """Finite-difference checks for every remaining differentiable op."""

    def test_all_ops(self):
        r = rng(15)
        x = tensor(r.normal(size=(3, 4)) + 2.5, requires_grad=True)  # keep log/sqrt in domain
        y = tensor(r.normal(size=(3, 4)) + 2.5, requires_grad=True)
        v = tensor(r.normal(size=(6,)), requires_grad=True)
        gm = tensor(r.normal(size=(4,)), requires_grad=True)
        bt = tensor(r.normal(size=(4,)), requires_grad=True)
        c = tensor(r.normal(size=(3, 4)))
        cv = tensor(r.normal(size=(6,)))

        cases = [
            (lambda: vsum(mul(nm.add(x, y), c)), [x, y]),
            (lambda: vsum(mul(nm.sub(x, y), c)), [x, y]),
            (lambda: vsum(mul(nm.mul(x, y), c)), [x, y]),
            (lambda: vsum(mul(nm.div(x, y), c)), [x, y]),
            (lambda: vsum(mul(relu(x), c)), [x]),
            (lambda: vsum(mul(sigmoid(x), c)), [x]),
            (lambda: vsum(mul(tanh(x), c)), [x]),
            (lambda: vsum(mul(nm.exp(x), c)), [x]),
            (lambda: vsum(mul(log(x), c)), [x]),
            (lambda: vsum(mul(nm.sqrt(x), c)), [x]),
            (lambda: vsum(mul(clamp_min(x, 2.0), c)), [x]),
            (lambda: dot(cv, v) * logsumexp(v), [v]),
            (lambda: vsum(mul(layer_norm(x, gm, bt), c)), [x, gm, bt]),
            (lambda: vsum(mul(mean(x, axis=0, keepdims=True), narrow(c, 0, 0, 1))), [x]),
            (lambda: mean(x), [x]),
            (lambda: vsum(mul(reshape(x, (4, 3)), transpose2d(c))), [x]),
            (lambda: vsum(mul(narrow(x, 1, 1, 2), narrow(c, 1, 0, 2))), [x]),
            (lambda: dot(gather_rows(x, [2, 0, 2]).__matmul__(gm), tensor([1.0, -1.0, 0.5])), [x, gm]),
            (lambda: vsum(mul(concat_rows([x, y]), concat_rows([c, c]))), [x, y]),
        ]
        for build, params in cases:
            check_grads(build, params, tol=1e-5)

    def test_broadcast_grad(self):
        r = rng(16)
        m = tensor(r.normal(size=(3, 4)), requires_grad=True)
        row = tensor(r.normal(size=(4,)), requires_grad=True)
        col = tensor(r.normal(size=(3, 1)), requires_grad=True)
        c = tensor(r.normal(size=(3, 4)))
        check_grads(lambda: vsum(mul(nm.add(m, row), c)), [m, row], tol=1e-6)
        check_grads(lambda: vsum(mul(nm.mul(m, col), c)), [m, col], tol=1e-6)


class TestBatchedOps:
    """The stacked (>=3-D) variants must match their 2-D counterparts and
    pass the same finite-difference checks."""

    def test_bmm_matches_per_slice(self):
        r = rng(30)
        a = r.normal(size=(3, 4, 5))
        b = r.normal(size=(3, 5, 2))
        out = matmul(tensor(a), tensor(b)).data
        for i in range(3):
            assert np.allclose(out[i], a[i] @ b[i], atol=1e-14)

    def test_bmm_gradient(self):
        r = rng(31)
        a = tensor(r.normal(size=(2, 3, 4)), requires_grad=True)
        b = tensor(r.normal(size=(2, 4, 3)), requires_grad=True)
        c = tensor(r.normal(size=(2, 3, 3)))
        check_grads(lambda: vsum(mul(matmul(a, b), c)), [a, b], tol=1e-6)

    def test_stacked_times_matrix_gradient(self):
        r = rng(32)
        a = tensor(r.normal(size=(2, 3, 4)), requires_grad=True)
        w = tensor(r.normal(size=(4, 5)), requires_grad=True)
        c = tensor(r.normal(size=(2, 3, 5)))
        check_grads(lambda: vsum(mul(matmul(a, w), c)), [a, w], tol=1e-6)

    def test_stacked_times_vector_gradient(self):
        r = rng(33)
        a = tensor(r.normal(size=(2, 3, 4)), requires_grad=True)
        v = tensor(r.normal(size=(4,)), requires_grad=True)
        c = tensor(r.normal(size=(2, 3)))
        check_grads(lambda: vsum(mul(matmul(a, v), c)), [a, v], tol=1e-6)

    def test_transpose_axes_gradient(self):
        r = rng(34)
        x = tensor(r.normal(size=(2, 3, 4)), requires_grad=True)
        c = tensor(r.normal(size=(4, 2, 3)))
        check_grads(
            lambda: vsum(mul(nm.transpose(x, (2, 0, 1)), c)), [x], tol=1e-6
        )

    def test_conv1d_batched_matches_per_sequence(self):
        r = rng(35)
        x = r.normal(size=(3, 5, 2))
        f = tensor(r.normal(size=(4, 6)))
        b = tensor(r.normal(size=(4,)))
        out = conv1d(tensor(x), f, b, 1).data
        for i in range(3):
            single = conv1d(tensor(x[i]), f, b, 1).data
            assert np.allclose(out[i], single, atol=1e-13)

    def test_conv1d_batched_gradient(self):
        r = rng(36)
        x = tensor(r.normal(size=(2, 4, 3)), requires_grad=True)
        f = tensor(r.normal(size=(2, 9)), requires_grad=True)
        b = tensor(r.normal(size=(2,)), requires_grad=True)
        c = tensor(r.normal(size=(2, 4, 2)))
        check_grads(lambda: vsum(mul(conv1d(x, f, b, 1), c)), [x, f, b], tol=1e-6)

    def test_lstm_batched_matches_per_sequence(self):
        r = rng(37)
        params = make_lstm(r, 3, 2)
        seqs = r.normal(size=(4, 5, 2))
        batched = lstm_last(tensor(seqs), params).data
        for i in range(4):
            single = lstm_last(tensor(seqs[i]), params).data
            assert np.allclose(batched[i], single, atol=1e-13)

    def test_lstm_batched_gradient(self):
        r = rng(38)
        params = make_lstm(r, 3, 2)
        seqs = tensor(r.normal(size=(2, 3, 2)), requires_grad=True)
        c = tensor(r.normal(size=(2, 3)))
        check_grads(
            lambda: vsum(mul(lstm_last(seqs, params), c)),
            [seqs, *params.tensors()],
            tol=1e-5,
        )

    def test_logsumexp_axis_matches_rows_and_gradient(self):
        r = rng(39)
        x = r.normal(size=(3, 5))
        out = logsumexp(tensor(x), axis=-1).data
        for i in range(3):
            assert out[i] == pytest.approx(logsumexp(tensor(x[i])).item(), abs=1e-13)
        xt = tensor(x, requires_grad=True)
        c = tensor(r.normal(size=(3,)))
        check_grads(lambda: dot(logsumexp(xt, axis=-1), c), [xt], tol=1e-6)

    def test_gather_2d_index_gradient(self):
        r = rng(40)
        x = tensor(r.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([[0, 2], [2, 4]])
        c = tensor(r.normal(size=(2, 2, 3)))
        check_grads(lambda: vsum(mul(gather_rows(x, idx), c)), [x], tol=1e-6)

    def test_softmax_nd_axis(self):
        r = rng(41)
        x = tensor(r.normal(size=(2, 3, 4)), requires_grad=True)
        out = softmax(x, axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        c = tensor(r.normal(size=(2, 3, 4)))
        check_grads(lambda: vsum(mul(softmax(x, axis=-1), c)), [x], tol=1e-6)

    def test_layer_norm_nd_gradient(self):
        r = rng(42)
        x = tensor(r.normal(size=(2, 3, 4)), requires_grad=True)
        gm = tensor(r.normal(size=(4,)), requires_grad=True)
        bt = tensor(r.normal(size=(4,)), requires_grad=True)
        c = tensor(r.normal(size=(2, 3, 4)))
        check_grads(lambda: vsum(mul(layer_norm(x, gm, bt), c)), [x, gm, bt], tol=1e-5)


class TestLogsumexp:
    def test_stable_at_large_inputs(self):
        out = logsumexp(tensor([1000.0, 999.0]))
        assert np.isfinite(out.data)
        assert out.item() == pytest.approx(1000.0 + np.log(1 + np.exp(-1.0)), abs=1e-12)

    def test_equal_inputs(self):
        assert logsumexp(tensor([0.5] * 5)).item() == pytest.approx(0.5 + np.log(5), abs=1e-12)


class TestNoNansOnFiniteInput:
    def test_forward_suite_is_finite(self):
        r = rng(17)
        x = r.normal(size=(4, 6)) * 50
        outs = [
            softmax(tensor(x), axis=-1).data,
            relu(tensor(x)).data,
            tanh(tensor(x)).data,
            sigmoid(tensor(x)).data,
            layer_norm(tensor(x), tensor(np.ones(6)), tensor(np.zeros(6))).data,
            logsumexp(tensor(x[0])).data,
            cosine(tensor(x[0]), tensor(x[1])).data,
        ]
        for o in outs:
            assert np.isfinite(o).all()


class TestFlopCounter:
    def test_counts_matmul(self):
        a, b = tensor(np.ones((3, 4))), tensor(np.ones((4, 2)))
        with nm.count_flops() as c:
            matmul(a, b)
        assert c.flops == 2 * 3 * 4 * 2

    def test_nested_ops_accumulate(self):
        with nm.count_flops() as c:
            conv1d(tensor(np.ones((5, 3))), tensor(np.ones((2, 9))), tensor(np.zeros(2)), 1)
        assert c.flops == 2 * 5 * 2 * 9 + 5 * 2

    def test_counter_scoped(self):
        with nm.count_flops() as c:
            pass
        matmul(tensor(np.ones((2, 2))), tensor(np.ones((2, 2))))
        assert c.flops == 0
