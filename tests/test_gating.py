import math

import numpy as np
import pytest

from gateformer import numerics as nm
from gateformer.config import GATE_METHODS
from gateformer.gating import GateParams, gate_groups, init_gate_params, select_positions
from gateformer.numerics import Tape, backward, tensor
from gateformer.recall import build_index
from gateformer.text import TokenSequence, UserHistory, Vocabulary
from oracles import (
    _selectable_scores,
    attn_user_variant,
    autodiff_grads,
    check_grads,
    conv1d_oracle,
    encode_item,
    encode_user_interest,
    gate_history_oracle,
    heuristic_gate_oracle,
    item_views,
    lstm_last_oracle,
    rel_err,
    score_tokens,
    select_positions_oracle,
    select_topk,
    softmax_oracle,
    total,
)


def make_gate(vocab_size=20, d=6, n_f=5, window=1, seed=0, user_encoder="lstm"):
    rng = np.random.default_rng(seed)
    emb = tensor(rng.normal(size=(vocab_size, d)) * 0.5, requires_grad=True)
    return init_gate_params(emb, n_f, window, rng, user_encoder)


def seq_of(ids):
    return TokenSequence(list(ids))


def random_history(rng, n_items, length, vocab_size=20, distinct=True):
    items = []
    for _ in range(n_items):
        if distinct:
            ids = rng.choice(np.arange(1, vocab_size), size=length, replace=False)
        else:
            ids = rng.integers(1, vocab_size, size=length)
        items.append(seq_of(ids.tolist()))
    return UserHistory(items)


def select_row(seq, scores, k):
    """select_positions on a group of one item."""
    order, counts = select_positions(np.array([seq.ids]), np.array([scores]), k)
    return order[0, :counts[0]].tolist()


def ranked_gap(seq, scores, k):
    """Smallest gap among the top k+1 ranked selectable scores."""
    masked = np.sort(_selectable_scores(seq, scores))[::-1]
    top = masked[: k + 1]
    top = top[np.isfinite(top)]
    if len(top) < 2:
        return np.inf
    return float(np.diff(-top).min())


def stable_gate_instance(k, margin, d=4, n_f=3, vocab_size=12):
    """First seeded random gate whose top-k score margins all exceed ``margin``."""
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        p = make_gate(vocab_size=vocab_size, d=d, n_f=n_f, seed=1000 + seed)
        history = random_history(rng, 2, 4, vocab_size=vocab_size)
        interest = encode_user_interest(history, p)
        ok = True
        for seq in history.items:
            scores = score_tokens(encode_item(seq, p)[0], interest).data
            if ranked_gap(seq, scores, k) < margin:
                ok = False
                break
        if ok:
            baseline = [s.positions for s in gate_groups([history], p, k, "learned")]
            return p, history, baseline
    raise AssertionError("no stable instance found in 200 seeds")


def zero_gate(vocab_size=20, d=6, n_f=5, window=1, zero_embeddings=False, seed=0):
    p = make_gate(vocab_size, d, n_f, window, seed)
    for t in p.named_tensors().values():
        t.data[...] = 0.0
    if zero_embeddings:
        p.word_embeddings.data[...] = 0.0
    return p


class TestEncodeItem:
    def test_single_token_pools_to_itself(self):
        p = make_gate()
        ctx, pooled = encode_item(seq_of([3]), p)
        assert ctx.data.shape == (1, p.n_filters)
        assert np.allclose(pooled.data, ctx.data[0], atol=1e-15)

    def test_zero_embeddings_zero_bias(self):
        p = zero_gate(zero_embeddings=True)
        p.pool_v.data[...] = 1.0  # pooling weights are irrelevant: logits all equal
        ctx, pooled = encode_item(seq_of([1, 2, 3]), p)
        assert np.array_equal(pooled.data, np.zeros(p.n_filters))
        alpha = softmax_oracle(ctx.data @ p.pool_v.data)
        assert np.allclose(alpha, 1 / 3, atol=1e-15)

    def test_matches_composition_oracle(self):
        p = make_gate(seed=3)
        seq = seq_of([4, 9, 1, 7])
        ctx, pooled = encode_item(seq, p)
        emb = p.word_embeddings.data[seq.ids]
        ctx_exp = np.maximum(
            conv1d_oracle(emb, p.filters.data, p.bias.data, p.window), 0.0
        )
        alpha = softmax_oracle(ctx_exp @ p.pool_v.data)
        assert rel_err(ctx.data, ctx_exp) < 1e-12
        assert rel_err(pooled.data, alpha @ ctx_exp) < 1e-12

    def test_empty_item_rejected(self):
        with pytest.raises(ValueError):
            encode_item(seq_of([]), make_gate())


class TestEncodeUserInterest:
    def test_single_item_is_one_lstm_step(self):
        p = make_gate(seed=5)
        history = UserHistory([seq_of([2, 3])])
        out = encode_user_interest(history, p)
        _, pooled = encode_item(history.items[0], p)
        stacked = nm.reshape(pooled, (1, p.n_filters))
        step = lstm_last_oracle(stacked, p.lstm_w_ih, p.lstm_w_hh, p.lstm_bias)
        assert np.allclose(out.data, step.data, atol=1e-15)

    def test_order_sensitivity(self):
        p = make_gate(seed=6)
        a, b, c = seq_of([1, 2]), seq_of([7, 8]), seq_of([12, 13])
        u1 = encode_user_interest(UserHistory([a, b, c]), p)
        u2 = encode_user_interest(UserHistory([c, b, a]), p)
        assert not np.allclose(u1.data, u2.data, atol=1e-9)

    def test_zero_lstm_weights_give_zero(self):
        p = make_gate(seed=7)
        for t in (p.lstm_w_ih, p.lstm_w_hh, p.lstm_bias):
            t.data[...] = 0.0
        out = encode_user_interest(UserHistory([seq_of([3, 4]), seq_of([5])]), p)
        assert np.array_equal(out.data, np.zeros(p.n_filters))

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            UserHistory([])


class TestScoreTokens:
    def test_identical_rows_score_one(self):
        u = np.array([1.0, 2.0, -1.0])
        ctx = tensor(np.tile(u, (4, 1)))
        scores = score_tokens(ctx, tensor(u))
        assert np.allclose(scores.data, 1.0, atol=1e-12)

    def test_orthogonal_rows_score_zero(self):
        ctx = tensor([[0.0, 1.0], [0.0, 2.0]])
        scores = score_tokens(ctx, tensor([3.0, 0.0]))
        assert np.allclose(scores.data, 0.0, atol=1e-15)

    def test_matches_per_row_cosine_oracle(self):
        rng = np.random.default_rng(8)
        ctx = rng.normal(size=(6, 4))
        u = rng.normal(size=4)
        scores = score_tokens(tensor(ctx), tensor(u)).data
        for j in range(6):
            expected = ctx[j] @ u / (np.linalg.norm(ctx[j]) * np.linalg.norm(u))
            assert scores[j] == pytest.approx(expected, abs=1e-12)


class TestSelectTopk:
    def test_basic_topk(self):
        seq = seq_of([5, 6, 7])
        sel = select_row(seq, np.array([0.9, 0.1, 0.5]), 2)
        assert sel == [0, 2]

    def test_duplicate_token_masked_to_first_occurrence(self):
        seq = seq_of([4, 4, 9])
        sel = select_row(seq, np.array([0.9, 0.8, 0.1]), 2)
        assert sel == [0, 2]

    def test_k_equals_l_selects_all_with_softmax_weights(self):
        rng = np.random.default_rng(10)
        scores = rng.normal(size=4)
        seq = seq_of([3, 5, 7, 9])
        emb = tensor(rng.normal(size=(4, 6)))
        sel = select_topk(seq, tensor(scores), emb, 4)
        assert sorted(sel.positions) == [0, 1, 2, 3]
        order = np.argsort(-scores, kind="stable")
        assert sel.positions == [int(i) for i in order]
        assert np.allclose(
            np.sort(sel.weights.data), np.sort(softmax_oracle(scores)), atol=1e-12
        )

    def test_k_exceeding_distinct_gives_ragged_k_eff(self):
        seq = seq_of([5, 5, 7])
        rng = np.random.default_rng(11)
        sel = select_topk(seq, tensor([0.3, 0.2, 0.1]), tensor(rng.normal(size=(3, 4))), 5)
        assert sel.k_eff == 2

    def test_selected_order_descending_with_index_tiebreak(self):
        seq = seq_of([2, 3, 4, 5])
        sel = select_row(seq, np.array([0.5, 0.7, 0.5, 0.1]), 3)
        assert sel == [1, 0, 2]

    def test_weights_scale_gathered_rows(self):
        rng = np.random.default_rng(12)
        emb = rng.normal(size=(3, 4))
        scores = np.array([1.0, -0.2, 0.4])
        sel = select_topk(seq_of([3, 4, 5]), tensor(scores), tensor(emb), 2)
        assert sel.positions == [0, 2]
        beta = softmax_oracle(scores[[0, 2]])
        assert np.allclose(sel.gathered.data, emb[[0, 2]] * beta[:, None], atol=1e-14)

    def test_gradients_match_fd_at_stable_point(self):
        rng = np.random.default_rng(13)
        seq = seq_of([3, 5, 7, 9, 11])
        r = tensor(np.array([0.9, 0.1, 0.6, -0.4, 0.3]), requires_grad=True)
        emb = tensor(rng.normal(size=(5, 4)), requires_grad=True)
        c = tensor(rng.normal(size=(2, 4)))

        def build():
            sel = select_topk(seq, r, emb, 2)
            assert sel.positions == [0, 2]  # margins >> fd step: set is stable
            return total(nm.mul(sel.gathered, c))

        check_grads(build, [r, emb], tol=1e-6)


class TestGateHistory:
    def test_single_item_full_selection(self):
        p = make_gate(seed=14)
        history = UserHistory([seq_of([3, 5, 7])])
        sels = gate_groups([history], p, 3, "learned")
        assert len(sels) == 1
        assert sorted(sels[0].positions) == [0, 1, 2]

    def test_total_gathered_bounded_by_n_times_k(self):
        rng = np.random.default_rng(15)
        p = make_gate(vocab_size=400, seed=15)
        history = random_history(rng, n_items=50, length=30, vocab_size=400)
        sels = gate_groups([history], p, 3, "learned")
        total = sum(s.k_eff for s in sels)
        assert total <= 150
        assert total == 150  # distinct tokens per item: every item yields k

    def test_uniform_scores_select_smallest_indices(self):
        p = zero_gate()  # zero weights force identical scores everywhere
        history = UserHistory([seq_of([9, 8, 7, 6, 5])])
        sels = gate_groups([history], p, 3, "learned")
        assert sels[0].positions == [0, 1, 2]

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(16)
        p = make_gate(seed=16)
        history = random_history(rng, 3, 6)
        for sel in item_views(gate_groups([history], p, 4, "learned")):
            assert abs(sel.weights.data.sum() - 1.0) <= 1e-10
            assert (sel.weights.data > 0).all()


class TestSelectionInvariants:
    def test_scale_and_shift_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            length = int(rng.integers(1, 12))
            ids = rng.integers(1, 9, size=length).tolist()
            seq = seq_of(ids)
            scores = rng.normal(size=length)
            k = int(rng.integers(1, 6))
            base = select_row(seq, scores, k)
            for c in (2.0, 0.5, 3.0):
                assert select_row(seq, scores * c, k) == base
            shifted = select_row(seq, scores + 1.25, k)
            assert shifted == base

    def test_beta_shift_invariance(self):
        rng = np.random.default_rng(18)
        emb = tensor(rng.normal(size=(6, 4)))
        seq = seq_of([2, 3, 4, 5, 6, 7])
        scores = rng.normal(size=6)
        a = select_topk(seq, tensor(scores), emb, 3)
        b = select_topk(seq, tensor(scores + 0.7), emb, 3)
        assert a.positions == b.positions
        assert np.abs(a.weights.data - b.weights.data).max() <= 1e-12

    def test_no_duplicate_ids_and_k_eff(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            length = int(rng.integers(1, 10))
            ids = rng.integers(0, 6, size=length).tolist()  # id 0 is a token like any
            seq = seq_of(ids)
            k = int(rng.integers(1, 8))
            scores = rng.normal(size=length)
            pos = select_row(seq, scores, k)
            assert len(pos) == min(k, len(set(ids))) >= 1
            chosen = [ids[j] for j in pos]
            assert len(set(chosen)) == len(chosen)

    def test_gradient_reaches_every_input_token(self):
        rng = np.random.default_rng(20)
        p = make_gate(vocab_size=30, seed=20)
        history = random_history(rng, 3, 5, vocab_size=30)
        p.word_embeddings.zero_grad()
        with Tape() as tape:
            sels = item_views(gate_groups([history], p, 2, "learned"))
            loss = total(nm.concat_rows([s.gathered for s in sels]))
        backward(tape, loss)
        grad = p.word_embeddings.grad
        for seq in history.items:
            for tok in seq.ids:
                assert np.abs(grad[tok]).max() > 0, f"token {tok} got no gradient"

    def test_end_to_end_fd_at_stable_point(self):
        # Search for an instance whose ranked-score gaps are wide, so the
        # selected sets survive both the spec's +/- 1e-6 probe and the
        # score shifts induced by 1e-5 parameter perturbations.
        p, history, baseline = stable_gate_instance(k=2, margin=2e-2)
        rng = np.random.default_rng(99)
        c = tensor(rng.normal(size=(4, 4)))

        interest = encode_user_interest(history, p)
        for seq, pos in zip(history.items, baseline):
            scores = score_tokens(encode_item(seq, p)[0], interest).data
            for delta in (1e-6, -1e-6):
                assert select_row(seq, scores + delta, 2) == pos

        def build():
            sels = item_views(gate_groups([history], p, 2, "learned"))
            assert [s.positions for s in sels] == baseline
            return total(nm.mul(nm.concat_rows([s.gathered for s in sels]), c))

        params = [p.word_embeddings, *p.named_tensors().values()]
        check_grads(build, params[:-1], tol=1e-4)  # attn_v unused by lstm encoder


class TestHeuristicGate:
    def test_first_k(self):
        p = make_gate(seed=22)
        history = UserHistory([seq_of([3, 4, 5, 6])])
        sels = item_views(gate_groups([history], p, 3, "first"))
        assert sels[0].positions == [0, 1, 2]
        assert np.allclose(sels[0].weights.data, 1 / 3, atol=1e-15)

    def test_first_k_skips_duplicates(self):
        p = make_gate(seed=22)
        history = UserHistory([seq_of([3, 3, 5, 6])])
        sels = gate_groups([history], p, 3, "first")
        assert sels[0].positions == [0, 2, 3]

    def test_random_reproducible(self):
        p = make_gate(seed=23)
        history = UserHistory([seq_of([3, 4, 5, 6, 7])])
        a = gate_groups([history], p, 2, "random", rngs=[np.random.default_rng(5)])
        b = gate_groups([history], p, 2, "random", rngs=[np.random.default_rng(5)])
        assert a[0].positions == b[0].positions

    def test_bm25_matches_hand_ranking(self):
        # 3-doc toy corpus: apple=3, banana=4, cherry=5, date=6
        vocab = Vocabulary(["[PAD]", "[UNK]", "x", "apple", "banana", "cherry", "date"])
        docs = {
            "D1": seq_of([3, 3, 4]),
            "D2": seq_of([4, 5]),
            "D3": seq_of([5, 5, 5, 6]),
        }
        stats = build_index(docs)
        p = make_gate(vocab_size=len(vocab), seed=24)
        sels = item_views(gate_groups([UserHistory([docs["D1"]])], p, 2, "bm25", stats=stats))
        # hand computation: apple idf=ln(2.5/1.5+1), tf=2, len=3=avg ->
        # w_apple = idf * 2*2.2/(2+1.2) ~= 1.349; banana idf=ln(1.6), tf=1 ->
        # w_banana = 0.470 * 1.0 = 0.470; apple wins, duplicate apple masked
        assert sels[0].positions == [0, 2]
        w_apple = math.log(2.5 / 1.5 + 1) * 2 * 2.2 / (2 + 1.2)
        w_banana = math.log(1.6) * 2.2 / 2.2
        assert sels[0].raw_scores.data[0] == pytest.approx(w_apple, abs=1e-12)
        assert sels[0].raw_scores.data[2] == pytest.approx(w_banana, abs=1e-12)

    def test_bm25_requires_stats(self):
        with pytest.raises(ValueError, match="stats"):
            gate_groups([UserHistory([seq_of([3])])], make_gate(), 1, "bm25")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            gate_groups([UserHistory([seq_of([3])])], make_gate(), 1, "entity")


class TestAttnUserVariant:
    def test_single_item_returns_it(self):
        p = make_gate(seed=25)
        h = tensor(np.arange(p.n_filters, dtype=float))
        out = attn_user_variant([h], p)
        assert np.allclose(out.data, h.data, atol=1e-15)

    def test_permutation_invariance_on_identical_inputs(self):
        p = make_gate(seed=26)
        h = tensor(np.random.default_rng(0).normal(size=p.n_filters))
        out = attn_user_variant([h, h, h], p)
        assert np.allclose(out.data, h.data, atol=1e-12)

    def test_matches_weighted_pool_oracle(self):
        rng = np.random.default_rng(27)
        p = make_gate(seed=27)
        hs = [tensor(rng.normal(size=p.n_filters)) for _ in range(4)]
        out = attn_user_variant(hs, p)
        stacked = np.stack([h.data for h in hs])
        alpha = softmax_oracle(stacked @ p.attn_v.data)
        assert rel_err(out.data, alpha @ stacked) < 1e-12

    def test_gate_history_with_attn_encoder(self):
        rng = np.random.default_rng(28)
        p = make_gate(seed=28, user_encoder="attn")
        history = random_history(rng, 3, 5)
        sels = gate_groups([history], p, 2, "learned")
        assert all(s.k_eff == 2 for s in sels)


class TestGateOptions:
    @pytest.mark.parametrize("option", [
        {"user_encoder": "gru"}, {"user_encoder": "LSTM"}, {"user_encoder": ""},
    ])
    def test_unknown_choice_rejected(self, option):
        with pytest.raises(ValueError, match="must be one of"):
            make_gate(**option)

    @pytest.mark.parametrize("field, shape", [
        ("lstm_w_ih", (20, 6)), ("lstm_w_ih", (5, 5)), ("lstm_w_hh", (20, 4)),
        ("lstm_w_hh", (16, 4)), ("lstm_bias", (16,)), ("lstm_bias", (20, 1)),
    ])
    def test_lstm_tensor_that_does_not_fit_n_filters_rejected(self, field, shape):
        # n_filters 5: w_ih and w_hh (20, 5), bias (20,)
        fields = dict(make_gate().__dict__, **{field: tensor(np.zeros(shape))})
        with pytest.raises(ValueError, match=r"gate LSTM shapes .* do not fit n_filters 5"):
            GateParams(**fields)

class TestGroupedSelectPositions:
    def test_matches_per_row_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            G, L = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            ids = rng.integers(0, 5, size=(G, L))         # repeated ids, id 0 among them
            scores = rng.integers(-2, 3, size=(G, L)).astype(float)  # ties
            for k in range(1, L + 2):
                order, counts = select_positions(ids, scores, k)
                for row in range(G):
                    expect = select_positions_oracle(seq_of(ids[row].tolist()), scores[row], k)
                    assert order[row, :counts[row]].tolist() == expect

    def test_repeated_ids_by_plain_indexing(self, monkeypatch):
        def no_along_axis(*args, **kwargs):
            raise AssertionError("an along-axis helper was called")

        monkeypatch.setattr(np, "take_along_axis", no_along_axis)
        monkeypatch.setattr(np, "put_along_axis", no_along_axis)
        ids = np.array([[5, 0, 5, 7, 0, 7, 2],
                        [0, 0, 3, 3, 3, 0, 0],
                        [9, 8, 7, 9, 8, 7, 0]])
        scores = np.array([[0.1, 9.0, 0.5, 0.5, 9.0, 2.0, 0.5],
                           [9.0, 9.0, -1.0, 5.0, 5.0, 9.0, 9.0],
                           [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 3.0]])
        for k in (1, 2, 3, 7):
            order, counts = select_positions(ids, scores, k)
            for row in range(3):
                expect = select_positions_oracle(seq_of(ids[row].tolist()), scores[row], k)
                assert counts[row] == len(expect)
                assert order[row, :counts[row]].tolist() == expect

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k"):
            select_positions(np.array([[3, 4]]), np.zeros((1, 2)), 0)


def oracle_history(rng, vocab_size):
    """Items of mixed lengths with id 0, repeated ids and, for k=3, items
    with fewer than k distinct ids."""
    items = []
    for length in (5, 3, 5, 2, 4, 5):
        ids = rng.integers(1, vocab_size, size=length).tolist()
        if length == 5:
            ids[-1] = 0
        if length == 2:
            ids = [ids[0], ids[0]]
        items.append(TokenSequence(ids))
    return UserHistory(items)


# the gate scores tokens; test ids name that next to the user encoder
TOKEN_ENCODERS = pytest.mark.parametrize("encoder", ["lstm", "attn"], ids=lambda e: f"token-{e}")


class TestGateMatchesOracle:
    """gate_groups on one history, read as a sequence of
    per-item selections, against the per-item reference gate: positions,
    values, and gradients
    through the gathered rows."""

    @staticmethod
    def assert_match(run, reference, params):
        weights = [params.word_embeddings, *params.named_tensors().values()]
        got_sels, ref_sels = run(), reference()
        assert [s.positions for s in got_sels] == [s.positions for s in ref_sels]
        for a, b in zip(got_sels, ref_sels):
            for part in ("raw_scores", "weights", "gathered"):
                assert rel_err(getattr(a, part).data, getattr(b, part).data) < 1e-12, part
        d = params.word_embeddings.data.shape[1]
        c = np.random.default_rng(31).normal(size=(sum(s.k_eff for s in ref_sels), d))

        def loss(fn):
            return lambda: total(nm.mul(nm.concat_rows([s.gathered for s in fn()]), tensor(c)))

        fast = autodiff_grads(loss(run), weights)
        slow = autodiff_grads(loss(reference), weights)
        for name, a, b in zip(["embed", *params.named_tensors()], fast, slow):
            if b is None:
                assert a is None or not a.any(), name
                continue
            assert rel_err(a, b) < 1e-12, name

    @TOKEN_ENCODERS
    def test_learned(self, encoder):
        rng = np.random.default_rng(30)
        p = make_gate(vocab_size=15, seed=30, user_encoder=encoder)
        history = oracle_history(rng, 15)
        self.assert_match(
            lambda: item_views(gate_groups([history], p, 3, "learned")),
            lambda: gate_history_oracle(history, p, 3), p,
        )

    @TOKEN_ENCODERS
    def test_groups_with_no_numpy_unique(self, encoder, monkeypatch):
        # the gate groups items by length, histories by item count and rows
        # by K_eff with a set over a short list, not np.unique; test_learned
        # pins the same gate to the oracle
        def no_unique(*args, **kwargs):
            raise AssertionError("np.unique called")

        rng = np.random.default_rng(34)
        p = make_gate(vocab_size=15, seed=34, user_encoder=encoder)
        histories = [oracle_history(rng, 15), UserHistory(oracle_history(rng, 15).items[:2]),
                     oracle_history(rng, 15)]
        weights = [p.word_embeddings, *p.named_tensors().values()]
        c = np.random.default_rng(35).normal(size=(64, p.word_embeddings.data.shape[1]))

        def run():
            gated = gate_groups(histories, p, 3, "learned")
            return gated, lambda: total(nm.mul(gate_groups(histories, p, 3, "learned").rows,
                                                 tensor(c[:len(gated.rows.data)])))

        want, loss = run()
        want_grads = autodiff_grads(loss, weights)
        monkeypatch.setattr(np, "unique", no_unique)
        got, loss = run()
        assert np.array_equal(got.rows.data, want.rows.data)
        assert np.array_equal(got.offsets, want.offsets)
        for a, b in zip(autodiff_grads(loss, weights), want_grads):
            assert (a is None and b is None) or np.array_equal(a, b)

    @pytest.mark.parametrize("method", ["first", "bm25", "random"])
    def test_heuristic(self, method):
        rng = np.random.default_rng(32)
        p = make_gate(vocab_size=15, seed=32)
        history = oracle_history(rng, 15)
        stats = build_index({str(i): seq for i, seq in enumerate(history.items)})
        self.assert_match(
            lambda: item_views(gate_groups([history], p, 3, method, stats,
                                           [np.random.default_rng(4)])),
            lambda: heuristic_gate_oracle(history, method, 3, p, stats, np.random.default_rng(4)),
            p,
        )


class TestGroupedSelectionSequence:
    """gate_groups' result reads as a read-only sequence of per-item
    selections, each that item's kept positions; the per-item views of the
    flat tensors (``item_views``) match the reference gate and tile them."""

    def test_len_indexing_and_iteration_match_oracle(self):
        rng = np.random.default_rng(33)
        p = make_gate(vocab_size=15, seed=33)
        history = oracle_history(rng, 15)
        gated = gate_groups([history], p, 3, "learned")
        views = item_views(gated)
        ref = gate_history_oracle(history, p, 3)
        n = len(history.items)
        assert len(gated) == len(views) == len(ref) == n

        def same(a, b):
            assert a.positions == b.positions and a.k_eff == b.k_eff

        for i in range(n):
            same(gated[i], ref[i])
            same(gated[i - n], ref[i])
            for part in ("raw_scores", "weights", "gathered"):
                assert rel_err(getattr(views[i], part).data, getattr(ref[i], part).data) < 1e-12
        for a, b in zip(gated, ref, strict=True):
            same(a, b)
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                gated[bad]

    def test_items_tile_the_grouped_rows_and_read_only(self):
        rng = np.random.default_rng(34)
        p = make_gate(vocab_size=15, seed=34)
        gated = gate_groups([oracle_history(rng, 15)], p, 3, "learned")
        views = item_views(gated)
        assert np.array_equal(np.concatenate([s.gathered.data for s in views]), gated.rows.data)
        assert np.array_equal(np.concatenate([s.weights.data for s in views]), gated.weights.data)
        assert [pos for s in gated for pos in s.positions] == gated.positions.tolist()
        with pytest.raises(AttributeError):
            gated.rows = gated.weights
        with pytest.raises(TypeError):
            gated[0] = gated[1]

    def test_an_item_view_records_nothing(self):
        p = make_gate(vocab_size=15, seed=37)
        history = oracle_history(np.random.default_rng(37), 15)
        with Tape() as tape:
            gated = gate_groups([history], p, 3, "learned")
            recorded = len(tape)
            sels = list(gated)
        assert len(tape) == recorded
        assert [s.k_eff for s in sels] == np.diff(gated.offsets).tolist()


class TestFlatOutput:
    """gate_groups' flat arrays line up: each item's run of raw scores in
    ``scores`` through ``token_start``, and each kept row's position in its
    item and its token id."""

    @pytest.mark.parametrize("method", GATE_METHODS)
    @TOKEN_ENCODERS
    def test_positions_token_ids_and_scores_line_up(self, method, encoder):
        rng = np.random.default_rng(35)
        p = make_gate(vocab_size=15, seed=35, user_encoder=encoder)
        histories = [oracle_history(rng, 15) for _ in range(3)]
        items = [seq for h in histories for seq in h.items]
        stats = build_index({str(i): seq for i, seq in enumerate(items)})
        gated = gate_groups(histories, p, 3, method, stats,
                            [np.random.default_rng(40 + h) for h in range(3)])
        if method == "learned":
            ref = [s for h in histories for s in gate_history_oracle(h, p, 3)]
        else:
            ref = [s for j, h in enumerate(histories) for s in heuristic_gate_oracle(
                h, method, 3, p, stats, np.random.default_rng(40 + j))]

        n_rows = len(gated.rows.data)
        assert gated.positions.shape == gated.token_ids.shape == (n_rows,)
        assert np.diff(gated.token_start).tolist() == [len(seq) for seq in items]
        assert gated.scores.data.shape == (gated.token_start[-1],)
        assert gated.positions.tolist() == [pos for s in ref for pos in s.positions]
        for i, seq in enumerate(items):
            lo, hi = gated.offsets[i], gated.offsets[i + 1]
            pos = gated.positions[lo:hi]
            assert gated.token_ids[lo:hi].tolist() == [seq.ids[j] for j in pos]
            got = gated.scores.data[gated.token_start[i]:gated.token_start[i + 1]]
            want = ref[i].raw_scores.data
            # the heuristics' scores come from the same arithmetic as the reference's
            assert np.array_equal(got, want) if method != "learned" else rel_err(got, want) < 1e-12
        scaled = p.word_embeddings.data[gated.token_ids] * gated.weights.data[:, None]
        assert np.array_equal(gated.rows.data, scaled)

    @pytest.mark.parametrize("method", GATE_METHODS)
    def test_one_kept_row_gather_and_one_row_product(self, method, monkeypatch):
        # oracle_history mixes item lengths and K_eff values, so a gate that
        # gathered and weighted per bucket would make several of each
        from gateformer import gating

        rng = np.random.default_rng(36)
        p = make_gate(vocab_size=15, seed=36)
        histories = [oracle_history(rng, 15) for _ in range(3)]
        items = [seq for h in histories for seq in h.items]
        stats = build_index({str(i): seq for i, seq in enumerate(items)})
        gathers, products = [], []
        gather, mul = gating.gather_rows, nm.mul

        def counted_gather(x, indices):
            if x is p.word_embeddings and np.ndim(indices) == 1:
                gathers.append(len(indices))
            return gather(x, indices)

        def counted_mul(a, b):
            products.append(np.shape(a.data))
            return mul(a, b)

        monkeypatch.setattr(gating, "gather_rows", counted_gather)
        monkeypatch.setattr(nm, "mul", counted_mul)
        gated = gate_groups(histories, p, 3, method, stats,
                            [np.random.default_rng(40 + h) for h in range(3)])
        assert gathers == [len(gated.rows.data)]
        assert products == [gated.rows.data.shape]
        assert len(set(np.diff(gated.offsets).tolist())) > 1
        assert len(set(np.diff(gated.token_start).tolist())) > 1
