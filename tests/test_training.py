import copy
import dataclasses
import math

import numpy as np
import pytest

from gateformer import numerics as nm
from gateformer.efficiency import ModelDims, user_side_flops
from gateformer.gating import gate_groups, item_features
from gateformer.numerics import Tape, backward, tensor
from gateformer.text import PAD_ID, ImpressionSample, TokenSequence, UserHistory, synth_corpus_full
from gateformer.training import (
    ENCODE_CHUNK,
    Model,
    OptimState,
    adam_step,
    auc_score,
    batch_loss,
    batch_user_embeddings,
    clip_gradients,
    encode_candidate_rows,
    evaluate,
    gate_history,
    init_model,
    lr_at,
    mrr_score,
    ndcg_at_k,
    split_samples,
    train,
    user_embedding,
    user_keywords,
    write_metrics_csv,
)
from gateformer.transformer import (
    apply_checkpoint,
    encode_candidates,
    load_checkpoint,
    save_checkpoint,
)
from oracles import (
    auc_oracle,
    encode_user_oracle,
    evaluate_oracle,
    mrr_oracle,
    ndcg_oracle,
    rel_err,
    sample_loss,
    select_history_oracle,
    user_embedding_oracle,
)


@pytest.fixture(scope="module")
def tiny_corpus():
    return synth_corpus_full(
        seed=21, n_users=24, n_items=64, n_topics=4, tokens_per_item=10,
        n_signal=2, filler_pool=30, history_len=3, impressions_per_user=3,
        val_fraction=0.25,
    )


def tiny_model(corpus, method="learned", seed=0, k=2, granularity="token", user_encoder="lstm"):
    from gateformer.text import corpus_stats

    return init_model(
        vocab_size=len(corpus.vocab), d=16, n_layers=1, heads=2,
        max_positions=30, n_filters=8, window=1, seed=seed, k=k,
        gate_method=method, user_encoder=user_encoder, granularity=granularity,
        stats=corpus_stats(corpus.news),
    )


def two_token_words(sample: ImpressionSample) -> ImpressionSample:
    """The sample with every item's tokens grouped into words of two tokens
    (the synthetic corpus has one token per word)."""
    def regroup(seq):
        return TokenSequence(seq.ids, [j // 2 for j in range(len(seq))], seq.source_positions)

    return dataclasses.replace(
        sample,
        history=UserHistory([regroup(seq) for seq in sample.history.items]),
        positive=regroup(sample.positive),
        negatives=[regroup(seq) for seq in sample.negatives],
    )


class TestAdam:
    def one_param(self, value=1.0):
        p = tensor(np.array([value]), requires_grad=True)
        return {"w": p}

    def test_zero_gradient_leaves_parameters_unchanged(self):
        named = self.one_param(1.5)
        named["w"].grad = np.zeros(1)
        state = OptimState(peak_lr=0.1, warmup_steps=0, total_steps=10)
        adam_step(named, state)
        assert named["w"].data[0] == 1.5

    def test_two_step_hand_trace(self):
        named = self.one_param(1.0)
        state = OptimState(peak_lr=0.1, warmup_steps=2, total_steps=4)
        b1, b2, eps = 0.9, 0.999, 1e-8

        # step 1: lr = 0.1 * 1/2
        g1 = 0.5
        named["w"].grad = np.array([g1])
        adam_step(named, state)
        m, v = (1 - b1) * g1, (1 - b2) * g1 * g1
        mhat, vhat = m / (1 - b1), v / (1 - b2)
        w = 1.0 - 0.05 * mhat / (math.sqrt(vhat) + eps)
        assert named["w"].data[0] == pytest.approx(w, abs=1e-12)

        # step 2: lr = 0.1 (warmup complete)
        g2 = -0.25
        named["w"].grad = np.array([g2])
        adam_step(named, state)
        m = b1 * m + (1 - b1) * g2
        v = b2 * v + (1 - b2) * g2 * g2
        mhat, vhat = m / (1 - b1 ** 2), v / (1 - b2 ** 2)
        w -= 0.1 * mhat / (math.sqrt(vhat) + eps)
        assert named["w"].data[0] == pytest.approx(w, abs=1e-12)

    def test_lr_at_warmup_is_peak_exactly(self):
        state = OptimState(peak_lr=3e-4, warmup_steps=100, total_steps=1000)
        assert lr_at(state, 100) == 3e-4
        assert lr_at(state, 50) == pytest.approx(1.5e-4)
        assert lr_at(state, 1000) == 0.0
        assert lr_at(state, 550) == pytest.approx(1.5e-4)

    def test_nan_gradient_aborts_step(self):
        named = self.one_param()
        named["w"].grad = np.array([np.nan])
        state = OptimState(peak_lr=0.1, warmup_steps=0, total_steps=10)
        with pytest.raises(RuntimeError, match="non-finite"):
            adam_step(named, state)
        assert named["w"].data[0] == 1.0  # nothing moved
        assert state.step == 0

    def test_clipping_never_increases_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            named = {
                "a": tensor(np.zeros(4), requires_grad=True),
                "b": tensor(np.zeros((2, 3)), requires_grad=True),
            }
            named["a"].grad = rng.normal(size=4) * rng.uniform(0.1, 10)
            named["b"].grad = rng.normal(size=(2, 3)) * rng.uniform(0.1, 10)
            before = math.sqrt(sum(float((p.grad ** 2).sum()) for p in named.values()))
            max_norm = rng.uniform(0.5, 5)
            clip_gradients(named, max_norm)
            after = math.sqrt(sum(float((p.grad ** 2).sum()) for p in named.values()))
            assert after <= before + 1e-12
            assert after <= max_norm + 1e-9


class TestMetrics:
    def test_positive_first_of_five(self):
        scores, labels = [5.0, 1.0, 2.0, 3.0, 0.5], [1, 0, 0, 0, 0]
        assert auc_score(scores, labels) == 1.0
        assert mrr_score(scores, labels) == 1.0
        assert ndcg_at_k(scores, labels, 5) == 1.0

    def test_positive_last_of_two(self):
        scores, labels = [1.0, 2.0], [1, 0]
        assert auc_score(scores, labels) == 0.0
        assert mrr_score(scores, labels) == 0.5

    def test_ties_count_half(self):
        assert auc_score([1.0, 1.0], [1, 0]) == 0.5

    def test_random_fixtures_match_brute_force_oracles(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            labels = np.zeros(n, dtype=int)
            labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
            if labels.all():
                labels[rng.integers(0, n)] = 0
            scores = rng.choice(np.arange(-3, 4), size=n).astype(float)  # force ties
            assert auc_score(scores, labels) == pytest.approx(
                auc_oracle(scores, labels), abs=1e-12
            )
            assert mrr_score(scores, labels) == pytest.approx(
                mrr_oracle(scores, labels), abs=1e-12
            )
            for k in (5, 10):
                assert ndcg_at_k(scores, labels, k) == pytest.approx(
                    ndcg_oracle(scores, labels, k), abs=1e-12
                )


class TestBatchEquivalence:
    """The grouped fast path must reproduce the per-sample reference."""

    @staticmethod
    def assert_loss_and_gradients_match(model, samples, tol=1e-9):
        named = model.named_tensors()
        idxs = list(range(len(samples)))

        for t in named.values():
            t.zero_grad()
        total = 0.0
        for i in idxs:
            with Tape() as tape:
                loss = nm.mul(sample_loss(model, samples[i], i), 1.0 / len(idxs))
            total += loss.item()
            backward(tape, loss)
        ref = {k: (v.grad.copy() if v.grad is not None else None) for k, v in named.items()}

        for t in named.values():
            t.zero_grad()
        with Tape() as tape:
            loss_b = batch_loss(model, samples, idxs)
        backward(tape, loss_b)

        assert loss_b.item() == pytest.approx(total, abs=1e-12)
        for k, v in named.items():
            a, b = ref[k], v.grad
            if a is None and b is None:
                continue
            scale = max(np.abs(a).max(), np.abs(b).max())
            if scale < 1e-9:
                continue
            assert rel_err(a, b) < tol, k

    @pytest.mark.parametrize("method", ["learned", "first", "bm25", "random"])
    def test_loss_and_gradients_match(self, tiny_corpus, method):
        self.assert_loss_and_gradients_match(
            tiny_model(tiny_corpus, method), tiny_corpus.samples[:6]
        )

    @pytest.mark.parametrize("method", ["learned", "random"])
    def test_ragged_negative_counts_match(self, tiny_corpus, method):
        samples = [
            dataclasses.replace(s, negatives=s.negatives[: 1 + i % 3])
            for i, s in enumerate(tiny_corpus.samples[:7])
        ]
        self.assert_loss_and_gradients_match(tiny_model(tiny_corpus, method), samples, tol=1e-12)

    def test_word_granularity_loss_and_gradients_match(self, tiny_corpus):
        samples = [two_token_words(s) for s in tiny_corpus.samples[:6]]
        model = tiny_model(tiny_corpus, granularity="word")
        self.assert_loss_and_gradients_match(model, samples)

    def test_user_embeddings_match(self, tiny_corpus):
        samples = tiny_corpus.samples[:5]
        # the last word history has the first one's token ids, other words
        word_samples = [two_token_words(s) for s in samples] + samples[:1]
        for model, batch in (
            (tiny_model(tiny_corpus), samples),
            (tiny_model(tiny_corpus, granularity="word"), word_samples),
        ):
            batched = batch_user_embeddings(
                model, [s.history for s in batch], list(range(len(batch)))
            ).data
            for i, s in enumerate(batch):
                single = user_embedding(model, s.history, i).data
                assert rel_err(batched[i], single) < 1e-12

    def test_equal_content_histories_encoded_once(self, tiny_corpus):
        h0, h1 = tiny_corpus.samples[0].history, tiny_corpus.samples[1].history
        # a fresh model for each count: both calls start with a cold item store
        first, second = tiny_model(tiny_corpus), tiny_model(tiny_corpus)
        with nm.count_flops() as distinct:
            batch_user_embeddings(first, [h0, h1], [0, 1])
        with nm.count_flops() as repeated:
            out = batch_user_embeddings(second, [h0, copy.deepcopy(h0), h1, h0], [0, 1, 2, 3])
        assert repeated.flops == distinct.flops
        assert np.array_equal(out.data[0], out.data[1])
        assert np.array_equal(out.data[0], out.data[3])

    def test_position_capacity_enforced(self, tiny_corpus):
        # three items keeping two tokens each need six positions
        from gateformer.text import corpus_stats

        model = init_model(
            vocab_size=len(tiny_corpus.vocab), d=16, n_layers=1, heads=2,
            max_positions=4, n_filters=8, window=1, seed=0, k=2,
            stats=corpus_stats(tiny_corpus.news),
        )
        hists = [s.history for s in tiny_corpus.samples[:3]]
        with pytest.raises(ValueError, match="max positions"):
            batch_user_embeddings(model, hists, [0, 1, 2])

    def test_mixed_history_lengths(self, tiny_corpus):
        from gateformer.text import UserHistory

        model = tiny_model(tiny_corpus)
        s0 = tiny_corpus.samples[0]
        short = UserHistory(s0.history.items[:1])
        hists = [s0.history, short, tiny_corpus.samples[1].history]
        batched = batch_user_embeddings(model, hists, [0, 1, 2]).data
        for i, h in enumerate(hists):
            assert rel_err(batched[i], user_embedding(model, h, i).data) < 1e-12


class TestUserKeywords:
    def test_weights_positive_and_tokens_from_history(self, tiny_corpus):
        model = tiny_model(tiny_corpus)
        s = tiny_corpus.samples[0]
        pairs = user_keywords(model, s.history, 0)
        hist_tokens = {t for seq in s.history.items for t in seq.ids}
        assert pairs
        for tok, w in pairs:
            assert tok in hist_tokens
            assert w > 0


class TestPerSampleMatchesOracle:
    """user_embedding encodes the grouped gate's rows as they are. That is
    bit for bit the per-item concatenation of the gate's own selections, and
    the reference gate's embedding: bit for bit under the heuristic
    selectors, whose weights are constants, and within 1e-12 under the
    learned one, whose scores the reference computes in other ops.
    user_keywords gives the reference gate's (token, weight) pairs."""

    @pytest.mark.parametrize("method,encoder,granularity", [
        ("learned", "lstm", "token"),
        ("learned", "attn", "token"),
        ("learned", "lstm", "word"),
        ("learned", "attn", "word"),
        ("first", "lstm", "token"),
        ("bm25", "lstm", "token"),
        ("random", "attn", "token"),
    ])
    def test_embedding_and_keywords(self, tiny_corpus, method, encoder, granularity):
        model = tiny_model(tiny_corpus, method, granularity=granularity, user_encoder=encoder)
        samples = tiny_corpus.samples[:6]
        if granularity == "word":
            samples = [two_token_words(s) for s in samples]
        exact = method != "learned"
        for i, s in enumerate(samples):
            u = user_embedding(model, s.history, i).data
            concat = encode_user_oracle(gate_history(s.history, model, i), model.trans)
            assert np.array_equal(u, concat.data)
            ref = user_embedding_oracle(model, s.history, i).data
            assert np.array_equal(u, ref) if exact else rel_err(u, ref) < 1e-12

            want = [
                (seq.ids[pos], float(w))
                for seq, sel in zip(s.history.items, select_history_oracle(model, s.history, i))
                for pos, w in zip(sel.positions, sel.weights.data)
            ]
            got = user_keywords(model, s.history, i)
            assert [tok for tok, _ in got] == [tok for tok, _ in want]
            got_w, want_w = np.array([w for _, w in got]), np.array([w for _, w in want])
            assert np.array_equal(got_w, want_w) if exact else rel_err(got_w, want_w) < 1e-12


class TestUserEmbeddingCalls:
    def test_calls_the_names_perfbench_wraps(self, tiny_corpus, monkeypatch):
        # perfbench/tracing.py replaces training.gate_history and
        # training.encode_user and reads per-item k_eff from the gate's result
        from gateformer import training

        calls = []

        def spy(name):
            original = getattr(training, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                calls.append((name, args[0], result))
                return result

            monkeypatch.setattr(training, name, wrapper)

        spy("gate_history")
        spy("encode_user")
        model = tiny_model(tiny_corpus)
        history = tiny_corpus.samples[0].history
        u = user_embedding(model, history, 0)
        assert [name for name, _, _ in calls] == ["gate_history", "encode_user"]
        (_, first, gated), (_, _, out) = calls
        assert first is history and out is u
        assert [s.k_eff for s in gated] == np.diff(gated.offsets).tolist()


class TestTrainLoop:
    def test_zero_steps_saves_initial_checkpoint(self, tiny_corpus, tmp_path):
        model = tiny_model(tiny_corpus)
        before = {k: v.data.copy() for k, v in model.named_tensors().items()}
        res = train(
            model, tiny_corpus.samples[:8], tiny_corpus.samples[8:12],
            steps=0, batch_size=4, peak_lr=1e-3, warmup=2, seed=0,
            out_dir=tmp_path,
        )
        assert res.history == []
        loaded = load_checkpoint(tmp_path / "best")
        for k, v in before.items():
            assert np.array_equal(loaded[k], v)

    def test_training_is_deterministic(self, tiny_corpus):
        def run():
            model = tiny_model(tiny_corpus)
            tr, va = tiny_corpus.split()
            res = train(
                model, tr, va, steps=8, batch_size=4, peak_lr=1e-3,
                warmup=2, seed=5, eval_interval=4, log_interval=0,
            )
            return res.losses, res.history

        l1, h1 = run()
        l2, h2 = run()
        assert l1 == l2
        assert h1 == h2

    def test_log_reports_pre_clip_grad_norm(self, tiny_corpus, caplog, monkeypatch):
        from gateformer import training

        calls = []
        clip = training.clip_gradients

        def counting_clip(named, max_norm):
            calls.append(max_norm)
            return clip(named, max_norm)

        monkeypatch.setattr(training, "clip_gradients", counting_clip)

        def logged_norms(clip_norm, log_interval):
            caplog.clear()
            model = tiny_model(tiny_corpus)
            tr, _ = tiny_corpus.split()
            with caplog.at_level("INFO", logger="gateformer.training"):
                train(model, tr, [], steps=4, batch_size=4, peak_lr=1e-3, warmup=2,
                      seed=5, log_interval=log_interval, clip_norm=clip_norm)
            return [float(r.getMessage().split("grad_norm ")[1]) for r in caplog.records
                    if "grad_norm" in r.getMessage()]

        unclipped = logged_norms(0.0, 2)
        assert len(unclipped) == 2 and all(n > 0 for n in unclipped)
        assert calls == [0.0, 0.0]  # norm computed on logging steps only
        # a bound never reached clips nothing, so the run and its norms are the same
        assert logged_norms(1e9, 2) == unclipped
        # under clipping the log shows the norm before clipping
        assert all(n > 1e-6 for n in logged_norms(1e-6, 1))
        calls.clear()
        assert logged_norms(0.0, 0) == []
        assert calls == []  # log_interval=0 computes no norm

    def test_loss_decreases_on_separable_data(self, tiny_corpus):
        model = tiny_model(tiny_corpus)
        tr, va = tiny_corpus.split()
        res = train(
            model, tr, va, steps=60, batch_size=8, peak_lr=2e-3,
            warmup=10, seed=0, eval_interval=30, log_interval=0,
        )
        start = np.mean(res.losses[:5])
        end = np.mean(res.losses[-5:])
        assert end < start
        assert end < math.log(5)

    def test_best_checkpoint_retained(self, tiny_corpus, tmp_path):
        model = tiny_model(tiny_corpus)
        tr, va = tiny_corpus.split()
        res = train(
            model, tr, va, steps=20, batch_size=4, peak_lr=2e-3,
            warmup=5, seed=1, eval_interval=10, log_interval=0, out_dir=tmp_path,
        )
        assert res.best_auc == max(r[2] for r in res.history)
        loaded = load_checkpoint(tmp_path / "best")
        for k, v in model.named_tensors().items():
            assert np.array_equal(loaded[k], v.data)

    def test_heuristic_method_keeps_gate_params_frozen(self, tiny_corpus):
        model = tiny_model(tiny_corpus, method="first")
        gate_before = {
            k: v.data.copy() for k, v in model.gate.named_tensors().items()
        }
        tr, va = tiny_corpus.split()
        train(
            model, tr, va, steps=6, batch_size=4, peak_lr=5e-3,
            warmup=1, seed=0, eval_interval=0, log_interval=0,
        )
        for k, v in model.gate.named_tensors().items():
            assert np.array_equal(v.data, gate_before[k]), k

    def test_metrics_csv_format(self, tmp_path):
        rows = [(10, 1.5, 0.8, 0.5, 0.6, 0.7)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows, "abc123")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config abc123"
        assert lines[1] == "step,loss,auc,mrr,ndcg5,ndcg10"
        assert lines[2].startswith("10,1.5,0.8")


class TestEvaluate:
    def test_report_fields_in_range(self, tiny_corpus):
        model = tiny_model(tiny_corpus)
        report = evaluate(model, tiny_corpus.samples[:10])
        for v in report.row():
            assert 0.0 <= v <= 1.0
        assert report.n_impressions == 10

    def test_threads_match_single(self, tiny_corpus):
        model = tiny_model(tiny_corpus)
        a = evaluate(model, tiny_corpus.samples[:8], threads=1)
        b = evaluate(model, tiny_corpus.samples[:8], threads=3)
        assert a == b
        a = evaluate(model, tiny_corpus.samples[:70], threads=1)
        b = evaluate(model, tiny_corpus.samples[:70], threads=3)
        assert a == b

    @staticmethod
    def oracle_case(corpus, case):
        """(model, samples) for one evaluate-vs-oracle case; 45 samples, so
        one full chunk of 32 and a partial one."""
        samples = corpus.samples[:45]
        if case == "word":
            return tiny_model(corpus, granularity="word"), [two_token_words(s) for s in samples]
        if case in ("learned", "first", "random"):
            return tiny_model(corpus, case), samples
        if case == "ragged":
            samples = [
                dataclasses.replace(
                    s, negatives=s.negatives[: 1 + i % 4],
                    negative_ids=s.negative_ids[: 1 + i % 4],
                )
                for i, s in enumerate(samples)
            ]
        elif case == "no_ids":
            samples = [
                dataclasses.replace(s, history_ids=[], positive_id="", negative_ids=[])
                for s in samples
            ]
        elif case == "copies":
            # equal content held by distinct objects, within and across chunks
            samples = samples[:20] + copy.deepcopy(samples[:25])
        return tiny_model(corpus), samples

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize(
        "case", ["learned", "first", "random", "word", "ragged", "no_ids", "copies"]
    )
    def test_matches_per_impression_oracle(self, tiny_corpus, case, threads):
        model, samples = self.oracle_case(tiny_corpus, case)
        report = evaluate(model, samples, threads=threads)
        assert report.n_impressions == len(samples)
        assert report.row() == pytest.approx(evaluate_oracle(model, samples), abs=1e-12)

    def test_empty_rejected(self, tiny_corpus):
        with pytest.raises(ValueError):
            evaluate(tiny_model(tiny_corpus), [])

    def test_encoder_calls_bounded_and_candidates_encoded_once(self, tiny_corpus, monkeypatch):
        import gateformer.training as training

        calls = []

        def recording(seqs, params):
            calls.append([tuple(seq.ids) for seq in seqs])
            return encode_candidates(seqs, params)

        monkeypatch.setattr(training, "encode_candidates", recording)
        samples = tiny_corpus.samples[:20] + copy.deepcopy(tiny_corpus.samples[:25])
        evaluate(tiny_model(tiny_corpus), samples)
        encoded = [key for call in calls for key in call]
        distinct = {tuple(seq.ids) for s in samples for seq in (s.positive, *s.negatives)}
        assert sorted(encoded) == sorted(distinct)
        assert len(calls) > 1 and all(len(call) <= training.ENCODE_CHUNK for call in calls)


def _adam(model, tmp_path):
    named = model.trainable_tensors()
    for p in named.values():
        p.grad = np.full_like(p.data, 0.1)
    adam_step(named, OptimState(peak_lr=0.01, warmup_steps=0, total_steps=10))


def _load_other_checkpoint(model, tmp_path):
    other = init_model(
        vocab_size=model.trans.word_embeddings.data.shape[0], d=16, n_layers=1, heads=2,
        max_positions=30, n_filters=8, window=1, seed=99, k=2,
    )
    save_checkpoint(other.named_tensors(), tmp_path / "other")
    apply_checkpoint(model.named_tensors(), load_checkpoint(tmp_path / "other"))


def _edit_word_row(model, tmp_path):
    model.trans.word_embeddings.data[5] += 1e-3


def _replace_data(model, tmp_path):
    model.trans.pool_q.data = model.trans.pool_q.data * 1.5


class TestItemStore:
    @staticmethod
    def counting(monkeypatch):
        import gateformer.training as training

        rows = []

        def recording(seqs, params):
            rows.extend(tuple(seq.ids) for seq in seqs)
            return encode_candidates(seqs, params)

        monkeypatch.setattr(training, "encode_candidates", recording)
        return rows

    @staticmethod
    def candidates(corpus, n=30):
        return [seq for s in corpus.samples[:n] for seq in (s.positive, *s.negatives)]

    def test_fresh_model_starts_empty(self, tiny_corpus):
        model = tiny_model(tiny_corpus)
        evaluate(model, tiny_corpus.samples[:10])
        assert len(model.items) > 0
        # equal parameters, its own store
        assert len(tiny_model(tiny_corpus).items) == 0

    def test_rows_are_read_only(self, tiny_corpus):
        model = tiny_model(tiny_corpus)
        row = model.items.rows(self.candidates(tiny_corpus, 2), model.trans)[0]
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1.0
        assert np.array_equal(model.items.rows(self.candidates(tiny_corpus, 2), model.trans)[0], row)

    def test_each_distinct_candidate_encoded_once_per_parameters(self, tiny_corpus, monkeypatch):
        encoded = self.counting(monkeypatch)
        model = tiny_model(tiny_corpus)
        seqs = self.candidates(tiny_corpus)
        model.items.rows(seqs[:40], model.trans)
        model.items.rows(seqs, model.trans)
        distinct = list(dict.fromkeys(tuple(seq.ids) for seq in seqs))
        # first-occurrence order, across the two calls
        assert encoded == distinct and len(model.items) == len(distinct)

    @pytest.mark.parametrize("change", [_adam, _load_other_checkpoint, _edit_word_row, _replace_data])
    def test_parameter_change_drops_every_row(self, tiny_corpus, monkeypatch, tmp_path, change):
        model = tiny_model(tiny_corpus)
        seqs = self.candidates(tiny_corpus)
        stale = np.stack(model.items.rows(seqs, model.trans))
        change(model, tmp_path)
        encoded = self.counting(monkeypatch)
        fresh = np.stack(model.items.rows(seqs[:3], model.trans))
        assert len(model.items) == len(encoded) == len({tuple(s.ids) for s in seqs[:3]})
        np.testing.assert_array_equal(fresh, encode_candidates(seqs[:3], model.trans).data)
        assert not np.array_equal(fresh, stale[:3])

    def test_k_and_gate_method_keep_rows(self, tiny_corpus, monkeypatch):
        model = tiny_model(tiny_corpus)
        samples = tiny_corpus.samples[:20]
        evaluate(model, samples)
        held = len(model.items)
        encoded = self.counting(monkeypatch)
        model.k, model.gate_method = 1, "first"
        evaluate(model, samples)
        assert encoded == [] and len(model.items) == held

    @pytest.mark.parametrize("threads", [1, 3])
    def test_warm_evaluate_equals_cold(self, tiny_corpus, threads):
        samples = tiny_corpus.samples[:45]
        warm = tiny_model(tiny_corpus)
        # rows encoded in other slices than a cold call of all 45 makes
        evaluate(warm, samples[13:40], threads=threads)
        evaluate(warm, samples[:7], threads=threads)
        cold = tiny_model(tiny_corpus)
        assert evaluate(warm, samples, threads=threads) == evaluate(cold, samples, threads=threads)
        seqs = [seq for s in samples for seq in (s.positive, *s.negatives)]
        np.testing.assert_allclose(
            np.stack(warm.items.rows(seqs, warm.trans)),
            np.stack(cold.items.rows(seqs, cold.trans)), rtol=0, atol=1e-12,
        )

    def test_threads_match_single_on_a_warm_store(self, tiny_corpus):
        model = tiny_model(tiny_corpus)
        samples = tiny_corpus.samples[:70]
        evaluate(model, samples[:30])
        assert evaluate(model, samples, threads=3) == evaluate(model, samples, threads=1)


def ragged_with_pads(samples, words=False):
    """The samples with each history item cut to 7-10 tokens and, in every
    third item, its last two tokens set to PAD; with ``words``, the history
    tokens grouped in words of two."""
    out = []
    for i, s in enumerate(samples):
        items = []
        for j, seq in enumerate(s.history.items):
            n = len(seq) - (i + j) % 4
            ids = list(seq.ids[:n])
            if (i + j) % 3 == 0:
                ids[-2:] = [PAD_ID, PAD_ID]
            groups = [t // 2 for t in range(n)] if words else seq.word_group[:n]
            items.append(TokenSequence(ids, groups, seq.source_positions[:n]))
        out.append(dataclasses.replace(s, history=UserHistory(items)))
    return out


def _edit_filters(model, tmp_path):
    model.gate.filters.data[0, 0] += 1e-3


def _edit_pool_v(model, tmp_path):
    model.gate.pool_v.data[0] += 1e-3


def _replace_conv_bias(model, tmp_path):
    model.gate.bias.data = model.gate.bias.data + 1e-3


def _edit_lstm(model, tmp_path):
    model.gate.lstm.w_ih.data[0, 0] += 1e-2


def _edit_attn_v(model, tmp_path):
    model.gate.attn_v.data[0] += 1e-2


def _change_k(model, tmp_path):
    model.k = 1


class TestGateRows:
    """The item store's second row kind: the learned gate's per-item
    features, read by forward-only batched calls only."""

    @staticmethod
    def recording(monkeypatch):
        """Token ids of every item the store computes features for."""
        import gateformer.training as training

        computed = []

        def recording(params, ids):
            computed.extend(map(tuple, ids.tolist()))
            return item_features(params, ids)

        monkeypatch.setattr(training, "item_features", recording)
        return computed

    @staticmethod
    def uncached(model):
        """The model with a store that keeps no gate rows: each call computes
        its length groups' features as the taped path does."""
        model.items.gate_rows = lambda groups, params: [
            (ctx3.data, pooled.data)
            for ctx3, pooled in (item_features(params, ids) for ids in groups)
        ]
        return model

    @staticmethod
    def distinct_items(histories):
        return list(dict.fromkeys(tuple(seq.ids) for h in histories for seq in h.items))

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("granularity", ["token", "word"])
    @pytest.mark.parametrize("encoder", ["lstm", "attn"])
    def test_cold_warm_and_uncached_agree(self, tiny_corpus, encoder, granularity, threads):
        samples = ragged_with_pads(tiny_corpus.samples[:45], words=granularity == "word")
        hists = [s.history for s in samples]
        assert len({len(seq) for h in hists for seq in h.items}) == 4
        assert any(PAD_ID in seq.ids for h in hists for seq in h.items)
        idx = list(range(len(hists)))

        def fresh():
            return tiny_model(tiny_corpus, granularity=granularity, user_encoder=encoder)

        with Tape():
            taped = batch_user_embeddings(fresh(), hists, idx).data
        model = fresh()
        cold = batch_user_embeddings(model, hists, idx).data
        assert model.items.n_gate_rows == len(self.distinct_items(hists))
        warm = batch_user_embeddings(model, hists, idx).data
        assert np.array_equal(cold, taped) and np.array_equal(warm, taped)
        # rows computed in other batches than this call's
        rewarmed = fresh()
        batch_user_embeddings(rewarmed, hists[13:40], idx[13:40])
        batch_user_embeddings(rewarmed, hists[:7], idx[:7])
        assert np.array_equal(batch_user_embeddings(rewarmed, hists, idx).data, taped)

        want = evaluate(self.uncached(fresh()), samples, threads=threads)
        model = fresh()
        assert evaluate(model, samples, threads=threads) == want
        assert model.items.n_gate_rows == len(self.distinct_items(hists))
        model = fresh()
        evaluate(model, samples[13:40], threads=threads)
        evaluate(model, samples[:7], threads=threads)
        assert evaluate(model, samples, threads=threads) == want

    def test_taped_batch_loss_neither_reads_nor_writes(self, tiny_corpus, monkeypatch):
        samples = tiny_corpus.samples[:8]
        idx = list(range(len(samples)))

        def step(model):
            named = model.named_tensors()
            for t in named.values():
                t.zero_grad()
            with Tape() as tape:
                loss = batch_loss(model, samples, idx)
            backward(tape, loss)
            return len(tape), loss.item(), {k: v.grad for k, v in named.items()}

        cold = tiny_model(tiny_corpus)
        want = step(cold)
        assert cold.items.n_gate_rows == 0
        warm = tiny_model(tiny_corpus)
        evaluate(warm, samples)
        held = warm.items.n_gate_rows
        assert held > 0
        reads = []
        monkeypatch.setattr(warm.items, "gate_rows", lambda *args: reads.append(args))
        nodes, loss, grads = step(warm)
        assert reads == [] and warm.items.n_gate_rows == held
        assert (nodes, loss) == want[:2]
        for name, grad in want[2].items():
            other = grads[name]
            assert (grad is None and other is None) or np.array_equal(grad, other), name
        # the gate itself refuses a store while a tape records
        with Tape(), pytest.raises(ValueError, match="tape"):
            gate_groups([samples[0].history], warm.gate, warm.k, store=warm.items)

    def test_each_distinct_item_computed_once_per_fingerprint(self, tiny_corpus, monkeypatch):
        computed = self.recording(monkeypatch)
        samples = ragged_with_pads(tiny_corpus.samples[:45])
        hists = [s.history for s in samples]
        model = tiny_model(tiny_corpus)
        batch_user_embeddings(model, hists[:20], list(range(20)))
        batch_user_embeddings(model, hists[10:], list(range(10, 45)))
        evaluate(model, samples, threads=3)
        distinct = self.distinct_items(hists)
        assert len(distinct) < sum(len(h) for h in hists)
        assert sorted(computed) == sorted(distinct)
        assert model.items.n_gate_rows == len(distinct)
        _adam(model, None)
        computed.clear()
        evaluate(model, samples, threads=3)
        assert sorted(computed) == sorted(distinct)

    @pytest.mark.parametrize("method", ["first", "bm25", "random"])
    def test_heuristic_selectors_skip_the_store(self, tiny_corpus, monkeypatch, method):
        computed = self.recording(monkeypatch)
        model = tiny_model(tiny_corpus, method)
        evaluate(model, tiny_corpus.samples[:20])
        assert computed == [] and model.items.n_gate_rows == 0

    @pytest.mark.parametrize("change", [
        _adam, _load_other_checkpoint, _edit_word_row, _edit_filters, _edit_pool_v,
        _replace_conv_bias,
    ])
    def test_item_tensor_change_drops_gate_rows(self, tiny_corpus, monkeypatch, tmp_path, change):
        model = tiny_model(tiny_corpus)
        hists = [s.history for s in tiny_corpus.samples[:20]]
        batch_user_embeddings(model, hists, list(range(20)))
        change(model, tmp_path)
        computed = self.recording(monkeypatch)
        got = batch_user_embeddings(model, hists[:3], [0, 1, 2]).data
        distinct = self.distinct_items(hists[:3])
        assert sorted(computed) == sorted(distinct)
        assert model.items.n_gate_rows == len(distinct)
        with Tape():
            assert np.array_equal(got, batch_user_embeddings(model, hists[:3], [0, 1, 2]).data)

    @pytest.mark.parametrize("change, encoder", [
        (_edit_lstm, "lstm"), (_edit_attn_v, "attn"), (_replace_data, "lstm"), (_change_k, "lstm"),
    ])
    def test_other_changes_keep_gate_rows(
        self, tiny_corpus, monkeypatch, tmp_path, change, encoder
    ):
        model = tiny_model(tiny_corpus, user_encoder=encoder)
        hists = [s.history for s in tiny_corpus.samples[:20]]
        idx = list(range(20))
        before = batch_user_embeddings(model, hists, idx).data
        held = model.items.n_gate_rows
        change(model, tmp_path)
        computed = self.recording(monkeypatch)
        got = batch_user_embeddings(model, hists, idx).data
        assert computed == [] and model.items.n_gate_rows == held
        assert not np.array_equal(got, before)
        with Tape():
            assert np.array_equal(got, batch_user_embeddings(model, hists, idx).data)

    def test_per_sample_gate_leaves_store_untouched(self, tiny_corpus, monkeypatch):
        model = tiny_model(tiny_corpus)
        samples = tiny_corpus.samples[:ENCODE_CHUNK]
        evaluate(model, samples)  # a warm store, holding every item of these histories
        held = model.items.n_gate_rows
        history = samples[0].history
        reads = []
        monkeypatch.setattr(model.items, "gate_rows", lambda *args: reads.append(args))
        with nm.count_flops() as counter:
            user_embedding(model, history, 0)
        gate_history(history, model, 0)
        user_keywords(model, history, 0)
        assert reads == [] and model.items.n_gate_rows == held
        dims = ModelDims(
            d=model.trans.d, layers=len(model.trans.layers), heads=model.trans.heads,
            n_filters=model.gate.n_filters, window=model.gate.window, k=model.k,
            item_len=len(history.items[0]),
        )
        predicted = user_side_flops(dims, len(history), gated=True)
        # the tolerance perfbench's FLOP-model check allows
        assert abs(counter.flops - predicted) / predicted <= 0.05


class TestEncodeCandidateRows:
    def test_matches_one_call_in_input_order(self, tiny_corpus):
        from concurrent.futures import ThreadPoolExecutor

        model = tiny_model(tiny_corpus)
        seqs = [seq for s in tiny_corpus.samples[:30] for seq in (s.positive, *s.negatives)]
        assert len(seqs) > 2 * 32
        whole = encode_candidates(seqs, model.trans).data
        np.testing.assert_allclose(encode_candidate_rows(seqs, model.trans), whole, rtol=0, atol=1e-12)
        with ThreadPoolExecutor(max_workers=3) as pool:
            pooled = encode_candidate_rows(seqs, model.trans, pool.map)
        np.testing.assert_array_equal(pooled, encode_candidate_rows(seqs, model.trans))


class TestSplitSamples:
    def test_deterministic_and_disjoint(self, tiny_corpus):
        a_tr, a_va = split_samples(tiny_corpus.samples, 0.25, seed=3)
        b_tr, b_va = split_samples(tiny_corpus.samples, 0.25, seed=3)
        assert [id(s) for s in a_tr] == [id(s) for s in b_tr]
        assert len(a_va) == round(0.25 * len(tiny_corpus.samples))
        assert len(a_tr) + len(a_va) == len(tiny_corpus.samples)
