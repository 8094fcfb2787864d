import copy
import dataclasses
import math
import threading

import numpy as np
import pytest

from gateformer import numerics as nm
from gateformer.efficiency import ModelDims, user_side_flops
from gateformer.gating import gate_groups, item_features
from gateformer.numerics import Tape, backward, tensor
from gateformer.cli import build_model
from gateformer.config import SynthConfig, load_config
from gateformer.recall import build_index
from gateformer.text import TokenSequence, UserHistory, synth_corpus_full
from gateformer.training import (
    ENCODE_CHUNK,
    OptimState,
    adam_step,
    batch_loss,
    batch_user_embeddings,
    clip_gradients,
    evaluate,
    gate_history,
    lr_at,
    rank_metrics,
    same_bits,
    split_samples,
    train,
    user_embedding,
    user_keywords,
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
    item_views,
    mrr_oracle,
    ndcg_oracle,
    rel_err,
    sample_loss,
    select_history_oracle,
    user_embedding_oracle,
)


@pytest.fixture(scope="module")
def tiny_corpus():
    return synth_corpus_full(SynthConfig(
        users=24, items=64, topics=4, tokens_per_item=10, signals=2, distractors=0,
        filler_pool=30, history_len=3, impressions_per_user=3, val_fraction=0.25,
    ), seed=21, k_neg=4)


def train_val(corpus):
    """The corpus's training and validation samples."""
    return ([corpus.samples[i] for i in corpus.train_indices],
            [corpus.samples[i] for i in corpus.val_indices])


def rows_held(rows):
    """Rows one kind of an item store holds, over its tables."""
    return sum(len(table.at) for table in rows.tables.values())


def candidate_rows_held(model):
    """Candidates whose rows the model's item store holds."""
    return rows_held(model.items._candidates)


def gate_rows_held(model):
    """History items whose gate features the model's item store holds."""
    return rows_held(model.items._gate)


def tiny_config(seed=0, k=2, method="learned", user_encoder="lstm", max_positions=30):
    return load_config(None, [
        "model.d=16", "model.layers=1", "model.heads=2", f"model.max_positions={max_positions}",
        "gate.filters=8", "gate.window=1", f"gate.k={k}", f"gate.method={method}",
        f"gate.user_encoder={user_encoder}", f"train.seed={seed}",
    ])


def tiny_model(corpus, method="learned", seed=0, k=2, user_encoder="lstm"):
    cfg = tiny_config(seed, k, method, user_encoder)
    return build_model(cfg, len(corpus.vocab), build_index(corpus.news))




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
    """``rank_metrics`` on (G, C) score rows whose column 0 is the positive."""

    def test_positive_first_of_five(self):
        rows = rank_metrics(np.array([[5.0, 1.0, 2.0, 3.0, 0.5]]))
        assert rows.tolist() == [[1.0, 1.0, 1.0, 1.0]]

    def test_positive_last_of_two(self):
        auc, mrr, ndcg5, ndcg10 = rank_metrics(np.array([[1.0, 2.0]]))[0]
        assert (auc, mrr) == (0.0, 0.5)
        assert ndcg5 == ndcg10 == 1.0 / math.log2(3)

    def test_ties_count_half(self):
        auc, mrr, _, _ = rank_metrics(np.array([[1.0, 1.0]]))[0]
        assert (auc, mrr) == (0.5, 1.0)  # a tie ranks after the positive

    def test_random_fixtures_match_brute_force_oracles(self):
        rng = np.random.default_rng(7)
        ranks, tied_ranks = set(), set()
        for C in range(2, 13):
            for _ in range(20):
                G = int(rng.integers(1, 6))
                z = rng.choice(np.arange(-3, 4), size=(G, C)).astype(float)
                for row in z:
                    if rng.random() < 0.25:  # sink the positive below every negative
                        row[0] = row[1:].min() - 0.5
                    if rng.random() < 0.5:  # then tie one or two negatives with it
                        tied = min(int(rng.integers(1, 3)), C - 1)
                        row[1 + rng.choice(C - 1, size=tied, replace=False)] = row[0]
                rows = rank_metrics(z)
                assert rows.shape == (G, 4)
                labels = [1] + [0] * (C - 1)
                for scores, got in zip(z.tolist(), rows.tolist()):
                    want = [
                        auc_oracle(scores, labels),
                        mrr_oracle(scores, labels),
                        ndcg_oracle(scores, labels, 5),
                        ndcg_oracle(scores, labels, 10),
                    ]
                    assert got == want
                    rank = round(1.0 / got[1])
                    ranks.add(rank)
                    if scores.count(scores[0]) > 1:
                        tied_ranks.add(rank)
        assert ranks == set(range(1, 13))
        assert max(tied_ranks) > 10


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
                loss = nm.mul(sample_loss(model, samples[i], i), nm.constant(1.0 / len(idxs)))
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

    def test_user_embeddings_match(self, tiny_corpus):
        samples = tiny_corpus.samples[:5]
        model = tiny_model(tiny_corpus)
        batched = batch_user_embeddings(
            model, [s.history for s in samples], list(range(len(samples)))
        ).data
        for i, s in enumerate(samples):
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
        model = build_model(
            tiny_config(max_positions=4), len(tiny_corpus.vocab), build_index(tiny_corpus.news)
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

    # the gate scores tokens; test ids name that after the selector and encoder
    @pytest.mark.parametrize("method,encoder", [
        pytest.param(method, encoder, id=f"{method}-{encoder}-token")
        for method, encoder in [("learned", "lstm"), ("learned", "attn"), ("first", "lstm"),
                                ("bm25", "lstm"), ("random", "attn")]
    ])
    def test_embedding_and_keywords(self, tiny_corpus, method, encoder):
        model = tiny_model(tiny_corpus, method, user_encoder=encoder)
        samples = tiny_corpus.samples[:6]
        exact = method != "learned"
        for i, s in enumerate(samples):
            u = user_embedding(model, s.history, i).data
            concat = encode_user_oracle(item_views(gate_history(s.history, model, i)), model.trans)
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
            eval_interval=200, log_interval=50, clip_norm=0.0, threads=1, out_dir=tmp_path,
        )
        assert res.history == []
        loaded = load_checkpoint(tmp_path / "best")
        for k, v in before.items():
            assert np.array_equal(loaded[k], v)

    def test_training_is_deterministic(self, tiny_corpus):
        def run():
            model = tiny_model(tiny_corpus)
            tr, va = train_val(tiny_corpus)
            res = train(
                model, tr, va, steps=8, batch_size=4, peak_lr=1e-3,
                warmup=2, seed=5, eval_interval=4, log_interval=0, clip_norm=0.0, threads=1,
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
            tr, _ = train_val(tiny_corpus)
            with caplog.at_level("INFO", logger="gateformer.training"):
                train(model, tr, [], steps=4, batch_size=4, peak_lr=1e-3, warmup=2,
                      seed=5, eval_interval=200, log_interval=log_interval,
                      clip_norm=clip_norm, threads=1)
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
        tr, va = train_val(tiny_corpus)
        res = train(
            model, tr, va, steps=60, batch_size=8, peak_lr=2e-3,
            warmup=10, seed=0, eval_interval=30, log_interval=0, clip_norm=0.0, threads=1,
        )
        start = np.mean(res.losses[:5])
        end = np.mean(res.losses[-5:])
        assert end < start
        assert end < math.log(5)

    def test_best_checkpoint_retained(self, tiny_corpus, tmp_path):
        model = tiny_model(tiny_corpus)
        tr, va = train_val(tiny_corpus)
        res = train(
            model, tr, va, steps=20, batch_size=4, peak_lr=2e-3,
            warmup=5, seed=1, eval_interval=10, log_interval=0, clip_norm=0.0, threads=1,
            out_dir=tmp_path,
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
        tr, va = train_val(tiny_corpus)
        train(
            model, tr, va, steps=6, batch_size=4, peak_lr=5e-3,
            warmup=1, seed=0, eval_interval=0, log_interval=0, clip_norm=0.0, threads=1,
        )
        for k, v in model.gate.named_tensors().items():
            assert np.array_equal(v.data, gate_before[k]), k

    @pytest.mark.parametrize("eval_interval, n_val", [(0, 4), (2, 0)])
    def test_without_evaluation_keeps_the_final_parameters(
        self, tiny_corpus, tmp_path, eval_interval, n_val
    ):
        def run(val, interval, out_dir=None):
            model = tiny_model(tiny_corpus)
            initial = {k: v.data.copy() for k, v in model.named_tensors().items()}
            res = train(
                model, tiny_corpus.samples[:8], val, steps=5, batch_size=4,
                peak_lr=1e-3, warmup=2, seed=0, eval_interval=interval,
                log_interval=0, clip_norm=0.0, threads=1, out_dir=out_dir,
            )
            return res, initial

        res, initial = run(tiny_corpus.samples[8:8 + n_val], eval_interval, tmp_path)
        assert res.final_report is None and res.history == []
        # one evaluation, at the last step, retains the final parameters
        ref, _ = run(tiny_corpus.samples[8:12], 5)
        assert ref.best_step == 5
        trained = {k: v.data for k, v in ref.model.named_tensors().items()}
        assert any(not np.array_equal(trained[k], v) for k, v in initial.items())
        loaded = load_checkpoint(tmp_path / "best")
        for k, v in res.model.named_tensors().items():
            assert np.array_equal(v.data, trained[k]), k
            assert np.array_equal(loaded[k], trained[k]), k


class TestEvaluate:
    def test_report_fields_in_range(self, tiny_corpus):
        model = tiny_model(tiny_corpus)
        report = evaluate(model, tiny_corpus.samples[:10], threads=1)
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
        "case", ["learned", "first", "random", "ragged", "no_ids", "copies"]
    )
    def test_matches_per_impression_oracle(self, tiny_corpus, case, threads):
        model, samples = self.oracle_case(tiny_corpus, case)
        report = evaluate(model, samples, threads=threads)
        assert report.n_impressions == len(samples)
        assert report.row() == pytest.approx(evaluate_oracle(model, samples), abs=1e-12)

    def test_empty_rejected(self, tiny_corpus):
        with pytest.raises(ValueError):
            evaluate(tiny_model(tiny_corpus), [], threads=1)

    def test_impression_without_negatives_rejected(self, tiny_corpus):
        samples = list(tiny_corpus.samples[:5])
        samples[2] = dataclasses.replace(samples[2], negatives=[], negative_ids=[])
        with pytest.raises(ValueError, match="impression 2 has no negatives"):
            evaluate(tiny_model(tiny_corpus), samples, threads=1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_score_names_first_impression(self, tiny_corpus, monkeypatch, value):
        import gateformer.training as training

        # ragged impression i holds 1 + i % 4 negatives: impression 3's group
        # (4 negatives) is scored after impression 6's (3), and 40 is in the
        # second chunk
        model, samples = self.oracle_case(tiny_corpus, "ragged")
        unpoisoned = training.batch_user_embeddings

        def poisoned(model, histories, sample_indices):
            data = unpoisoned(model, histories, sample_indices).data.copy()
            for row, i in enumerate(sample_indices):
                if i in (3, 6, 40):
                    data[row, 1] = value
            return nm.constant(data)

        monkeypatch.setattr(training, "batch_user_embeddings", poisoned)
        with pytest.raises(ValueError, match=r"non-finite score in impression 3$"):
            evaluate(model, samples, threads=1)

    def test_encoder_calls_bounded_and_candidates_encoded_once(self, tiny_corpus, monkeypatch):
        import gateformer.training as training

        calls = []

        def recording(seqs, params):
            calls.append([tuple(seq.ids) for seq in seqs])
            return encode_candidates(seqs, params)

        monkeypatch.setattr(training, "encode_candidates", recording)
        samples = tiny_corpus.samples[:20] + copy.deepcopy(tiny_corpus.samples[:25])
        evaluate(tiny_model(tiny_corpus), samples, threads=1)
        encoded = [key for call in calls for key in call]
        distinct = {tuple(seq.ids) for s in samples for seq in (s.positive, *s.negatives)}
        assert sorted(encoded) == sorted(distinct)
        assert len(calls) > 1 and all(len(call) <= training.ENCODE_CHUNK for call in calls)

    def test_reads_the_store_once_per_slice(self, tiny_corpus, monkeypatch):
        model, samples = self.oracle_case(tiny_corpus, "ragged")
        reads = []
        rows = model.items.rows

        def recording(seqs, params):
            reads.append(seqs)
            return rows(seqs, params)

        monkeypatch.setattr(model.items, "rows", recording)
        evaluate(model, samples, threads=1)
        slices = [samples[i:i + ENCODE_CHUNK] for i in range(0, len(samples), ENCODE_CHUNK)]
        assert len(slices) > 1
        assert reads == [[seq for s in part for seq in (s.positive, *s.negatives)] for part in slices]


def _adam(model, tmp_path):
    named = model.trainable_tensors()
    for p in named.values():
        p.grad = np.full_like(p.data, 0.1)
    adam_step(named, OptimState(peak_lr=0.01, warmup_steps=0, total_steps=10))


def _load_other_checkpoint(model, tmp_path):
    other = build_model(tiny_config(seed=99), model.trans.word_embeddings.data.shape[0], None)
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
        evaluate(model, tiny_corpus.samples[:10], threads=1)
        assert candidate_rows_held(model) > 0
        # equal parameters, its own store
        assert candidate_rows_held(tiny_model(tiny_corpus)) == 0

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
        assert encoded == distinct and candidate_rows_held(model) == len(distinct)

    @pytest.mark.parametrize("change", [_adam, _load_other_checkpoint, _edit_word_row, _replace_data])
    def test_parameter_change_drops_every_row(self, tiny_corpus, monkeypatch, tmp_path, change):
        model = tiny_model(tiny_corpus)
        seqs = self.candidates(tiny_corpus)
        stale = model.items.rows(seqs, model.trans)
        change(model, tmp_path)
        encoded = self.counting(monkeypatch)
        fresh = model.items.rows(seqs[:3], model.trans)
        assert candidate_rows_held(model) == len(encoded) == len({tuple(s.ids) for s in seqs[:3]})
        np.testing.assert_array_equal(fresh, encode_candidates(seqs[:3], model.trans).data)
        assert not np.array_equal(fresh, stale[:3])

    def test_k_and_gate_method_keep_rows(self, tiny_corpus, monkeypatch):
        model = tiny_model(tiny_corpus)
        samples = tiny_corpus.samples[:20]
        evaluate(model, samples, threads=1)
        held = candidate_rows_held(model)
        encoded = self.counting(monkeypatch)
        model.k, model.gate_method = 1, "first"
        evaluate(model, samples, threads=1)
        assert encoded == [] and candidate_rows_held(model) == held

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
            warm.items.rows(seqs, warm.trans),
            cold.items.rows(seqs, cold.trans), rtol=0, atol=1e-12,
        )

    def test_equal_ids_in_two_objects_share_one_row(self, tiny_corpus, monkeypatch):
        encoded = self.counting(monkeypatch)
        model = tiny_model(tiny_corpus)
        history = tiny_corpus.samples[0].history
        copies = [TokenSequence(seq.ids.tolist()) for seq in history.items]
        assert all(c is not s and c.ids is not s.ids for c, s in zip(copies, history.items))
        rows = model.items.rows([history.items[0], copies[0]], model.trans)
        assert candidate_rows_held(model) == len(encoded) == 1 and np.array_equal(rows[0], rows[1])
        both = batch_user_embeddings(model, [history, UserHistory(copies)], [0, 1]).data
        assert gate_rows_held(model) == len({seq.key for seq in history.items})
        assert np.array_equal(both[0], both[1])

    def test_rows_match_one_encode_candidates_call_in_input_order(self, tiny_corpus):
        model = tiny_model(tiny_corpus)
        news = list(tiny_corpus.news.values())
        distinct = news + [TokenSequence(seq.ids[::-1]) for seq in news]
        assert len({tuple(seq.ids) for seq in distinct}) > 2 * ENCODE_CHUNK
        seqs = distinct[::-1] + distinct[::3]
        whole = encode_candidates(seqs, model.trans).data
        np.testing.assert_allclose(model.items.rows(seqs, model.trans), whole, rtol=0, atol=1e-12)

    def test_threads_match_single_on_a_warm_store(self, tiny_corpus):
        model = tiny_model(tiny_corpus)
        samples = tiny_corpus.samples[:70]
        evaluate(model, samples[:30], threads=1)
        assert evaluate(model, samples, threads=3) == evaluate(model, samples, threads=1)


def ragged_with_id0(samples):
    """The samples with each history item cut to 7-10 tokens and, in every
    third item, its last two tokens set to id 0, an ordinary token that
    repeats there."""
    out = []
    for i, s in enumerate(samples):
        items = []
        for j, seq in enumerate(s.history.items):
            n = len(seq) - (i + j) % 4
            ids = list(seq.ids[:n])
            if (i + j) % 3 == 0:
                ids[-2:] = [0, 0]
            items.append(TokenSequence(ids))
        out.append(dataclasses.replace(s, history=UserHistory(items)))
    return out


def _edit_filters(model, tmp_path):
    model.gate.filters.data[0, 0] += 1e-3


def _edit_pool_v(model, tmp_path):
    model.gate.pool_v.data[0] += 1e-3


def _replace_conv_bias(model, tmp_path):
    model.gate.bias.data = model.gate.bias.data + 1e-3


def _edit_lstm(model, tmp_path):
    model.gate.lstm_w_ih.data[0, 0] += 1e-2


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
            for ctx3, pooled in (item_features(params, ids) for _, ids in groups)
        ]
        return model

    @staticmethod
    def distinct_items(histories):
        return list(dict.fromkeys(tuple(seq.ids) for h in histories for seq in h.items))

    @pytest.mark.parametrize("threads", [1, 3])
    # the gate scores tokens; test ids name that after the user encoder
    @pytest.mark.parametrize("encoder", ["lstm", "attn"], ids=lambda e: f"{e}-token")
    def test_cold_warm_and_uncached_agree(self, tiny_corpus, encoder, threads):
        samples = ragged_with_id0(tiny_corpus.samples[:45])
        hists = [s.history for s in samples]
        assert len({len(seq) for h in hists for seq in h.items}) == 4
        assert any(0 in seq.ids for h in hists for seq in h.items)
        idx = list(range(len(hists)))

        def fresh():
            return tiny_model(tiny_corpus, user_encoder=encoder)

        with Tape():
            taped = batch_user_embeddings(fresh(), hists, idx).data
        model = fresh()
        cold = batch_user_embeddings(model, hists, idx).data
        assert gate_rows_held(model) == len(self.distinct_items(hists))
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
        assert gate_rows_held(model) == len(self.distinct_items(hists))
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
        assert gate_rows_held(cold) == 0
        warm = tiny_model(tiny_corpus)
        evaluate(warm, samples, threads=1)
        held = gate_rows_held(warm)
        assert held > 0
        reads = []
        monkeypatch.setattr(warm.items, "gate_rows", lambda *args: reads.append(args))
        nodes, loss, grads = step(warm)
        assert reads == [] and gate_rows_held(warm) == held
        assert (nodes, loss) == want[:2]
        for name, grad in want[2].items():
            other = grads[name]
            assert (grad is None and other is None) or np.array_equal(grad, other), name
        # the gate itself refuses a store while a tape records
        with Tape(), pytest.raises(ValueError, match="tape"):
            gate_groups([samples[0].history], warm.gate, warm.k, warm.gate_method, store=warm.items)

    def test_each_distinct_item_computed_once_per_fingerprint(self, tiny_corpus, monkeypatch):
        computed = self.recording(monkeypatch)
        samples = ragged_with_id0(tiny_corpus.samples[:45])
        hists = [s.history for s in samples]
        model = tiny_model(tiny_corpus)
        batch_user_embeddings(model, hists[:20], list(range(20)))
        batch_user_embeddings(model, hists[10:], list(range(10, 45)))
        evaluate(model, samples, threads=3)
        distinct = self.distinct_items(hists)
        assert len(distinct) < sum(len(h) for h in hists)
        assert sorted(computed) == sorted(distinct)
        assert gate_rows_held(model) == len(distinct)
        _adam(model, None)
        computed.clear()
        evaluate(model, samples, threads=3)
        assert sorted(computed) == sorted(distinct)

    @pytest.mark.parametrize("method", ["first", "bm25", "random"])
    def test_heuristic_selectors_skip_the_store(self, tiny_corpus, monkeypatch, method):
        computed = self.recording(monkeypatch)
        model = tiny_model(tiny_corpus, method)
        evaluate(model, tiny_corpus.samples[:20], threads=1)
        assert computed == [] and gate_rows_held(model) == 0

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
        assert gate_rows_held(model) == len(distinct)
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
        held = gate_rows_held(model)
        change(model, tmp_path)
        computed = self.recording(monkeypatch)
        got = batch_user_embeddings(model, hists, idx).data
        assert computed == [] and gate_rows_held(model) == held
        assert not np.array_equal(got, before)
        with Tape():
            assert np.array_equal(got, batch_user_embeddings(model, hists, idx).data)

    def test_per_sample_gate_leaves_store_untouched(self, tiny_corpus, monkeypatch):
        model = tiny_model(tiny_corpus)
        samples = tiny_corpus.samples[:ENCODE_CHUNK]
        evaluate(model, samples, threads=1)  # a warm store, holding every item of these histories
        held = gate_rows_held(model)
        history = samples[0].history
        reads = []
        monkeypatch.setattr(model.items, "gate_rows", lambda *args: reads.append(args))
        with nm.count_flops() as counter:
            user_embedding(model, history, 0)
        gate_history(history, model, 0)
        user_keywords(model, history, 0)
        assert reads == [] and gate_rows_held(model) == held
        dims = ModelDims(
            d=model.trans.d, layers=len(model.trans.layers), heads=model.trans.heads,
            n_filters=model.gate.n_filters, window=model.gate.window, k=model.k,
            item_len=len(history.items[0]),
        )
        predicted = user_side_flops(dims, len(history), gated=True)
        # the tolerance perfbench's FLOP-model check allows
        assert abs(counter.flops - predicted) / predicted <= 0.05


class TestSnapshotCheck:
    """Each row kind keeps a private copy of the tensors it reads and drops
    its rows when a tensor's shape or bits differ from that copy."""

    def test_same_bits_compares_shape_and_bit_pattern(self):
        a = np.arange(6.0)
        assert same_bits(a, a.copy())
        assert not same_bits(a, a.reshape(2, 3).copy())
        assert not same_bits(np.zeros(3), np.array([0.0, -0.0, 0.0]))
        nan = np.array([1.0, np.nan])
        assert same_bits(nan, nan.copy())
        other_payload = nan.copy()
        other_payload.view(np.int64)[1] += 1
        assert np.isnan(other_payload[1]) and not same_bits(nan, other_payload)

    @staticmethod
    def warm(corpus, monkeypatch):
        """A model whose store holds the rows of a few samples, with one
        ``embed.word`` entry at 0.0, and the records of what it computes
        from then on: (candidate ids, gate item ids)."""
        model = tiny_model(corpus)
        model.gate.word_embeddings.data[5, 0] = 0.0
        samples = corpus.samples[:6]
        evaluate(model, samples, threads=1)
        assert candidate_rows_held(model) > 0 and gate_rows_held(model) > 0
        return model, samples, TestItemStore.counting(monkeypatch), TestGateRows.recording(monkeypatch)

    def test_negative_zero_drops_both_kinds(self, tiny_corpus, monkeypatch):
        model, samples, encoded, computed = self.warm(tiny_corpus, monkeypatch)
        model.gate.word_embeddings.data[5, 0] = -0.0
        evaluate(model, samples, threads=1)
        assert len(encoded) == candidate_rows_held(model) and len(computed) == gate_rows_held(model)

    def test_one_check_per_gate_rows_call(self, tiny_corpus, monkeypatch):
        import gateformer.training as training

        by_length = {}
        for s in ragged_with_id0(tiny_corpus.samples[:12]):
            for seq in s.history.items:
                by_length.setdefault(len(seq), []).append(seq)
        groups = [([seq.key for seq in seqs], np.stack([seq.ids for seq in seqs]))
                  for seqs in by_length.values()]
        assert len(groups) == 4
        model = tiny_model(tiny_corpus)
        cold = model.items.gate_rows(groups, model.gate)
        checks = []

        def counting(array, copy):
            checks.append(array.shape)
            return same_bits(array, copy)

        monkeypatch.setattr(training, "same_bits", counting)
        warm = model.items.gate_rows(groups, model.gate)
        # embed.word, filters, bias and pool_v, once for the whole call
        assert len(checks) == 4
        for (_, ids), cold_rows, warm_rows in zip(groups, cold, warm):
            want = [t.data for t in item_features(model.gate, ids)]
            for got in (cold_rows, warm_rows):
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_nan_drops_gate_rows_once(self, tiny_corpus, monkeypatch):
        model, samples, encoded, computed = self.warm(tiny_corpus, monkeypatch)
        items = [seq for s in samples for seq in s.history.items]
        groups = [([seq.key for seq in items], np.stack([seq.ids for seq in items]))]
        model.gate.pool_v.data[0] = np.nan
        first = model.items.gate_rows(groups, model.gate)
        assert len(computed) == gate_rows_held(model)
        assert np.isnan(first[0][1]).all()
        computed.clear()
        again = model.items.gate_rows(groups, model.gate)
        assert computed == [] and np.array_equal(again[0][0], first[0][0])
        assert encoded == []

    def test_equal_bits_in_new_arrays_keep_rows(self, tiny_corpus, monkeypatch):
        model, samples, encoded, computed = self.warm(tiny_corpus, monkeypatch)
        for t in (model.trans.pool_q, model.gate.filters, model.gate.word_embeddings):
            t.data = t.data.copy()
        evaluate(model, samples, threads=1)
        assert encoded == [] and computed == []


class _FirstCallBlocks:
    """A stand-in for a row computation that records the token ids of every
    item it makes and, once armed, blocks its first call until released."""

    def __init__(self, fn, ids_of):
        self.fn, self.ids_of = fn, ids_of
        self.made: list[tuple] = []
        self.armed = False
        self.started, self.release = threading.Event(), threading.Event()

    def __call__(self, *args):
        self.made.extend(self.ids_of(*args))
        if self.armed and not self.started.is_set():
            self.started.set()
            assert self.release.wait(10)
        return self.fn(*args)


class TestStoreLock:
    """Two threads read one row kind at once: the first thread's computation
    blocks until released, the second thread asks for rows the first is
    computing and rows of its own, and the table grows past its capacity
    while the second read is under way."""

    @staticmethod
    def race(read, items, compute):
        """Fills a table with items[:20], then reads items[:40] on one thread
        and items[30:] on another, releasing the first thread's computation
        only after the second read has had half a second."""
        read(items[:20])
        compute.made.clear()
        compute.armed = True
        got = {}
        one = threading.Thread(target=lambda: got.update(one=read(items[:40])))
        two = threading.Thread(target=lambda: got.update(two=read(items[30:])))
        one.start()
        assert compute.started.wait(10)
        two.start()
        two.join(0.5)  # with the lock, the second read waits for the first
        compute.release.set()
        one.join(10)
        two.join(10)
        assert not one.is_alive() and not two.is_alive()
        return got["one"], got["two"]

    @staticmethod
    def news(corpus):
        seqs = list(corpus.news.values())[:60]
        assert len({tuple(seq.ids) for seq in seqs}) == 60
        return seqs

    def test_candidate_rows(self, tiny_corpus, monkeypatch):
        import gateformer.training as training

        model = tiny_model(tiny_corpus)
        seqs = self.news(tiny_corpus)
        compute = _FirstCallBlocks(
            encode_candidates, lambda part, params: [tuple(seq.ids) for seq in part]
        )
        monkeypatch.setattr(training, "encode_candidates", compute)
        one, two = self.race(lambda part: model.items.rows(part, model.trans), seqs, compute)
        assert np.array_equal(one, encode_candidates(seqs[:40], model.trans).data)
        assert np.array_equal(two, encode_candidates(seqs[30:], model.trans).data)
        assert sorted(compute.made) == sorted(tuple(seq.ids) for seq in seqs[20:])
        assert candidate_rows_held(model) == 60

    def test_gate_rows(self, tiny_corpus, monkeypatch):
        import gateformer.training as training

        model = tiny_model(tiny_corpus)
        seqs = self.news(tiny_corpus)
        ids = np.stack([seq.ids for seq in seqs])
        compute = _FirstCallBlocks(item_features, lambda params, part: list(map(tuple, part.tolist())))
        monkeypatch.setattr(training, "item_features", compute)

        def read(part):
            group = ([seq.key for seq in part], np.stack([seq.ids for seq in part]))
            return model.items.gate_rows([group], model.gate)[0]

        one, two = self.race(read, seqs, compute)
        for got, part in ((one, ids[:40]), (two, ids[30:])):
            want = item_features(model.gate, part)
            assert all(np.array_equal(a, b.data) for a, b in zip(got, want))
        assert sorted(compute.made) == sorted(map(tuple, ids[20:].tolist()))
        assert gate_rows_held(model) == 60


class TestSplitSamples:
    def test_deterministic_and_disjoint(self, tiny_corpus):
        a_tr, a_va = split_samples(tiny_corpus.samples, 0.25, seed=3)
        b_tr, b_va = split_samples(tiny_corpus.samples, 0.25, seed=3)
        assert [id(s) for s in a_tr] == [id(s) for s in b_tr]
        assert len(a_va) == round(0.25 * len(tiny_corpus.samples))
        assert len(a_tr) + len(a_va) == len(tiny_corpus.samples)
