import numpy as np
import pytest

from gateformer import numerics as nm
from gateformer.efficiency import (
    AccelReport,
    CostModel,
    ModelDims,
    acceleration_ratio,
    bench,
    flops_gate,
    flops_transformer,
    keyword_position_histogram,
    measure_speedup,
    transformer_linear_coeff,
    transformer_quadratic_coeff,
    user_side_flops,
)
from gateformer.gating import gate_groups
from gateformer.text import TokenSequence, UserHistory, corpus_stats, synth_corpus_full
from gateformer.training import Model, gate_history, init_model
from gateformer.transformer import encode_candidate
from oracles import select_history_oracle


def dims_of(model: Model, k: int, item_len: int) -> ModelDims:
    return ModelDims(
        d=model.trans.d,
        layers=len(model.trans.layers),
        heads=model.trans.heads,
        n_filters=model.gate.n_filters,
        window=model.gate.window,
        k=k,
        item_len=item_len,
    )


def make_history(rng, n_items, length, vocab_size):
    items = [
        TokenSequence(
            rng.choice(np.arange(1, vocab_size), size=length, replace=False).tolist(),
            list(range(length)),
            [0] * length,
        )
        for _ in range(n_items)
    ]
    return UserHistory(items)


class TestFlopsGate:
    def test_zero_tokens_is_zero(self):
        dims = ModelDims(d=16, layers=1, heads=2, n_filters=8, window=1, k=3, item_len=10)
        assert flops_gate(dims, 0) == 0.0

    def test_doubling_tokens_doubles_conv_term(self):
        dims = ModelDims(d=16, layers=1, heads=2, n_filters=8, window=1, k=3, item_len=10)
        assert flops_gate(dims, 40) == pytest.approx(2 * flops_gate(dims, 20), abs=1e-9)

    @pytest.mark.parametrize(
        "d,n_f,w,k,L,N",
        [(16, 8, 1, 3, 10, 4), (32, 16, 2, 2, 12, 3), (8, 8, 1, 4, 6, 5)],
    )
    def test_matches_instrumented_counter(self, d, n_f, w, k, L, N):
        rng = np.random.default_rng(d + n_f)
        model = init_model(
            vocab_size=64, d=d, n_layers=1, heads=2, max_positions=N * L,
            n_filters=n_f, window=w, seed=3, k=k,
        )
        history = make_history(rng, N, L, 64)
        with nm.count_flops() as counter:
            gate_groups([history], model.gate, k)
        analytic = flops_gate(dims_of(model, k, L), N * L)
        assert abs(counter.flops - analytic) / counter.flops < 0.05


class TestFlopsTransformer:
    def test_quadratic_term_quadruples(self):
        dims = ModelDims(d=16, layers=2, heads=2, n_filters=8, window=1, k=3, item_len=10)
        n = 12
        quad = transformer_quadratic_coeff(dims)
        lin = flops_transformer(dims, n) - quad * n * n
        lin2 = flops_transformer(dims, 2 * n) - quad * 4 * n * n
        assert lin2 == pytest.approx(2 * lin, abs=1e-9)  # the rest is linear
        f_n = flops_transformer(dims, n)
        f_2n = flops_transformer(dims, 2 * n)
        assert f_2n > 2 * f_n  # strictly superlinear

    def test_single_token_single_layer_hand_expansion(self):
        d, H = 16, 2
        dims = ModelDims(d=d, layers=1, heads=H, n_filters=8, window=1, k=3, item_len=10)
        expected = (
            8 * d * d + 4 * d          # attention projections + scores/values at n=1
            + 16 * d * d               # ffn
            + 6 * H + 29 * d           # softmax/scale + norm/bias/relu/residual terms
            + 5 * d + 5                # positions + pooling
        )
        assert flops_transformer(dims, 1) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("layers,n,d", [(2, 8, 16), (1, 5, 8), (3, 12, 32)])
    def test_matches_instrumented_counter(self, layers, n, d):
        rng = np.random.default_rng(layers * 100 + n)
        model = init_model(
            vocab_size=64, d=d, n_layers=layers, heads=2, max_positions=n,
            n_filters=8, window=1, seed=5, k=3,
        )
        seq = TokenSequence(
            rng.choice(np.arange(1, 64), size=n, replace=False).tolist(),
            list(range(n)), [0] * n,
        )
        with nm.count_flops() as counter:
            encode_candidate(seq, model.trans)
        dims = dims_of(model, 3, n)
        analytic = flops_transformer(dims, n)
        assert abs(counter.flops - analytic) / counter.flops < 0.05


class TestAccelerationRatio:
    def test_no_compression_tiny_gate_cost_gives_one(self):
        cm = CostModel(lambda1=1e-9, lambda2=100.0, quad=1.0, i_org=300, i_flt=300)
        report = acceleration_ratio(cm)
        assert report.gamma == pytest.approx(1.0, abs=1e-6)

    def test_bound_arithmetic(self):
        cm = CostModel(lambda1=1.0, lambda2=100.0, quad=0.5, i_org=100, i_flt=10)
        report = acceleration_ratio(cm)
        assert report.lower_bound == pytest.approx(1 / 0.11, rel=1e-12)
        assert report.gamma > report.lower_bound

    def test_k3_l30_compression_is_tenfold(self):
        dims = ModelDims(d=64, layers=2, heads=4, n_filters=32, window=1, k=3, item_len=30)
        cm = CostModel.from_dims(dims, n_items=50)
        assert cm.compression == 10.0
        report = acceleration_ratio(cm)
        assert report.compression == 10.0
        assert report.gamma > 1.0

    def test_gamma_exceeds_bound_on_grid(self):
        for d in (16, 64):
            for k in (1, 3, 10):
                for L in (20, 30):
                    dims = ModelDims(d=d, layers=2, heads=4, n_filters=16, window=1, k=k, item_len=L)
                    cm = CostModel.from_dims(dims, n_items=10)
                    report = acceleration_ratio(cm)
                    assert report.gamma > report.lower_bound

    def test_filtered_larger_than_original_rejected(self):
        with pytest.raises(ValueError):
            CostModel(lambda1=1.0, lambda2=2.0, quad=0.0, i_org=10, i_flt=20)


class TestBench:
    @pytest.fixture
    def setup(self):
        rng = np.random.default_rng(9)
        corpus = synth_corpus_full(
            seed=9, n_users=6, n_items=48, n_topics=3, tokens_per_item=10,
            n_signal=2, filler_pool=30, history_len=3, impressions_per_user=2,
        )
        model = init_model(
            vocab_size=len(corpus.vocab), d=16, n_layers=1, heads=2,
            max_positions=30, n_filters=8, window=1, seed=0, k=3,
        )
        return model, corpus.samples

    def test_single_k_single_row(self, setup):
        model, samples = setup
        rows = bench(model, samples[:4], [2], repeats=3)
        assert len(rows) == 1
        assert set(rows[0]) == {"k", "wall_time_per_user", "flops", "auc"}

    def test_flops_monotone_in_k(self, setup):
        model, samples = setup
        rows = bench(model, samples[:4], [1, 2, 3, 5, 10], repeats=2)
        flops = [r["flops"] for r in rows]
        assert flops == sorted(flops)

    def test_speedup_measurement_runs(self, setup):
        model, samples = setup
        out = measure_speedup(model, [s.history for s in samples[:3]], repeats=3)
        assert out["t_full"] > 0 and out["t_gated"] > 0
        assert out["speedup"] == pytest.approx(out["t_full"] / out["t_gated"])


class TestPositionHistogram:
    def model_and_histories(self, method, seed=0):
        corpus = synth_corpus_full(
            seed=4, n_users=12, n_items=60, n_topics=3, tokens_per_item=12,
            n_signal=2, filler_pool=40, history_len=4, impressions_per_user=2,
        )
        model = init_model(
            vocab_size=len(corpus.vocab), d=16, n_layers=1, heads=2,
            max_positions=48, n_filters=8, window=1, seed=seed, k=3,
            gate_method=method, stats=corpus_stats(corpus.news),
        )
        return model, [s.history for s in corpus.samples]

    @staticmethod
    def gatings(model, histories):
        return [gate_history(h, model, i) for i, h in enumerate(histories)]

    def make(self, method, seed=0):
        return keyword_position_histogram(self.gatings(*self.model_and_histories(method, seed)))

    @pytest.mark.parametrize("method", ["learned", "first", "bm25", "random"])
    def test_counts_match_per_item_oracle(self, method):
        model, histories = self.model_and_histories(method)
        counts, freq = keyword_position_histogram(self.gatings(model, histories))
        want = np.zeros(12, dtype=np.int64)
        for i, history in enumerate(histories):
            for sel in select_history_oracle(model, history, i):
                for pos in sel.positions:
                    want[pos] += 1
        assert counts.tolist() == want.tolist()
        assert np.array_equal(freq, want / want.sum())

    def test_first_gate_mass_on_leading_positions(self):
        counts, freq = self.make("first")
        assert counts[:3].sum() == counts.sum()
        assert freq[:3].sum() == pytest.approx(1.0)

    def test_random_gate_roughly_uniform(self):
        from scipy import stats as sps

        counts, _ = self.make("random")
        # chi-square sanity: uniform hypothesis should not be wildly rejected
        chi = sps.chisquare(counts)
        assert chi.pvalue > 1e-4

    def test_learned_gate_histogram_shape(self):
        counts, freq = self.make("learned")
        assert counts.sum() > 0
        assert freq.sum() == pytest.approx(1.0)
