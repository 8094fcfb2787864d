import json
import math
import os

import numpy as np
import pytest

from gateformer import numerics as nm
from gateformer import transformer
from gateformer.gating import gate_groups, init_gate_params
from gateformer.numerics import Tape, backward, constant, gather_rows, tensor
from gateformer.text import TokenSequence, UserHistory
from gateformer.transformer import (
    apply_checkpoint,
    encode_candidate,
    encode_candidates,
    encode_sequence,
    encode_sequences,
    encode_user,
    init_transformer_params,
    load_checkpoint,
    save_checkpoint,
    weighted_pool,
)
from oracles import (
    attention_pool_oracle,
    autodiff_grads,
    check_grads,
    click_loss,
    encode_candidate_oracle,
    encode_item,
    encode_user_interest,
    rel_err,
    score,
    score_tokens,
    select_positions_oracle,
    softmax_oracle,
)


def seq_of(ids):
    return TokenSequence(list(ids), list(range(len(ids))), [0] * len(ids))


def make_params(vocab=16, d=4, layers=1, heads=2, p_max=24, seed=0):
    rng = np.random.default_rng(seed)
    emb = tensor(rng.normal(size=(vocab, d)) * 0.5, requires_grad=True)
    return init_transformer_params(emb, layers, heads, p_max, rng)


def manual_rows(seq, params, weights=None):
    """Weight-scaled embedding rows of a whole item, built without the gate."""
    w = np.ones(len(seq)) if weights is None else np.asarray(weights, dtype=float)
    return nm.mul(gather_rows(params.word_embeddings, seq.ids), constant(w[:, None]))


class TestEncodeUser:
    def test_single_token_is_its_encoded_position(self):
        p = make_params(seed=1)
        rows = manual_rows(seq_of([5]), p)
        out = encode_user(rows, p)
        x = nm.add(rows, nm.narrow(p.pos_embeddings, 0, 0, 1))
        expected = encode_sequence(nm.reshape(x, (1, 1, p.d)), p).data[0, 0]
        assert np.allclose(out.data, expected, atol=1e-14)

    def test_zero_layers_pools_inputs_directly(self):
        p = make_params(layers=0, seed=2)
        rows = manual_rows(seq_of([3, 7, 9]), p)
        out = encode_user(rows, p)
        x = rows.data + p.pos_embeddings.data[:3]
        alpha = softmax_oracle(x @ p.pool_q.data)
        assert rel_err(out.data, alpha @ x) < 1e-12

    def test_matches_hand_assembled_concatenation(self):
        rng = np.random.default_rng(3)
        p = make_params(seed=3)
        items = [seq_of([4, 8, 2]), seq_of([11, 5, 9])]
        parts = [
            manual_rows(items[0], p, weights=softmax_oracle(rng.normal(size=3))),
            manual_rows(items[1], p, weights=softmax_oracle(rng.normal(size=3))),
        ]
        out = encode_user(nm.concat_rows(parts), p)
        x_np = np.concatenate([r.data for r in parts]) + p.pos_embeddings.data[:6]
        encoded = encode_sequence(tensor(x_np[None]), p)
        expected = weighted_pool(encoded, p.pool_q)
        assert rel_err(out.data, expected.data[0]) < 1e-12

    def test_ragged_item_lengths_allowed(self):
        # the gate's rows for items keeping 2 and 1 tokens encode as they are
        p = make_params(seed=4)
        gate = init_gate_params(p.word_embeddings, 3, 1, np.random.default_rng(4))
        gated = gate_groups([UserHistory([seq_of([4, 8]), seq_of([1])])], gate, 2)
        assert [s.k_eff for s in gated] == [2, 1]
        out = encode_user(gated.rows, p)
        assert out.data.shape == (p.d,)

    def test_empty_selection_rejected(self):
        p = make_params(seed=5)
        with pytest.raises(ValueError, match="selected token"):
            encode_user(constant(np.zeros((0, p.d))), p)

    def test_position_capacity_enforced(self):
        p = make_params(p_max=2, seed=6)
        with pytest.raises(ValueError, match="max positions"):
            encode_user(manual_rows(seq_of([1, 2, 3]), p), p)


class TestWeightedPool:
    @pytest.mark.parametrize("shape", [(7, 4), (3, 5, 4)])
    def test_is_the_attention_pool_kernel(self, shape):
        rng = np.random.default_rng(40)
        x = tensor(rng.normal(size=shape), requires_grad=True)
        q = tensor(rng.normal(size=4), requires_grad=True)
        with Tape() as tape:
            out = weighted_pool(x, q)
        assert len(tape) == 1 and out.data.shape == shape[:-2] + (4,)
        want = attention_pool_oracle(x, q)
        assert rel_err(out.data, want.data) < 1e-12
        c = tensor(rng.normal(size=want.data.shape))
        fast = autodiff_grads(lambda: nm.vsum(nm.mul(weighted_pool(x, q), c)), [x, q])
        slow = autodiff_grads(lambda: nm.vsum(nm.mul(attention_pool_oracle(x, q), c)), [x, q])
        for a, b in zip(fast, slow):
            assert rel_err(a, b) < 1e-12


class TestEncodeCandidate:
    def test_single_token(self):
        p = make_params(seed=7)
        out = encode_candidate(seq_of([9]), p)
        emb = gather_rows(p.word_embeddings, [9])
        x = nm.add(emb, nm.narrow(p.pos_embeddings, 0, 0, 1))
        expected = encode_sequence(nm.reshape(x, (1, 1, p.d)), p).data[0, 0]
        assert np.allclose(out.data, expected, atol=1e-14)

    def test_deterministic(self):
        p = make_params(seed=8)
        seq = seq_of([3, 1, 4, 1, 5])
        a = encode_candidate(seq, p)
        b = encode_candidate(seq, p)
        assert np.array_equal(a.data, b.data)

    def test_equals_full_selection_user_encoding(self):
        # a single-item "selection" of every token with unit weights feeds the
        # transformer the same input the candidate path builds
        p = make_params(seed=9)
        seq = seq_of([2, 6, 10, 14])
        user_emb = encode_user(manual_rows(seq, p), p)
        cand_emb = encode_candidate(seq, p)
        assert np.allclose(user_emb.data, cand_emb.data, atol=1e-14)

    def test_empty_candidate_rejected(self):
        with pytest.raises(ValueError, match="cannot encode an empty candidate"):
            encode_candidate(seq_of([]), make_params())
        with pytest.raises(ValueError, match="cannot encode an empty candidate"):
            encode_candidates([seq_of([1]), seq_of([])], make_params())

    def test_batched_matches_per_sequence_mixed_lengths(self):
        rng = np.random.default_rng(20)
        p = make_params(seed=20)
        seqs = [
            seq_of(rng.integers(1, 16, size=L).tolist())
            for L in (3, 5, 3, 2, 5, 4)
        ]
        # repeats: the same object, and an equal-content copy
        seqs += [seqs[1], seq_of(seqs[3].ids), seqs[1]]
        batched = encode_candidates(seqs, p).data
        for i, seq in enumerate(seqs):
            single = encode_candidate_oracle(seq, p).data
            assert rel_err(batched[i], single) < 1e-12

    def test_repeated_sequences_encoded_once(self):
        p = make_params(seed=22)
        a, b = seq_of([3, 1, 4]), seq_of([1, 5, 9, 2])
        with nm.count_flops() as distinct:
            encode_candidates([a, b], p)
        with nm.count_flops() as repeated:
            out = encode_candidates([b, a, seq_of(a.ids), b], p)
        assert repeated.flops == distinct.flops
        assert np.array_equal(out.data[1], out.data[2])
        assert np.array_equal(out.data[0], out.data[3])

    def test_batched_gradients_match_per_sequence(self):
        rng = np.random.default_rng(21)
        p = make_params(seed=21)
        seqs = [seq_of(rng.integers(1, 16, size=L).tolist()) for L in (2, 3, 2)]
        # repeats: the same object, and an equal-content copy
        seqs += [seqs[0], seq_of(seqs[1].ids)]
        c = tensor(rng.normal(size=(len(seqs), p.d)))

        def run(batched):
            p.word_embeddings.zero_grad()
            with Tape() as tape:
                if batched:
                    embs = encode_candidates(seqs, p)
                else:
                    embs = nm.concat_rows(
                        [nm.reshape(encode_candidate_oracle(s, p), (1, p.d)) for s in seqs]
                    )
                loss = nm.vsum(nm.mul(embs, c))
            backward(tape, loss)
            return loss.item(), p.word_embeddings.grad.copy()

        lb, gb = run(True)
        ls, gs = run(False)
        assert lb == pytest.approx(ls, abs=1e-12)
        assert rel_err(gb, gs) < 1e-12


class TestEncodeSequences:
    def test_mixed_lengths_with_repeats_in_input_order(self):
        rng = np.random.default_rng(23)
        p = make_params(seed=23)
        index = [rng.integers(0, 16, size=L).tolist() for L in (3, 5, 3, 2, 5, 4)]
        # repeats: the same list, and an equal-content copy
        index += [index[1], list(index[3]), index[1]]
        out = encode_sequences(p.word_embeddings, index, p).data
        assert out.shape == (len(index), p.d)
        for i, rows in enumerate(index):
            alone = encode_sequences(p.word_embeddings, [rows], p).data
            assert np.array_equal(out[i], alone[0]), i

    def test_table_read_in_order_matches_gathered_stack(self):
        # the two sequences read every row of the table in order, so the
        # table is reshaped into the stack; alone, each is a gather of half
        rng = np.random.default_rng(24)
        p = make_params(seed=24)
        table = tensor(rng.normal(size=(6, p.d)), requires_grad=True)
        halves = [np.arange(0, 3), np.arange(3, 6)]
        c = tensor(rng.normal(size=(2, p.d)))

        def run(parts):
            table.zero_grad()
            with Tape() as tape:
                out = nm.concat_rows(parts())
                loss = nm.vsum(nm.mul(out, c))
            backward(tape, loss)
            return out.data, table.grad.copy()

        whole = run(lambda: [encode_sequences(table, halves, p)])
        alone = run(lambda: [encode_sequences(table, [h], p) for h in halves])
        for a, b in zip(whole, alone):
            assert np.array_equal(a, b)

    def test_empty_and_overlong_sequences_rejected(self):
        p = make_params(p_max=4, seed=25)
        with pytest.raises(ValueError, match="empty sequence"):
            encode_sequences(p.word_embeddings, [[1, 2], []], p)
        with pytest.raises(ValueError, match="max positions"):
            encode_sequences(p.word_embeddings, [[1, 2], [1, 2, 3, 4, 5]], p)
        with pytest.raises(ValueError, match="no sequences"):
            encode_sequences(p.word_embeddings, [], p)


class TestScore:
    def test_unit_basis_d64(self):
        u = tensor(np.eye(64)[0])
        assert score(u, u).item() == pytest.approx(0.125, abs=1e-15)

    def test_orthogonal(self):
        assert score(tensor([1.0, 0.0]), tensor([0.0, 1.0])).item() == 0.0

    def test_random_matches_dot_oracle(self):
        rng = np.random.default_rng(10)
        u, c = rng.normal(size=6), rng.normal(size=6)
        assert score(tensor(u), tensor(c)).item() == pytest.approx(
            float(u @ c) / math.sqrt(6), abs=1e-12
        )


class TestClickLoss:
    def test_equal_scores_ln5(self):
        u = tensor(np.zeros(4))
        items = [tensor(np.ones(4)) for _ in range(5)]
        loss = click_loss(u, items[0], items[1:])
        assert loss.item() == pytest.approx(math.log(5.0), abs=1e-12)
        assert loss.item() == pytest.approx(1.6094379124341003, abs=1e-12)

    def test_dominant_positive_drives_loss_to_zero(self):
        d = 4
        u = tensor(np.ones(d) * 10)
        pos = tensor(np.ones(d) * 10)     # z+ = 100/2 = 50
        negs = [tensor(-np.ones(d))]      # z- = -20
        assert click_loss(u, pos, negs).item() < 1e-12

    def test_random_matches_softmax_ce_oracle(self):
        rng = np.random.default_rng(11)
        d = 5
        u = tensor(rng.normal(size=d))
        pos = tensor(rng.normal(size=d))
        negs = [tensor(rng.normal(size=d)) for _ in range(4)]
        loss = click_loss(u, pos, negs).item()
        zs = np.array(
            [u.data @ pos.data] + [u.data @ n.data for n in negs]
        ) / math.sqrt(d)
        expected = -np.log(softmax_oracle(zs)[0])
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_requires_negative(self):
        u = tensor(np.zeros(3))
        with pytest.raises(ValueError):
            click_loss(u, u, [])

    def test_monotone_in_scores(self):
        # strictly decreasing in z(u, pos), strictly increasing in z(u, neg),
        # probed by directional perturbations along u
        rng = np.random.default_rng(12)
        d = 6
        u = tensor(rng.normal(size=d))
        pos = tensor(rng.normal(size=d))
        negs = [tensor(rng.normal(size=d)) for _ in range(3)]
        base = click_loss(u, pos, negs).item()
        step = 1e-3 * u.data
        up = click_loss(u, tensor(pos.data + step), negs).item()
        assert up < base
        negs2 = [tensor(negs[0].data + step)] + negs[1:]
        assert click_loss(u, pos, negs2).item() > base


class TestTransformerInvariants:
    def test_shape_preserved_and_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(13)
        p = make_params(layers=2, seed=13)
        x = tensor(rng.normal(size=(1, 7, p.d)))
        collected: list = []
        out = encode_sequence(x, p, collect=collected)
        assert out.data.shape == (1, 7, p.d)
        assert len(collected) == 2  # one (B, heads, n, n) stack per layer
        for alpha in collected:
            assert alpha.data.shape == (1, p.heads, 7, 7)
            assert np.abs(alpha.data.sum(axis=-1) - 1.0).max() <= 1e-10

    def test_parameter_sharing_mutation_changes_both_sides(self):
        p = make_params(seed=14)
        seq = seq_of([3, 5])
        user_before = encode_user(manual_rows(seq, p), p).data.copy()
        cand_before = encode_candidate(seq, p).data.copy()
        p.pool_q.data[...] += 0.37
        assert not np.allclose(encode_user(manual_rows(seq, p), p).data, user_before)
        assert not np.allclose(encode_candidate(seq, p).data, cand_before)

    def test_fixed_seed_forward_backward_bit_reproducible(self):
        def run():
            rng = np.random.default_rng(42)
            emb = tensor(rng.normal(size=(10, 4)), requires_grad=True)
            p = init_transformer_params(emb, 1, 2, 12, rng)
            with Tape() as tape:
                u = encode_user(manual_rows(seq_of([1, 2, 3]), p), p)
                c = encode_candidate(seq_of([4, 5]), p)
                loss = click_loss(u, c, [encode_candidate(seq_of([6]), p)])
            backward(tape, loss)
            return loss.item(), emb.grad.copy(), p.pool_q.grad.copy()

        l1, g1, q1 = run()
        l2, g2, q2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)
        assert np.array_equal(q1, q2)


def build_micro_model(seed):
    """Tiny gate + transformer sharing one embedding table."""
    rng = np.random.default_rng(seed)
    emb = tensor(rng.normal(size=(14, 4)) * 0.6, requires_grad=True)
    gate = init_gate_params(emb, n_filters=3, window=1, rng=rng)
    trans = init_transformer_params(emb, n_layers=1, heads=2, max_positions=16, rng=rng)
    return emb, gate, trans


def micro_batch(rng):
    def hist():
        items = [
            seq_of(rng.choice(np.arange(1, 14), size=4, replace=False).tolist())
            for _ in range(2)
        ]
        return UserHistory(items)

    def cand():
        return seq_of(rng.choice(np.arange(1, 14), size=3, replace=False).tolist())

    return [(hist(), cand(), [cand(), cand()]) for _ in range(2)]


class TestEndToEndGradient:
    def test_composed_pipeline_matches_fd_on_two_user_microbatch(self):
        k = 2
        for attempt in range(50):
            seed = 3000 + attempt
            emb, gate, trans = build_micro_model(seed)
            batch = micro_batch(np.random.default_rng(seed))

            # require wide ranked-score margins so every selection survives
            # the fd perturbations
            stable = True
            baselines = []
            for history, _, _ in batch:
                interest = encode_user_interest(history, gate)
                item_pos = []
                for seq in history.items:
                    scores = score_tokens(encode_item(seq, gate)[0], interest).data
                    masked = np.sort(scores)[::-1]
                    if len(masked) > k and masked[k - 1] - masked[k] < 2e-2:
                        stable = False
                    if np.diff(-masked[:k]).min(initial=np.inf) < 2e-2:
                        stable = False
                    item_pos.append(select_positions_oracle(seq, scores, k))
                baselines.append(item_pos)
            if not stable:
                continue

            def build():
                total = None
                for (history, pos, negs), expect in zip(batch, baselines):
                    gated = gate_groups([history], gate, k)
                    assert [s.positions for s in gated] == expect
                    u = encode_user(gated.rows, trans)
                    loss = click_loss(
                        u, encode_candidate(pos, trans),
                        [encode_candidate(n, trans) for n in negs],
                    )
                    total = loss if total is None else nm.add(total, loss)
                return nm.mul(total, 0.5)

            params = [emb, *gate.named_tensors().values(), *trans.named_tensors().values()]
            params = [p for p in params if p is not gate.attn_v]  # unused by lstm encoder
            check_grads(build, params, tol=1e-4)
            return
        pytest.fail("no fd-stable micro instance found in 50 seeds")


class TestCheckpoint:
    def test_round_trip_restores_exactly(self, tmp_path):
        p = make_params(seed=15)
        named = {"embed.word": p.word_embeddings, **p.named_tensors()}
        save_checkpoint(named, tmp_path / "ckpt")
        originals = {k: v.data.copy() for k, v in named.items()}
        for t in named.values():
            t.data[...] = 0.0
        apply_checkpoint(named, load_checkpoint(tmp_path / "ckpt"))
        for k, v in named.items():
            assert np.array_equal(v.data, originals[k]), k

    def test_checkpoint_is_byte_stable(self, tmp_path):
        p = make_params(seed=16)
        named = {"embed.word": p.word_embeddings, **p.named_tensors()}
        save_checkpoint(named, tmp_path / "a")
        save_checkpoint(named, tmp_path / "b")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.manifest.json").read_bytes() == (
            tmp_path / "b.manifest.json"
        ).read_bytes()

    def test_failed_save_leaves_previous_checkpoint(self, tmp_path, monkeypatch):
        p = make_params(seed=18)
        named = {"embed.word": p.word_embeddings, **p.named_tensors()}
        save_checkpoint(named, tmp_path / "ckpt")
        originals = {k: v.data.copy() for k, v in named.items()}
        files = sorted(tmp_path.iterdir())
        for t in named.values():
            t.data[...] += 1.0

        class FailingFile:
            """Opens (and so truncates) the file, then fails its first write."""

            def __init__(self, path, *args, **kwargs):
                self.f = open(path, *args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                raise OSError("disk full")

        def failing_open(path, *args, **kwargs):
            if "manifest" in os.path.basename(path):
                return FailingFile(path, *args, **kwargs)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(transformer, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(named, tmp_path / "ckpt")
        monkeypatch.undo()
        assert sorted(tmp_path.iterdir()) == files  # no temporary file left behind
        loaded = load_checkpoint(tmp_path / "ckpt")
        for k, v in originals.items():
            assert np.array_equal(loaded[k], v), k

    def test_name_mismatch_rejected(self, tmp_path):
        p = make_params(seed=17)
        named = {"embed.word": p.word_embeddings, **p.named_tensors()}
        save_checkpoint(named, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        del loaded["trans.pool.q"]
        with pytest.raises(ValueError, match="missing"):
            apply_checkpoint(named, loaded)


class TestCorruptCheckpoint:
    """Manifests that do not describe the blob raise ValueError naming the
    manifest file. The checkpoint holds a (6 floats) and b (4 floats): 80 bytes."""

    @staticmethod
    def write(tmp_path, edit=None, text=None):
        named = {"a": tensor(np.arange(6.0)), "b": tensor(np.arange(4.0) + 10)}
        save_checkpoint(named, tmp_path / "ckpt")
        path = tmp_path / "ckpt.manifest.json"
        manifest = json.loads(path.read_text())
        if edit is not None:
            edit(manifest)
        path.write_text(text if text is not None else json.dumps(manifest))
        return tmp_path / "ckpt"

    def test_valid_checkpoint_loads(self, tmp_path):
        loaded = load_checkpoint(self.write(tmp_path))
        assert np.array_equal(loaded["a"], np.arange(6.0))
        assert np.array_equal(loaded["b"], np.arange(4.0) + 10)

    @pytest.mark.parametrize("edit", [
        lambda m: m["offsets"].update(b=40),                      # b overlaps a
        lambda m: m["offsets"].update(b=0),                       # both at 0
        lambda m: m["offsets"].update(b=56),                      # gap, runs past the end
        lambda m: m["shapes"].update(a=[3, 3]),                   # 9 floats where 6 are
        lambda m: m["shapes"].update(a=[2, -3]),
        lambda m: m["shapes"].update(a=[6.0]),
        lambda m: m["shapes"].update(a=[True] * 6),
        lambda m: m["shapes"].update(a=6),
        lambda m: m["offsets"].update(a=False),
        lambda m: m.pop("shapes"),
        lambda m: m.pop("offsets"),
        lambda m: m.pop("names"),
        lambda m: m.pop("total_bytes"),
        lambda m: m.update(total_bytes=72),
        lambda m: m.update(names=["b", "a"]),
        lambda m: m.update(names=["a", "a", "b"]),
        lambda m: m.update(names=["a"]),                          # b's bytes unaccounted
        lambda m: m["shapes"].pop("b"),
        lambda m: m.update(names=[1, 2]),
    ])
    def test_inconsistent_manifest_rejected(self, tmp_path, edit):
        prefix = self.write(tmp_path, edit)
        with pytest.raises(ValueError, match="ckpt.manifest.json"):
            load_checkpoint(prefix)

    def test_cut_off_manifest_rejected(self, tmp_path):
        text = (self.write(tmp_path).parent / "ckpt.manifest.json").read_text()
        for cut in range(len(text)):
            prefix = self.write(tmp_path, text=text[:cut])
            with pytest.raises(ValueError, match="ckpt.manifest.json"):
                load_checkpoint(prefix)

    def test_cut_off_blob_rejected(self, tmp_path):
        prefix = self.write(tmp_path)
        blob = tmp_path / "ckpt.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(ValueError, match="ckpt.manifest.json"):
            load_checkpoint(prefix)

    def test_blob_of_a_later_save_rejected(self, tmp_path):
        # a crash between the save's two moves leaves the new blob beside
        # the previous manifest; both describe the same layout
        prefix = self.write(tmp_path)
        earlier = (tmp_path / "ckpt.manifest.json").read_bytes()
        save_checkpoint({"a": tensor(np.arange(6.0) + 1), "b": tensor(np.zeros(4))}, prefix)
        (tmp_path / "ckpt.manifest.json").write_bytes(earlier)
        with pytest.raises(ValueError, match=r"ckpt.manifest.json: sha256 does not match"):
            load_checkpoint(prefix)

    def test_flipped_blob_byte_rejected(self, tmp_path):
        prefix = self.write(tmp_path)
        blob = tmp_path / "ckpt.bin"
        data = blob.read_bytes()
        for i in range(len(data)):
            blob.write_bytes(data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1:])
            with pytest.raises(ValueError, match=r"ckpt.manifest.json: sha256 does not match"):
                load_checkpoint(prefix)

    def test_manifest_without_sha256_rejected(self, tmp_path):
        prefix = self.write(tmp_path, lambda m: m.pop("sha256"))
        with pytest.raises(ValueError, match=r"ckpt.manifest.json: no 'sha256'"):
            load_checkpoint(prefix)
