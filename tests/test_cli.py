import filecmp
from pathlib import Path

import numpy as np
import pytest

from gateformer.cli import main
from gateformer.config import RunConfig, load_config
from gateformer.text import Vocabulary, load_mind_news

TINY_SYNTH = [
    "--set", "synth.users=12",
    "--set", "synth.items=48",
    "--set", "synth.topics=3",
    "--set", "synth.tokens_per_item=8",
    "--set", "synth.signals=2",
    "--set", "synth.distractors=0",
    "--set", "synth.filler_pool=20",
    "--set", "synth.history_len=3",
    "--set", "synth.impressions_per_user=2",
    "--set", "synth.val_fraction=0.25",
]
TINY_MODEL = [
    "--set", "model.d=16",
    "--set", "model.layers=1",
    "--set", "model.heads=2",
    "--set", "gate.filters=8",
    "--set", "gate.k=2",
    "--set", "data.l_max=8",
    "--set", "data.n_max=6",
    "--set", "train.batch_size=4",
    "--set", "train.eval_interval=5",
    "--set", "train.log_interval=0",
    "--set", "train.warmup=2",
]


def synth(tmp_path, seed=1, extra=()):
    out = tmp_path / f"data{seed}"
    rc = main(["synth", "--out", str(out), "--seed", str(seed), *TINY_SYNTH, *extra])
    assert rc == 0
    return out


def train_run(tmp_path, data, seed=1, steps=10, extra=()):
    out = tmp_path / f"run_s{seed}_{steps}_{abs(hash(tuple(extra))) % 997}"
    rc = main([
        "train", "--data", str(data), "--out", str(out),
        "--seed", str(seed), "--steps", str(steps), *TINY_MODEL, *extra,
    ])
    assert rc == 0
    return out


class TestConfig:
    def test_defaults_and_overrides(self):
        cfg = load_config(None, ["gate.k=5", "train.steps=7"])
        assert cfg.gate.k == 5
        assert cfg.train.steps == 7
        assert cfg.model.d == 64  # untouched default

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(None, ["gate.bogus=1"])

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config section"):
            load_config(None, ["nosuch.k=1"])

    def test_choice_validation(self):
        with pytest.raises(ValueError, match="must be one of"):
            load_config(None, ["gate.method=entity"])

    def test_file_roundtrip(self, tmp_path):
        cfg = load_config(None, ["train.seed=9", "model.d=32"])
        cfg.dump(tmp_path / "c.ini")
        again = load_config(tmp_path / "c.ini")
        assert again.items() == cfg.items()
        assert again.fingerprint() == cfg.fingerprint()

    def test_fingerprint_tracks_values(self):
        a = load_config(None, ["train.seed=1"])
        b = load_config(None, ["train.seed=2"])
        assert a.fingerprint() != b.fingerprint()

    def test_missing_file_fatal(self):
        with pytest.raises(FileNotFoundError):
            load_config("/nonexistent/config.ini")


class TestSynthCommand:
    def test_same_seed_byte_identical(self, tmp_path):
        a = synth(tmp_path / "a", seed=1)
        b = synth(tmp_path / "b", seed=1)
        for name in ("news.tsv", "behaviors.tsv", "behaviors_val.tsv", "vocab.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_policy_flag_accepted_and_validated(self, tmp_path, capsys):
        synth(tmp_path, seed=2, extra=["--policy", "front"])
        with pytest.raises(SystemExit):
            main(["synth", "--out", str(tmp_path / "x"), "--policy", "middle"])

    def test_refuses_nonempty_dir_without_force(self, tmp_path):
        out = synth(tmp_path, seed=3)
        rc = main(["synth", "--out", str(out), "--seed", "3", *TINY_SYNTH])
        assert rc != 0
        rc = main(["synth", "--out", str(out), "--seed", "3", "--force", *TINY_SYNTH])
        assert rc == 0

    def test_round_trip_reingests_losslessly(self, tmp_path):
        from gateformer.text import synth_corpus_full

        out = synth(tmp_path, seed=4)
        vocab = Vocabulary.from_file(out / "vocab.txt")
        news = load_mind_news(out / "news.tsv", vocab, l_max=8)
        corpus = synth_corpus_full(
            seed=4, n_users=12, n_items=48, n_topics=3, tokens_per_item=8,
            n_signal=2, n_distract=0, filler_pool=20, history_len=3,
            impressions_per_user=2, val_fraction=0.25,
        )
        assert set(news) == set(corpus.news)
        for item_id, seq in corpus.news.items():
            assert news[item_id].ids == seq.ids, item_id


class TestTrainCommand:
    def test_zero_steps_emits_initial_checkpoint(self, tmp_path):
        data = synth(tmp_path, seed=5)
        run = train_run(tmp_path, data, seed=5, steps=0)
        assert (run / "best.manifest.json").exists()
        assert (run / "best.bin").exists()
        assert (run / "metrics.csv").read_text().splitlines()[1] == (
            "step,loss,auc,mrr,ndcg5,ndcg10"
        )

    def test_gate_method_first_flag(self, tmp_path):
        data = synth(tmp_path, seed=6)
        run = train_run(tmp_path, data, seed=6, steps=4, extra=["--gate.method", "first"])
        cfg = load_config(run / "config.ini")
        assert cfg.gate.method == "first"

    def test_identical_seed_runs_byte_identical(self, tmp_path):
        data = synth(tmp_path, seed=7)
        r1 = train_run(tmp_path / "r1", data, seed=7, steps=6)
        r2 = train_run(tmp_path / "r2", data, seed=7, steps=6)
        for name in ("best.bin", "best.manifest.json", "metrics.csv", "config.ini"):
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes(), name

    def test_missing_data_nonzero_exit(self, tmp_path):
        rc = main([
            "train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "out"),
            *TINY_MODEL,
        ])
        assert rc != 0


class TestEvalCommand:
    def test_eval_reproduces_metrics_exactly(self, tmp_path):
        data = synth(tmp_path, seed=8)
        run = train_run(tmp_path, data, seed=8, steps=6)
        rc = main(["eval", "--run", str(run), "--data", str(data),
                   "--out", str(run / "eval1.csv")])
        assert rc == 0
        rc = main(["eval", "--run", str(run), "--data", str(data),
                   "--out", str(run / "eval2.csv")])
        assert rc == 0
        assert (run / "eval1.csv").read_bytes() == (run / "eval2.csv").read_bytes()
        lines = (run / "eval1.csv").read_text().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "auc,mrr,ndcg5,ndcg10,n_impressions"

    def test_missing_checkpoint_nonzero_exit(self, tmp_path):
        data = synth(tmp_path, seed=9)
        fake_run = tmp_path / "fake"
        fake_run.mkdir()
        load_config(None, []).dump(fake_run / "config.ini")
        rc = main(["eval", "--run", str(fake_run), "--data", str(data)])
        assert rc == 1


class TestBenchCommand:
    def test_k_list_gives_matching_rows(self, tmp_path):
        data = synth(tmp_path, seed=10)
        run = train_run(tmp_path, data, seed=10, steps=4)
        rc = main([
            "bench", "--run", str(run), "--data", str(data),
            "--k", "1,2,3,5,8", "--repeats", "2",
        ])
        assert rc == 0
        lines = (run / "bench.csv").read_text().splitlines()
        assert lines[1] == "k,wall_time_per_user,flops,auc"
        assert len(lines) == 2 + 5
        ks = [int(line.split(",")[0]) for line in lines[2:]]
        assert ks == [1, 2, 3, 5, 8]

    def test_each_distinct_candidate_encoded_once_across_k(self, tmp_path, monkeypatch):
        import gateformer.training as training
        from gateformer.cli import load_dataset, load_run
        from gateformer.transformer import encode_candidates

        data = synth(tmp_path, seed=10)
        run = train_run(tmp_path, data, seed=10, steps=4)
        encoded = []

        def recording(seqs, params):
            encoded.extend(tuple(seq.ids) for seq in seqs)
            return encode_candidates(seqs, params)

        monkeypatch.setattr(training, "encode_candidates", recording)
        rc = main([
            "bench", "--run", str(run), "--data", str(data), "--k", "1,2,3", "--repeats", "2",
        ])
        assert rc == 0
        val = load_dataset(load_run(run, []), data).val_samples
        distinct = {tuple(seq.ids) for s in val for seq in (s.positive, *s.negatives)}
        assert sorted(encoded) == sorted(distinct)


class TestRecallCommand:
    def test_emits_method_rows(self, tmp_path):
        data = synth(tmp_path, seed=11)
        run = train_run(tmp_path, data, seed=11, steps=4)
        rc = main([
            "recall", "--run", str(run), "--data", str(data),
            "--n", "5,10", "--n-sparse", "20",
        ])
        assert rc == 0
        lines = (run / "recall.csv").read_text().splitlines()
        assert lines[1] == "method,n,recall"
        methods = {line.split(",")[0] for line in lines[2:]}
        assert methods == {"sparse", "dense", "hybrid"}
        assert len(lines) == 2 + 6

    def test_gates_each_query_once(self, tmp_path, monkeypatch):
        from gateformer import cli

        data = synth(tmp_path, seed=12)
        run = train_run(tmp_path, data, seed=12, steps=2)
        calls = []
        original = cli.gate_history

        def counted(history, model, sample_index=0):
            calls.append(sample_index)
            return original(history, model, sample_index)

        monkeypatch.setattr(cli, "gate_history", counted)
        rc = main([
            "recall", "--run", str(run), "--data", str(data),
            "--n", "5", "--n-sparse", "10", "--max-impressions", "3",
        ])
        assert rc == 0
        assert calls == [0, 1, 2]


class TestAnalyzeCommand:
    def test_first_gate_histogram_confined_to_first_k(self, tmp_path):
        data = synth(tmp_path, seed=12)
        run = train_run(
            tmp_path, data, seed=12, steps=4, extra=["--gate.method", "first"]
        )
        rc = main(["analyze", "--run", str(run), "--data", str(data), "--users", "5"])
        assert rc == 0
        lines = (run / "positions.csv").read_text().splitlines()
        assert lines[1] == "position,count,frequency"
        counts = {int(r.split(",")[0]): int(r.split(",")[1]) for r in lines[2:]}
        k = load_config(run / "config.ini").gate.k
        assert sum(v for p, v in counts.items() if p >= k) == 0
        assert sum(v for p, v in counts.items() if p < k) > 0
        kw_lines = (run / "keywords.csv").read_text().splitlines()
        assert kw_lines[1] == "impression,item,position,token,score,weight"
        assert len(kw_lines) > 2

    def test_gates_each_sample_once(self, tmp_path, monkeypatch):
        from gateformer import cli

        data = synth(tmp_path, seed=12)
        run = train_run(tmp_path, data, seed=12, steps=2)
        cfg = cli.load_run(run, [])
        n_samples = len(cli.load_dataset(cfg, data).val_samples)
        calls = []
        original = cli.gate_history

        def counted(history, model, sample_index=0):
            calls.append(sample_index)
            return original(history, model, sample_index)

        monkeypatch.setattr(cli, "gate_history", counted)
        rc = main(["analyze", "--run", str(run), "--data", str(data), "--users", "5"])
        assert rc == 0
        assert n_samples > 5 and calls == list(range(n_samples))
        assert len((run / "keywords.csv").read_text().splitlines()) > 2
