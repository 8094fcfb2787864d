import csv
import re
from dataclasses import fields

import numpy as np
import pytest

from gateformer.cli import build_model, load_dataset, load_run, main, restore_model
from gateformer.config import DataConfig, RunConfig, load_config
from gateformer.numerics import tensor
from gateformer.text import (
    Vocabulary, load_mind_behaviors, load_mind_news, synth_corpus_full, write_mind_files,
)
from gateformer.training import split_samples
from gateformer.transformer import load_checkpoint, save_checkpoint

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

    def test_choices_are_defined_where_they_are_used(self):
        from gateformer.cli import _ALIASES, make_parser
        from gateformer.config import GateConfig, SynthConfig
        from gateformer.gating import GATE_METHODS, USER_ENCODERS
        from gateformer.text import POLICIES

        def choices(cls):
            return {f.name: f.metadata.get("choices") for f in fields(cls)}

        assert choices(GateConfig)["user_encoder"] is USER_ENCODERS
        assert choices(GateConfig)["method"] is GATE_METHODS
        assert choices(SynthConfig)["policy"] is POLICIES
        # a flag is a spelling of its key: the key's declaration checks it
        commands = make_parser()._subparsers._group_actions[0].choices
        aliases = [(cmd, a) for cmd in _ALIASES for a in commands[cmd]._actions
                   if a.dest in _ALIASES[cmd].values()]
        assert len(aliases) == sum(map(len, _ALIASES.values())) == 5
        for cmd, action in aliases:
            assert action.choices is None and action.type is None, (cmd, action.dest)
            assert _ALIASES[cmd][action.option_strings[0]] == action.dest

    def test_every_number_declares_a_least_value(self):
        from gateformer.config import RunConfig

        cfg = RunConfig()
        for section in fields(cfg):
            for f in fields(getattr(cfg, section.name)):
                if type(f.default) in (int, float):
                    assert f.metadata.get("least") is not None, f"{section.name}.{f.name}"

    @pytest.mark.parametrize("item", [
        "train.steps=-1", "train.steps=-3", "train.batch_size=0", "train.batch_size=-2",
        "model.d=0", "model.heads=0", "gate.k=0", "gate.window=0", "gate.filters=0",
        "data.l_max=0", "data.n_max=0", "data.k_neg=0", "train.threads=0", "train.threads=-2",
        "model.layers=-1", "model.max_positions=-1", "train.warmup=-5",
        "train.eval_interval=-1", "train.log_interval=-1", "train.clip_norm=-1",
        "train.seed=-1", "train.peak_lr=-1", "synth.topics=1", "synth.users=-3",
        "synth.items=0", "synth.tokens_per_item=0", "synth.history_len=0",
        "synth.impressions_per_user=-1", "synth.signals=-1", "synth.distractors=-1",
        "synth.filler_pool=-1",
    ])
    def test_below_minimum_rejected(self, item, tmp_path):
        key = item.split("=")[0]
        with pytest.raises(ValueError, match=rf"^{key} must be >= "):
            load_config(None, [item])
        section, rest = item.split(".")
        (tmp_path / "c.ini").write_text(f"[{section}]\n{rest.replace('=', ' = ')}\n")
        with pytest.raises(ValueError, match=rf"^{key} must be >= "):
            load_config(tmp_path / "c.ini")

    @pytest.mark.parametrize("item", ["train.peak_lr=nan", "train.peak_lr=inf",
                                      "train.clip_norm=-inf", "synth.noise=NaN"])
    def test_non_finite_float_rejected(self, item, tmp_path):
        key = item.split("=")[0]
        with pytest.raises(ValueError, match=rf"^{key} must be finite, got "):
            load_config(None, [item])
        section, rest = item.split(".")
        (tmp_path / "c.ini").write_text(f"[{section}]\n{rest.replace('=', ' = ')}\n")
        with pytest.raises(ValueError, match=rf"^{key} must be finite, got "):
            load_config(tmp_path / "c.ini")

    @pytest.mark.parametrize("item", [
        "data.val_fraction=-0.5", "data.val_fraction=1.5", "synth.val_fraction=2",
        "synth.val_fraction=-0.01", "synth.noise=3", "synth.noise=-0.1",
    ])
    def test_fraction_outside_unit_interval_rejected(self, item, tmp_path):
        key = item.split("=")[0]
        with pytest.raises(ValueError, match=rf"^{key} must be in \[0, 1\], got "):
            load_config(None, [item])
        section, rest = item.split(".", 1)
        (tmp_path / "c.ini").write_text(f"[{section}]\n{rest.replace('=', ' = ')}\n")
        with pytest.raises(ValueError, match=rf"^{key} must be in \[0, 1\], got "):
            load_config(tmp_path / "c.ini")

    def test_fraction_bounds_accepted(self):
        cfg = load_config(None, ["data.val_fraction=0", "synth.val_fraction=1", "synth.noise=1"])
        assert (cfg.data.val_fraction, cfg.synth.val_fraction, cfg.synth.noise) == (0.0, 1.0, 1.0)

    @pytest.mark.parametrize("item, kind", [
        ("train.steps=1.5", "an integer"),
        ("train.peak_lr=abc", "a number"),
        ("data.title_only=maybe", "a boolean"),
    ])
    def test_unparsable_value_names_the_key(self, item, kind, tmp_path, capsys):
        key, raw = item.split("=")
        message = f"{key} must be {kind}, got '{raw}'"
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            load_config(None, [item])
        section, rest = item.split(".", 1)
        (tmp_path / "c.ini").write_text(f"[{section}]\n{rest.replace('=', ' = ')}\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            load_config(tmp_path / "c.ini")
        out = tmp_path / "data"
        assert main(["synth", "--out", str(out), "--config", str(tmp_path / "c.ini")]) == 1
        assert main(["synth", "--out", str(out), "--set", item]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"] * 2
        assert not out.exists()

    def test_file_roundtrip(self, tmp_path):
        cfg = load_config(None, ["train.seed=9", "model.d=32"])
        cfg.dump(tmp_path / "c.ini")
        again = load_config(tmp_path / "c.ini")
        assert again.items() == cfg.items()
        assert again.fingerprint() == cfg.fingerprint()

    def test_file_roundtrip_keeps_percent_signs(self, tmp_path):
        cfg = load_config(None, ["data.news=100%.tsv", "data.behaviors=%(x)s.tsv"])
        cfg.dump(tmp_path / "c.ini")
        again = load_config(tmp_path / "c.ini")
        assert (again.data.news, again.data.behaviors) == ("100%.tsv", "%(x)s.tsv")
        assert again.items() == cfg.items()

    @pytest.mark.parametrize("content, why", [
        (b"seed = 1\n[train]\n", "line 1 comes before any [section] header"),
        (b"[train]\nseed = 1\n[train]\nsteps = 2\n", "line 3 repeats section [train]"),
        (b"[train]\nseed = 1\nseed = 2\n", "line 3 repeats key 'seed' of section [train]"),
        (b"[train]\nseed\n", "line 2 is not key = value: 'seed\\n'"),
        (b"[data]\nnews = \xff.tsv\n", "not UTF-8"),
    ], ids=["no-section", "duplicate-section", "duplicate-key", "no-equals", "not-utf8"])
    def test_bad_file_names_itself(self, tmp_path, capsys, content, why):
        path = tmp_path / "c.ini"
        path.write_bytes(content)
        message = f"bad config file {path}: {why}"
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            load_config(path)
        out = tmp_path / "data"
        assert main(["synth", "--out", str(out), "--config", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

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
        capsys.readouterr()
        rc = main(["synth", "--out", str(tmp_path / "x"), "--policy", "middle"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: synth.policy must be one of ('front', 'random', 'back'), got 'middle'\n"
        )
        assert not (tmp_path / "x").exists()

    def test_a_held_out_share_of_no_user_exits_naming_both_keys(self, tmp_path, capsys):
        # 1 user at 0.5 rounds to 0 held-out users: no corpus, not a corpus
        # whose validation set is silently empty
        out = tmp_path / "x"
        rc = main(["synth", "--out", str(out), "--set", "synth.users=1",
                   "--set", "synth.val_fraction=0.5"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: synth.val_fraction=0.5 of synth.users=1 holds out no user"
        ]
        assert not out.exists()

    def test_refuses_nonempty_dir_without_force(self, tmp_path):
        out = synth(tmp_path, seed=3)
        rc = main(["synth", "--out", str(out), "--seed", "3", *TINY_SYNTH])
        assert rc != 0
        rc = main(["synth", "--out", str(out), "--seed", "3", "--force", *TINY_SYNTH])
        assert rc == 0

    def test_force_without_a_held_out_split_removes_the_old_one(self, tmp_path, capsys):
        out = synth(tmp_path, seed=3)
        assert (out / "behaviors_val.tsv").exists()
        rc = main(["synth", "--out", str(out), "--seed", "3", "--force", *TINY_SYNTH,
                   "--set", "synth.val_fraction=0"])
        assert rc == 0
        assert not (out / "behaviors_val.tsv").exists()
        # the loader falls back to splitting the new corpus's impressions
        cfg = load_config(None, [])
        dataset = load_dataset(cfg, out)
        samples = load_mind_behaviors(out / "behaviors.tsv", dataset.news, cfg.data, cfg.train.seed)
        _, val = split_samples(samples, cfg.data.val_fraction, cfg.train.seed)

        def ids(samples):
            return [(s.history_ids, s.positive_id, s.negative_ids) for s in samples]

        assert val and ids(dataset.val_samples) == ids(val)

    def test_round_trip_reingests_losslessly(self, tmp_path):
        out = synth(tmp_path, seed=4)
        vocab = Vocabulary.from_file(out / "vocab.txt")
        news = load_mind_news(out / "news.tsv", vocab, DataConfig(l_max=8))
        cfg = load_config(None, TINY_SYNTH[1::2])
        corpus = synth_corpus_full(cfg.synth, 4, cfg.data.k_neg)
        assert set(news) == set(corpus.news)
        for item_id, seq in corpus.news.items():
            assert np.array_equal(news[item_id].ids, seq.ids), item_id

    def test_writes_the_corpus_of_the_default_config(self, tmp_path):
        """With no setting given, ``gateformer synth`` writes the files of the
        default config's synth section: synth has no defaults of its own."""
        assert main(["synth", "--out", str(tmp_path / "cli"), "--seed", "1"]) == 0
        cfg = RunConfig()
        write_mind_files(synth_corpus_full(cfg.synth, 1, cfg.data.k_neg), tmp_path / "direct")
        names = sorted(path.name for path in (tmp_path / "cli").iterdir())
        assert names == ["behaviors.tsv", "behaviors_val.tsv", "news.tsv", "vocab.txt"]
        assert names == sorted(path.name for path in (tmp_path / "direct").iterdir())
        for name in names:
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()


class TestTrainCommand:
    def test_zero_steps_emits_initial_checkpoint(self, tmp_path):
        data = synth(tmp_path, seed=5)
        run = train_run(tmp_path, data, seed=5, steps=0)
        assert (run / "best.manifest.json").exists()
        assert (run / "best.bin").exists()
        assert (run / "metrics.csv").read_text().splitlines()[1] == (
            "step,loss,auc,mrr,ndcg5,ndcg10"
        )

    def test_negative_steps_exit_with_a_message(self, tmp_path, capsys):
        data = synth(tmp_path, seed=5)
        out = tmp_path / "neg"
        rc = main(["train", "--data", str(data), "--out", str(out), "--steps", "-3", *TINY_MODEL])
        assert rc != 0
        assert "train.steps must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_metrics_csv_format(self, tmp_path):
        data = synth(tmp_path, seed=13)
        run = train_run(tmp_path, data, seed=13, steps=10)
        lines = (run / "metrics.csv").read_text().splitlines()
        assert lines[0] == f"# config {load_config(run / 'config.ini').fingerprint()}"
        assert lines[1] == "step,loss,auc,mrr,ndcg5,ndcg10"
        rows = [line.split(",") for line in lines[2:]]
        assert [row[0] for row in rows] == ["5", "10"]
        for row in rows:
            assert len(row) == 6
            assert all(x == repr(float(x)) for x in row[1:])

    def test_without_evaluation_saves_the_final_parameters(self, tmp_path, capsys):
        data = synth(tmp_path, seed=14)
        silent = train_run(tmp_path / "a", data, seed=14, steps=4,
                           extra=["--set", "train.eval_interval=0"])
        assert "trained 4 steps without evaluation" in capsys.readouterr().out
        # evaluating only at the last step keeps the final parameters too
        evaluated = train_run(tmp_path / "b", data, seed=14, steps=4,
                              extra=["--set", "train.eval_interval=4"])
        initial = train_run(tmp_path / "c", data, seed=14, steps=0)
        assert (silent / "best.bin").read_bytes() == (evaluated / "best.bin").read_bytes()
        assert (silent / "best.bin").read_bytes() != (initial / "best.bin").read_bytes()
        assert (silent / "metrics.csv").read_text().splitlines()[2:] == []

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


class TestBadPaths:
    """A path that names a file where a directory is wanted exits 1 with one
    error line, not a traceback."""

    @pytest.mark.parametrize("argv", [
        lambda data, f: ["synth", "--out", str(f), *TINY_SYNTH],
        lambda data, f: ["train", "--data", str(f), "--out", str(f.parent / "run"), *TINY_MODEL],
        lambda data, f: ["train", "--data", str(data), "--out", str(f), *TINY_MODEL],
    ], ids=["synth-out", "train-data", "train-out"])
    def test_file_for_a_directory_exits_with_one_error_line(self, tmp_path, capsys, argv):
        data = synth(tmp_path)
        capsys.readouterr()
        a_file = tmp_path / "a_file"
        a_file.write_text("not a directory\n")
        assert main(argv(data, a_file)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


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

    def test_checkpoint_with_split_qkv_names_is_refused(self, tmp_path, capsys):
        """A checkpoint that names each layer's q/k/v projection as six split
        tensors, not one ``w_qkv`` and one ``b_qkv``, does not load."""
        data = synth(tmp_path, seed=10)
        run = train_run(tmp_path, data, seed=10, steps=2)
        loaded = load_checkpoint(run / "best")
        w, b = loaded.pop("trans.layer0.w_qkv"), loaded.pop("trans.layer0.b_qkv")
        d = b.shape[0] // 3
        for i, part in enumerate("qkv"):
            loaded[f"trans.layer0.w{part}"] = w[:, i * d:(i + 1) * d]
            loaded[f"trans.layer0.b{part}"] = b[i * d:(i + 1) * d]
        save_checkpoint({name: tensor(arr) for name, arr in loaded.items()}, run / "best")
        cfg = load_run(run, [])
        with pytest.raises(ValueError, match="checkpoint mismatch") as err:
            restore_model(cfg, run, load_dataset(cfg, data))
        missing, extra = re.fullmatch(
            r"checkpoint mismatch: missing=(\[.*\]) extra=(\[.*\])", str(err.value)
        ).groups()
        assert missing == str(["trans.layer0.b_qkv", "trans.layer0.w_qkv"])
        assert extra == str([f"trans.layer0.{k}" for k in ("bk", "bq", "bv", "wk", "wq", "wv")])
        capsys.readouterr()
        assert main(["eval", "--run", str(run), "--data", str(data)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: checkpoint mismatch"), lines

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

    def test_speedup_times_both_encoders_on_the_same_histories(self, monkeypatch):
        """``bench --speedup``'s two medians (gated and full input) each
        cycle through the histories from the first: a warm-up call and
        ``repeats`` timed calls, in the same order on both sides."""
        from gateformer import efficiency
        from gateformer.text import TokenSequence, UserHistory

        model = build_model(load_config(None, TINY_MODEL[1::2]), 40, None)
        # history i holds i + 1 items of 3 tokens, so its full input has 3(i + 1) rows
        histories = [UserHistory([TokenSequence([1, 2, 3])] * (i + 1)) for i in range(5)]
        seen = {"gated": [], "full": []}
        monkeypatch.setattr(efficiency.training, "user_embedding",
                            lambda m, h: seen["gated"].append(histories.index(h)))
        monkeypatch.setattr(efficiency.transformer, "encode_user",
                            lambda rows, p: seen["full"].append(rows.data.shape[0] // 3 - 1))
        efficiency.measure_speedup(model, histories, repeats=2)
        assert seen == {"gated": [0, 1, 2], "full": [0, 1, 2]}

    def test_zero_repeats_exits_with_a_message(self, tmp_path, capsys):
        data = synth(tmp_path, seed=10)
        run = train_run(tmp_path, data, seed=10, steps=2)
        rc = main(["bench", "--run", str(run), "--data", str(data), "--k", "2", "--repeats", "0"])
        assert rc == 1
        assert "repeats must be >= 1" in capsys.readouterr().err
        assert not (run / "bench.csv").exists()

    def test_no_validation_impressions_exits_with_a_message(self, tmp_path, capsys):
        data = synth(tmp_path, seed=10)
        (data / "behaviors_val.tsv").unlink()
        run = train_run(tmp_path, data, seed=10, steps=2, extra=["--set", "data.val_fraction=0"])
        rc = main([
            "bench", "--run", str(run), "--data", str(data), "--k", "2", "--repeats", "2",
            "--speedup",
        ])
        assert rc == 1
        assert "bench needs at least one impression sample" in capsys.readouterr().err
        assert not (run / "bench.csv").exists()

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


class TestCutoffFlags:
    @pytest.mark.parametrize("command, flag, raw, message", [
        ("bench", "--k", "0", "--k cutoffs must be at least 1, got 0"),
        ("bench", "--k", "3,-2", "--k cutoffs must be at least 1, got -2"),
        ("bench", "--k", "1,,3", "--k takes comma-separated integers, got '1,,3'"),
        ("bench", "--k", "2.5", "--k takes comma-separated integers, got '2.5'"),
        ("recall", "--n", "10,,50", "--n takes comma-separated integers, got '10,,50'"),
        ("recall", "--n", "x", "--n takes comma-separated integers, got 'x'"),
        ("recall", "--n", "5,0", "--n cutoffs must be at least 1, got 0"),
    ])
    def test_bad_entry_exits_naming_the_flag_before_the_run_opens(
        self, tmp_path, capsys, command, flag, raw, message
    ):
        # the run directory does not exist: opening it would fail otherwise
        rc = main([command, "--run", str(tmp_path / "absent"), flag, raw])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"


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

    def test_news_row_without_tokens_is_skipped(self, tmp_path, capsys):
        data = synth(tmp_path, seed=1)
        with open(data / "news.tsv", "a", encoding="utf-8") as f:
            f.write("N9999\tt0\t-\t\t\t-\t[]\t[]\n")
        run = train_run(tmp_path, data, seed=1, steps=1)
        for command in ("recall", "eval"):
            assert main([command, "--run", str(run), "--data", str(data)]) == 0, command
        assert "empty" not in capsys.readouterr().err

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

    def test_negative_counts_exit_naming_the_flag(self, tmp_path, capsys):
        data = synth(tmp_path, seed=12)
        run = train_run(tmp_path, data, seed=12, steps=2)
        # a shortlist below the largest cutoff (100 by default) names both flags
        below = "--n-sparse must be at least the largest --n cutoff"
        for flags, named in (
            (["--max-impressions", "-1"], "--max-impressions"),
            (["--n", "0,5"], "--n"),
            (["--n", "5,-1"], "--n"),
            (["--n-sparse", "0"], below),
            (["--n-sparse", "-5"], below),
            (["--n", "50", "--n-sparse", "20"], below),
        ):
            rc = main(["recall", "--run", str(run), "--data", str(data), *flags])
            assert rc == 1 and named in capsys.readouterr().err
        assert not (run / "recall.csv").exists()


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

    def test_keywords_csv_reads_back_tokens_holding_a_comma_or_a_quote(self, tmp_path):
        data = synth(tmp_path, seed=12)
        with open(data / "vocab.txt", "a", encoding="utf-8") as f:
            f.write(',\n"\n')
        rows = [line.split("\t") for line in (data / "news.tsv").read_text().splitlines()]
        for cols in rows:
            cols[3] = f', " {cols[3]}'  # the title: the first gate keeps both marks
        (data / "news.tsv").write_text("".join("\t".join(cols) + "\n" for cols in rows))
        run = train_run(tmp_path, data, seed=12, steps=1, extra=["--gate.method", "first"])
        assert main(["analyze", "--run", str(run), "--data", str(data), "--users", "5"]) == 0
        with open(run / "keywords.csv", encoding="utf-8", newline="") as f:
            table = list(csv.reader(f))
        assert table[1] == ["impression", "item", "position", "token", "score", "weight"]
        assert len(table) > 2 and all(len(row) == 6 for row in table[2:])
        assert {row[3] for row in table[2:]} == {",", '"'}

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

    def test_no_impressions_exits_with_a_message(self, tmp_path, capsys):
        data = synth(tmp_path, seed=12)
        run = train_run(tmp_path, data, seed=12, steps=2)
        (data / "behaviors_val.tsv").unlink()
        (data / "empty.tsv").write_text("")
        rc = main([
            "analyze", "--run", str(run), "--data", str(data),
            "--set", "data.behaviors=empty.tsv",
        ])
        assert rc == 1
        assert "error: no impressions to analyze" in capsys.readouterr().err
        assert not (run / "positions.csv").exists()

    def test_negative_users_exit_and_zero_dumps_none(self, tmp_path, capsys):
        data = synth(tmp_path, seed=12)
        run = train_run(tmp_path, data, seed=12, steps=2)
        rc = main(["analyze", "--run", str(run), "--data", str(data), "--users", "-1"])
        assert rc == 1 and "--users" in capsys.readouterr().err
        assert not (run / "keywords.csv").exists()
        rc = main(["analyze", "--run", str(run), "--data", str(data), "--users", "0"])
        assert rc == 0
        assert (run / "keywords.csv").read_text().splitlines()[1:] == [
            "impression,item,position,token,score,weight"
        ]
