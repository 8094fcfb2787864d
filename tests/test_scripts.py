import contextlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_script("bench_pairs")


def pairs_of(before, after, better="higher"):
    pairs = [{"before": {"result": {"metrics": {"m": {"value": b}}, "failed": 0, "attempted": 1}},
              "after": {"result": {"metrics": {"m": {"value": a}}, "failed": 0, "attempted": 1}}}
             for b, a in zip(before, after)]
    return bench_pairs.summarize(pairs, [{"name": "m", "unit": "u", "better": better,
                                          "bound": 0.25}])["m"]


class TestVerdict:
    BEFORE = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]

    def test_gain_needs_nine_wins_and_the_parents_iqr(self):
        stats = pairs_of(self.BEFORE, [b + 10 for b in self.BEFORE])
        assert stats["after_wins"] == 10 and stats["verdict"] == "gain"
        # a tie counts for neither side: nine wins still make a gain
        after = [b + 10 for b in self.BEFORE[:9]] + [self.BEFORE[9]]
        assert pairs_of(self.BEFORE, after)["verdict"] == "gain"
        # eight wins do not
        after = [b + 10 for b in self.BEFORE[:8]] + self.BEFORE[8:]
        assert pairs_of(self.BEFORE, after)["verdict"] == "unresolved"

    def test_win_every_pair_inside_the_iqr_is_unresolved(self):
        stats = pairs_of(self.BEFORE, [b + 0.5 for b in self.BEFORE])
        assert stats["after_wins"] == 10 and stats["before_iqr"] > 0.5
        assert stats["verdict"] == "unresolved"

    @pytest.mark.parametrize("better, factor, expect", [
        ("higher", 0.74, "worse"),
        ("higher", 0.76, "unresolved"),
        ("lower", 1.26, "worse"),
        ("lower", 1.24, "unresolved"),
        ("lower", 0.5, "gain"),
    ])
    def test_worse_is_past_the_bound(self, better, factor, expect):
        assert pairs_of(self.BEFORE, [b * factor for b in self.BEFORE], better)["verdict"] == expect


class TestPerLayerTable:
    @staticmethod
    def traced(seed, values, failed=0):
        return {"seed": seed, "correct": failed == 0, "failed": failed, "attempted": 10,
                "metrics": {name: {"value": v, "unit": "ms"} for name, v in values.items()}}

    def test_median_and_range_per_side_over_the_runs_that_report(self):
        traced = {
            "before": [self.traced(1, {"a": 3.0, "b": 1.0}), self.traced(2, {"a": 1.0}),
                       self.traced(3, {"a": 2.0, "b": 5.0})],
            "after": [self.traced(1, {"a": 9.0}), {"seed": 2, "exit": 1, "stderr": "boom"},
                      self.traced(3, {"a": 4.0}, failed=1)],
        }
        table = bench_pairs.per_layer_table(traced)
        assert table["a"]["before"] == {"median": 2.0, "range": [1.0, 3.0], "runs": [3.0, 1.0, 2.0]}
        assert table["a"]["after"] == {"median": 6.5, "range": [4.0, 9.0], "runs": [9.0, 4.0]}
        assert table["b"]["before"] == {"median": 3.0, "range": [1.0, 5.0], "runs": [1.0, 5.0]}
        assert table["b"]["after"] is None
        assert [r["seed"] for r in table["after"]] == [1, 2, 3]
        assert table["after"][1] == {"seed": 2, "exit": 1, "stderr": "boom"}
        assert table["after"][2] == {"seed": 3, "correct": False, "failed": 1, "attempted": 10}


def profile(workload):
    """What ``profile_step.py --workload <workload> --steps 1`` prints."""
    with pytest.MonkeyPatch.context() as mp:
        # the script pins BLAS to one thread through the environment on import
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            mp.setenv(var, "1")
        mp.syspath_prepend(str(SCRIPTS))  # it takes its corpora from same_numbers
        profile_step = load_script("profile_step")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert profile_step.main(["--workload", workload, "--steps", "1"]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def profile_output():
    return profile("train")


class TestProfileStep:
    def test_one_train_step_records_fifty_nine_tape_nodes(self, profile_output):
        rows = [line for line in profile_output.splitlines() if line.startswith("| tape nodes |")]
        assert rows == ["| tape nodes | 59.0 |"]

    def test_a_ragged_step_records_more_tape_nodes(self):
        # each item length, item count and candidate length is a bucket of
        # its own, and each bucket records its own nodes
        out = profile("ragged")
        assert out.startswith("### ragged: B=32")
        assert "| batch of one, 1-6-item histories, no tape | us per call |" in out
        (nodes,) = re.findall(r"^\| tape nodes \| ([\d.]+) \|$", out, re.M)
        assert float(nodes) > 59

    def test_forward_only_table_times_both_batched_entries(self, profile_output):
        assert "| forward only, no tape | cold ms | warm ms |" in profile_output
        for entry in ("batch_user_embeddings, B=32", "evaluate, 32 val impressions"):
            row = rf"^\| {entry} \| [\d.]+ \| [\d.]+ \|$"
            assert len(re.findall(row, profile_output, re.M)) == 1, entry

    def test_forward_only_table_times_each_store_read(self, profile_output):
        for entry in (r"ItemStore\.rows, \d+ candidates", r"ItemStore\.gate_rows, 192 history items"):
            row = rf"^\| {entry} \| [\d.]+ \| [\d.]+ \|$"
            assert len(re.findall(row, profile_output, re.M)) == 1, entry


    def test_batch_of_one_table_splits_each_entry(self, profile_output):
        assert "| batch of one, 6-item histories, no tape | us per call |" in profile_output
        for label in ("user_embedding", "gate_history", "gate kernels", "select_positions",
                      "gate bookkeeping", "encode_user", "encoder layers and pooling",
                      "encoder bookkeeping", "encode_candidate", "candidate layers and pooling",
                      "candidate bookkeeping"):
            row = rf"^\| {label} \| \d+ \|$"
            assert len(re.findall(row, profile_output, re.M)) == 1, label

    def test_batch_of_one_parts_add_up(self, profile_output):
        us = dict(re.findall(r"^\| ([a-z_ ]+) \| (\d+) \|$", profile_output, re.M))
        us = {label: int(v) for label, v in us.items()}
        # each part is at most its stage, up to the rounding of each row
        assert us["gate kernels"] + us["select_positions"] <= us["gate_history"] + 2
        assert us["encoder layers and pooling"] <= us["encode_user"] + 1
        assert us["candidate layers and pooling"] <= us["encode_candidate"] + 1
        assert us["gate kernels"] > 0 and us["encoder layers and pooling"] > 0


@pytest.fixture(scope="module")
def same_numbers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(SCRIPTS))  # it imports bench_pairs' checkout code
        yield load_script("same_numbers")


class TestSameNumbers:
    def test_working_tree_against_itself_is_same(self, same_numbers):
        sides = [same_numbers.run_side(bench_pairs.ROOT, ["tiny"], ["learned-lstm"], "1")
                 for _ in range(2)]
        lines = same_numbers.compare(*sides)
        assert len(lines) == 15
        assert all(re.fullmatch(r"tiny/learned-lstm/\w+ same", line) for line in lines), lines

    def test_every_gate_method_has_a_case(self, same_numbers):
        from gateformer.gating import GATE_METHODS

        assert {method for method, _ in same_numbers.CASES.values()} == set(GATE_METHODS)

    def test_a_field_that_differs_or_is_on_one_side_differs(self, same_numbers):
        lines = same_numbers.compare({"a": "1", "b": "2"}, {"a": "1", "b": "3", "c": "4"})
        assert lines == ["a same", "b differs", "c differs"]

    def test_bench_table_hashed_without_its_timings(self, same_numbers, tmp_path):
        tables = []
        for i, wall in enumerate(("0.0012", "0.0034")):
            path = tmp_path / f"bench{i}.csv"
            path.write_text(f"# config abc\nk,wall_time_per_user,flops,auc\n1,{wall},10,0.5\n")
            tables.append(same_numbers.without_column(path, "wall_time_per_user"))
        assert tables[0] == tables[1] == b"# config abc\nk,flops,auc\n1,10,0.5"


NEWS_AND_BEHAVIORS = ("news.tsv", "behaviors.tsv", "behaviors_val.tsv")


def rows(path):
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


class TestMakeRagged:
    @staticmethod
    def ragged(same_numbers, out):
        """A small synth corpus of 40-word titles and 7-item histories written
        to ``out``, cut by make_ragged; the rows of each file before the cut."""
        from gateformer.text import synth_corpus_full, write_mind_files

        corpus = synth_corpus_full(
            seed=1, n_users=10, n_items=96, n_topics=3, tokens_per_item=40, n_signal=2,
            filler_pool=60, history_len=7, impressions_per_user=2, val_fraction=0.25,
        )
        write_mind_files(corpus, out)
        before = {name: rows(out / name) for name in NEWS_AND_BEHAVIORS}
        same_numbers.make_ragged(out)
        return before

    def test_titles_and_histories_cut_to_ragged_lengths(self, same_numbers, tmp_path):
        before = self.ragged(same_numbers, tmp_path)
        for name, most, keep in (("news.tsv", 30, lambda words, n: words[:n]),
                                 ("behaviors.tsv", 6, lambda items, n: items[-n:]),
                                 ("behaviors_val.tsv", 6, lambda items, n: items[-n:])):
            counts = set()
            for old, new in zip(before[name], rows(tmp_path / name), strict=True):
                n = len(new[3].split())
                assert 1 <= n <= most and new[3].split() == keep(old[3].split(), n)
                assert old[:3] + old[4:] == new[:3] + new[4:]
                counts.add(n)
            assert len(counts) > 1, name

    def test_two_runs_write_identical_files(self, same_numbers, tmp_path):
        for run in ("a", "b"):
            self.ragged(same_numbers, tmp_path / run)
        for name in NEWS_AND_BEHAVIORS:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
