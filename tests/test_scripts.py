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


@pytest.fixture(scope="module")
def profile_output():
    """What ``profile_step.py --workload train --steps 1`` prints."""
    with pytest.MonkeyPatch.context() as mp:
        # the script pins BLAS to one thread through the environment on import
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            mp.setenv(var, "1")
        profile_step = load_script("profile_step")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert profile_step.main(["--workload", "train", "--steps", "1"]) == 0
    return out.getvalue()


class TestProfileStep:
    def test_one_train_step_records_sixty_tape_nodes(self, profile_output):
        rows = [line for line in profile_output.splitlines() if line.startswith("| tape nodes |")]
        assert rows == ["| tape nodes | 60.0 |"]

    def test_forward_only_table_times_both_batched_entries(self, profile_output):
        assert "| forward only, no tape | cold ms | warm ms |" in profile_output
        for entry in ("batch_user_embeddings, B=32", "evaluate, 32 val impressions"):
            row = rf"^\| {entry} \| [\d.]+ \| [\d.]+ \|$"
            assert len(re.findall(row, profile_output, re.M)) == 1, entry
