"""Benchmark a change against its parent commit in alternating pairs of runs.

    python3 scripts/bench_pairs.py --name dedup --parent HEAD --seeds 41-50

The parent is ``git archive <parent>`` and the change is the tracked files
of the working tree this script sits in (``git stash create``, or ``HEAD``
when the tree is clean), each unpacked into its own temporary directory, so
both sides run from fresh checkouts of the same shape. For every workload of
``BENCHMARK.json`` and every seed the script makes one pair of runs of
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``,
with ``T`` the benchmark's ``run_seconds``,
each from its own checkout's root, one run at a time. The side that runs
first alternates from pair to pair. For each end-to-end metric of
``BENCHMARK.json`` it writes both sides' runs, medians and quartiles, how
many pairs the change won (ties count for neither side) and a verdict (see
:func:`verdict`) to ``BENCH_<name>.json``, with the revisions, the commands and each run's
failed/attempted operation count. After a workload's pairs it makes one
``--trace 1`` run per side on each of the first ``TRACED_SEEDS`` seeds,
alternating which side runs first, and stores each per-layer metric's
median, range and runs per side under the workload's ``per_layer`` (see
:func:`per_layer_table`). The file is rewritten after every run, so an
interrupted run leaves what it finished.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
# traced runs per side: one cannot tell a per-layer change under about 30%
# from run-to-run spread
TRACED_SEEDS = 3


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def tree_commit() -> str:
    """The tracked files of the working tree as a commit object (``git stash
    create``, which leaves the tree and the stash list alone), or ``HEAD``
    when the tree is clean."""
    return git("stash", "create").decode().strip() or git("rev-parse", "HEAD").decode().strip()


def checkout(rev: str, dest: Path) -> None:
    """Unpacks ``git archive <rev>`` into the directory ``dest``."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")


def seed_list(spec: str) -> list[int]:
    """'41-50' or '41,43,47'."""
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One run; returns its environment and result records, or the exit code
    and the end of its error output when it failed."""
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}


def verdict(stats: dict, bound: float, pairs: int) -> str:
    """``gain`` when the change won at least 9 in 10 pairs and its median is
    better than the parent's by more than the parent's interquartile range;
    ``worse`` when its median is worse than the parent's by more than
    ``bound`` times the parent's median; ``unresolved`` otherwise, which
    includes a change too small to tell from the spread."""
    sign = 1 if stats["better"] == "higher" else -1
    before, after = stats["before_median"], stats["after_median"]
    if 10 * stats["after_wins"] >= 9 * pairs and sign * (after - before) > stats["before_iqr"]:
        return "gain"
    if sign * (before - after) > bound * abs(before):
        return "worse"
    return "unresolved"


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both sides' runs, medians, quartiles, the change's wins
    and the verdict."""
    done = [p for p in pairs if "result" in p["before"] and "result" in p["after"]]
    out = {
        "pairs": len(done),
        "failed_over_attempted": {
            side: [f"{p[side]['result']['failed']}/{p[side]['result']['attempted']}" for p in done]
            for side in ("before", "after")
        },
    }
    if len(done) < 2:
        return out
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        runs = {
            side: [p[side]["result"]["metrics"][name]["value"] for p in done]
            for side in ("before", "after")
        }
        quartiles = {side: statistics.quantiles(v, n=4) for side, v in runs.items()}
        out[name] = {
            "better": m["better"],
            "unit": m["unit"],
            "before_median": statistics.median(runs["before"]),
            "after_median": statistics.median(runs["after"]),
            "before_quartiles": [quartiles["before"][0], quartiles["before"][2]],
            "after_quartiles": [quartiles["after"][0], quartiles["after"][2]],
            "before_iqr": quartiles["before"][2] - quartiles["before"][0],
            "after_wins": sum(sign * (a - b) > 0 for a, b in zip(runs["after"], runs["before"])),
            "ties": sum(a == b for a, b in zip(runs["after"], runs["before"])),
            "before_runs": runs["before"],
            "after_runs": runs["after"],
        }
        out[name]["verdict"] = verdict(out[name], m["bound"], len(done))
    return out


def per_layer_table(traced: dict[str, list[dict]]) -> dict:
    """Each side's traced runs as {metric: {side: {"median", "range", "runs"}}}
    over the runs that report the metric (``None`` when none does), plus
    each run's seed, correctness and failed/attempted count (or its exit
    code) under the side's name."""
    table: dict = {
        side: [{k: r[k] for k in ("seed", "correct", "failed", "attempted", "exit", "stderr")
                if k in r} for r in runs]
        for side, runs in traced.items()
    }
    names = [n for runs in traced.values() for r in runs for n in r.get("metrics", {})]
    for name in dict.fromkeys(names):
        table[name] = {}
        for side, runs in traced.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r.get("metrics", {})]
            table[name][side] = {
                "median": statistics.median(values),
                "range": [min(values), max(values)],
                "runs": values,
            } if values else None
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seeds", required=True, help="e.g. 41-50: one pair per seed")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = seed_list(args.seeds)
    parent = git("rev-parse", args.parent).decode().strip()
    change = tree_commit()
    untracked = git("ls-files", "--others", "--exclude-standard").decode().split()
    out_path = ROOT / f"BENCH_{args.name}.json"
    record = {
        "name": args.name,
        "revs": {
            "before": parent,
            "after": {
                "head": git("rev-parse", "HEAD").decode().strip(),
                "working_tree_diff_sha256": hashlib.sha256(git("diff", "HEAD", "--binary")).hexdigest(),
                "tree_commit": change,
                "untracked_files": untracked,
            },
        },
        "commands": {
            "before": f"git archive {parent} | tar -x -C <tmp>; cd <tmp>; "
                      f"{' '.join(RUN)} --workload <w> --seed <s> --seconds {seconds} --trace 0",
            "after": f"git archive {change} | tar -x -C <tmp2>; cd <tmp2>; "
                     f"{' '.join(RUN)} --workload <w> --seed <s> --seconds {seconds} --trace 0",
            "per_layer": f"the same with --trace 1, once per side on each seed of {seeds[:TRACED_SEEDS]}",
            "this_script": "python3 scripts/bench_pairs.py " + " ".join(sys.argv[1:] if argv is None else argv),
        },
        "order": "pair j of a workload runs the parent first when j is even, the change first when odd",
        "seeds": seeds,
        "environment": None,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {}
        for side, rev in (("before", parent), ("after", change)):
            roots[side] = Path(tmp) / side
            checkout(rev, roots[side])
        for w in workloads:
            pairs: list[dict] = []
            for j, seed in enumerate(seeds):
                order = ("before", "after") if j % 2 == 0 else ("after", "before")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = perfbench(roots[side], w, seed, seconds)
                    print(f"{w} seed {seed} {side}: "
                          f"{json.dumps(pair[side].get('result', pair[side]))[:200]}", flush=True)
                if record["environment"] is None and "environment" in pair["after"]:
                    env = dict(pair["after"]["environment"])
                    for key in ("git_rev", "workload", "workload_fingerprint", "config_fingerprint", "seed"):
                        env.pop(key, None)
                    record["environment"] = env
                pairs.append(pair)
                record["workloads"][w] = summarize(pairs, spec["end_to_end"])
                record["workloads"][w]["exit_codes"] = [
                    {"seed": p["seed"], "first": p["first"],
                     **{side: p[side].get("exit", 0) for side in ("before", "after")}}
                    for p in pairs
                ]
                out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
            traced: dict[str, list[dict]] = {"before": [], "after": []}
            for j, seed in enumerate(seeds[:TRACED_SEEDS]):
                for side in ("before", "after") if j % 2 == 0 else ("after", "before"):
                    run = perfbench(roots[side], w, seed, seconds, trace=1)
                    traced[side].append({"seed": seed, **run.get("result", run)})
                    print(f"{w} seed {seed} {side} traced: {json.dumps(traced[side][-1])[:200]}",
                          flush=True)
                record["workloads"][w]["per_layer"] = per_layer_table(traced)
                out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
