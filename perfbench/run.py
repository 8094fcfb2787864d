"""Run one gateformer benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/``, so nothing needs installing. ``--trace 0`` prints the end-to-end
metrics named in ``BENCHMARK.json``; ``--trace 1`` makes a separate traced
run and prints the per-layer metrics. The last line of standard output is
the result object; the line before it records the environment. The full
record (environment, sample counts and, traced, every span) is written to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = "1"   # fixed reduction order keeps runs bit-reproducible; never above nproc


def git_rev(root: Path) -> str:
    """Commit of a git checkout, read from its files; 'unknown' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_build(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return " ".join(
        str(blas[k]) for k in ("name", "version", "openblas configuration") if k in blas
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gateformer").is_dir():
        print(f"error: no gateformer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT))
    run = workloads.Run(workload, args.seed, work, tracer)
    try:
        setups = []
        for _ in range(workloads.SETUP_REPEATS):
            probe = run.probe()
            with run.tracing():
                setups.append([workloads.setup(run), probe])
        workloads.prepare(run)
        counts = workloads.measure(run, args.seconds)
        workloads.check_sparse_oracle(run)
        rel_err = workloads.check_flop_model(run)
        if tracer is None:
            metrics = workloads.end_to_end(run, setups)
        else:
            extra = workloads.traced_extras(run)
            extra["user_flops_model_rel_err"] = rel_err
            metrics = tracing.layer_metrics(tracer.spans, extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    measured = {name: unit for name, (_, unit) in metrics.items()}
    if measured != declared:
        print(f"error: metrics {measured} do not match BENCHMARK.json {declared}", file=sys.stderr)
        return 3

    env = {
        "git_rev": git_rev(ROOT),
        "workload": workload.name,
        "workload_fingerprint": workload.fingerprint(),
        "config_fingerprint": run.cfg.fingerprint(),
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(np),
        "blas_threads": int(BLAS_THREADS),
        "ref_probe_s": workloads.REF_PROBE_S,
        "nproc": len(os.sched_getaffinity(0)),
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "environment": env,
        "operations": counts,
        "samples": run.samples,
        "probes": run.probes,
        "setup_s": setups,
        "result": result,
        "spans": tracer.dump() if tracer is not None else [],
    }
    out = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
