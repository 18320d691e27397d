"""Benchmark operations in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py run --workload tall --seed 3 --first 0 --seconds 8 \
        --inputs DIR --out DIR --trace 0
    python3 perfbench/worker.py setup --workload tall --seed 3 --inputs DIR
    python3 perfbench/worker.py prepare --seed 3 --inputs DIR

``run`` imports screenfit and loads the config (or, for ``score``, the
model and schema) and prints ``ready``: the parent times set-up up to
that line.  It then runs operations ``--first``, ``--first + 1``, ...
(operation i on dataset i mod ``workloads.DATASETS[workload]``) one at a
time until ``--seconds`` have passed (at least one), checks the
output of each, and prints one JSON line per operation and a last line
with the process's peak RSS.  Before each operation it times a fixed
reference computation (``reference``), so that the parent can express
operation times in units of it.  With ``--trace 1`` it first runs one
untimed operation, so that neither side of a pair runs cold, and then
each operation twice on the same input, untraced and traced, the side
that goes first alternating from one operation to the next.

``setup`` only loads what ``run`` loads, prints ``ready`` and exits: a
set-up sample without operations.

``prepare`` makes the ``score`` inputs: a ``tall`` pipeline run for the
model, and sample index 2 of the same generator as a CSV with its schema.

``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import workloads


def reference() -> float:
    """Seconds for a fixed mix of work like the pipeline's (about 0.15 s).

    Interpreter loops, copies of fresh arrays larger than the caches, and
    small BLAS products.  It shares no code with screenfit, so its time
    tracks only the speed the host gives this process at that moment.
    """
    import numpy as np

    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(400_000):
        key = i % 7
        counts[key] = counts.get(key, 0) + 1
    big = np.ones(4_000_000)
    for _ in range(8):
        big = big.copy()
        big += 1.0
    m = np.linspace(0.0, 1.0, 250 * 250).reshape(250, 250)
    for _ in range(20):
        m = m @ m
        m /= np.abs(m).max()
    return time.perf_counter() - t0


def _timed(op, trace: bool) -> tuple[float, dict | None]:
    if not trace:
        t0 = time.perf_counter()
        op()
        return time.perf_counter() - t0, None
    import spans

    with spans.Tracer() as tracer:
        t0 = time.perf_counter()
        op()
        wall = time.perf_counter() - t0
    return wall, tracer.layer_metrics()


def _pipeline_op(config, out: Path, trace: bool) -> dict:
    import checks
    from screenfit import pipeline  # looked up at call time, so a tracer sees the call
    from screenfit.synthgen import generate

    wall, layers = _timed(lambda: pipeline.run_pipeline(config, out), trace)
    problems, found = checks.check_pipeline_dir(out)
    if found:
        planted = set(generate(config.synthetic)[1].planted)
        found["planted_recall"] = checks.planted_recall(found.pop("sources"), planted)
    digests = checks.artifact_digests(out)
    return {"wall_s": wall, "layers": layers, "problems": problems, "digests": digests, **found}


def _score_op(inputs: Path, expect: dict, out: Path, trace: bool) -> dict:
    import checks
    from screenfit import pipeline

    out.mkdir(parents=True)
    scores = out / "scores.csv"
    wall, layers = _timed(
        lambda: pipeline.score_table_file(
            inputs / "train" / "model.json", inputs / "data.csv", inputs / "schema.json", scores
        ),
        trace,
    )
    problems, found = checks.check_scores(scores, expect["target"])
    digests = {"scores.csv": checks.sha256(scores)} if scores.is_file() else {}
    return {"wall_s": wall, "layers": layers, "problems": problems, "digests": digests, **found}


def load(args):
    """Set-up: import screenfit and load the config, or the model and schema.

    Returns what an operation needs: the config, or the expected outcomes
    of the records to score.
    """
    import screenfit  # noqa: F401  (set-up includes the package import)

    if args.workload == "score":
        from screenfit.pipeline import load_model_file
        from screenfit.table import load_schema

        load_model_file(args.inputs / "train" / "model.json")
        load_schema(args.inputs / "schema.json")
        return json.loads((args.inputs / "expect.json").read_text(encoding="utf-8"))
    from screenfit.config import load_config

    return load_config(args.inputs / "config.json")


def setup(args) -> None:
    load(args)
    print("ready", flush=True)


def run(args) -> None:
    loaded = load(args)
    print("ready", flush=True)

    def operation(i: int, op_seed: int, traced: bool) -> dict:
        out = args.out / f"op{i}-{int(traced)}"
        try:
            if args.workload == "score":
                return _score_op(args.inputs, loaded, out, traced)
            return _pipeline_op(loaded.with_seed(op_seed), out, traced)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    if args.trace:
        # The first operation in a fresh interpreter runs cold; it is not
        # timed.  It runs on the input of the first timed operation, which
        # reports a failure should the input cause one.
        with contextlib.suppress(Exception):
            first_seed = workloads.op_seed(args.seed, args.first % workloads.DATASETS[args.workload])
            operation(args.first - 1, first_seed, False)
    start = time.perf_counter()
    i = args.first
    while True:
        op_seed = workloads.op_seed(args.seed, i % workloads.DATASETS[args.workload])
        traced_first = (i - args.first) % 2 == 1
        sides = [False] if not args.trace else [traced_first, not traced_first]
        for traced in sides:
            ref = reference()
            try:
                result = operation(i, op_seed, traced)
            except Exception as exc:  # reported to the parent, which counts the failure
                traceback.print_exc()
                result = {"error": f"{type(exc).__name__}: {exc}"}
            result["reference_s"] = ref
            print(json.dumps({"op": i, "op_seed": op_seed, "traced": traced, **result}), flush=True)
        i += 1
        if time.perf_counter() - start >= args.seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    print(json.dumps({"peak_rss_mb": peak}), flush=True)


def prepare(args) -> None:
    import checks
    from screenfit.config import load_config
    from screenfit.pipeline import run_pipeline
    from screenfit.synthgen import generate
    from screenfit.table import save_schema, save_table

    config = load_config(args.inputs / "config.json").with_seed(workloads.op_seed(args.seed, 0))
    train = args.inputs / "train"
    run_pipeline(config, train)
    problems, _ = checks.check_pipeline_dir(train)
    if problems:
        raise RuntimeError(f"the tall run behind the score model failed its checks: {problems}")
    table, _ = generate(config.synthetic, sample_index=workloads.SCORE_SAMPLE_INDEX)
    save_table(table, args.inputs / "data.csv")
    save_schema(table.schema, args.inputs / "schema.json")
    expect = {"target": "".join(str(int(v)) for v in table.target_values)}
    (args.inputs / "expect.json").write_text(json.dumps(expect), encoding="utf-8")
    print(json.dumps({"prepared": True}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "setup", "prepare"))
    parser.add_argument("--workload", choices=sorted(workloads.CONFIGS), default="tall")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    {"run": run, "setup": setup, "prepare": prepare}[args.mode](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
