"""screenfit benchmark: three workloads through the package's public entry points.

    python3 perfbench/run.py --workload tall|wide|score --seed N --seconds S --trace 0|1

Run from the root of a source tree (it needs ``src/screenfit`` and
``BENCHMARK.json``).  Operations run one at a time in worker processes
(``worker.py``), fresh interpreters with ``src`` on PYTHONPATH and BLAS
left at its default thread count.  A run starts ``WORKERS`` workers one
after another; each runs operations for its share of ``--seconds``.
Untraced, each is preceded by a worker that only sets up.

* ``--trace 0`` reports the end-to-end metrics: ``wall_rel``, the wall
  time of an operation in units of a fixed reference computation timed
  in the same workers during the same run (``wall_s`` over the lower
  quartile of the reference times); ``setup_s``, the set-up time rescaled
  the same way; and the median peak RSS of a worker.  The wall time
  itself, ``wall_s``, is timed inside a worker that has already imported
  the package: the median over the run's datasets of the fastest
  repetition on each.  Set-up is the time from starting a worker to its
  ``ready`` line (interpreter, ``import screenfit`` and loading the
  config, or the model and schema); ``setup_wall_s`` is the lower
  quartile of the run's samples (two per operation worker), and ``setup_s`` is
  ``setup_wall_s * REFERENCE_S / reference_s``: the set-up seconds on a
  host that runs the reference in ``REFERENCE_S``.  On a shared host the
  same operation on the same input reads up to 1.5 times slower for
  minutes at a time, and the reference computation slows with it, so
  ``wall_rel`` and ``setup_s`` stay steady where ``wall_s`` and
  ``setup_wall_s`` do not.  The run also prints, outside the JSON
  result, ``wall_s``, ``setup_wall_s``, the reference time, the
  out-of-sample first-decile lift, for ``tall`` and ``wide`` the share
  of planted variables among the model's sources, and the share of
  operations that failed.
* ``--trace 1`` runs each operation twice on the same input, untraced
  and traced (see ``spans.py``), and reports the medians of the
  per-layer metrics, plus the tracing overhead: traced minus untraced
  wall time of each pair.

Every operation's output is checked (``checks.py``); the same input must
give the same files, traced or not.  Its SHA-256 digests are printed as
``digest`` lines, so two commits can be compared file by file.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files go to
``.bench_build/perfbench`` under the root.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORKERS = 3
MIN_OPS = 3
WORKER_TIMEOUT_S = 150
# Seconds of the reference computation on the 2-core host the baselines
# in meta.json come from (the lower quartile of its times there);
# setup_s is set-up time at that speed.
REFERENCE_S = 0.15

# Printed with the end-to-end metrics but kept out of BENCHMARK.json.
# wall_s, setup_wall_s and reference_s follow the host's speed, which on
# a shared host drifts by up to 1.5x for minutes at a time; wall_rel and
# setup_s, which divide out the reference, are what the bounds apply to.
# The model-quality metrics are exact functions of the seed and vary
# across seeds (the first-decile lift of one tall model by 18-27 %
# between quartiles) more than any bound allows; the artifact digests
# guard them exactly, since a change to the model changes model.json.
PRINTED = (
    ("wall_s", "s"),
    ("setup_wall_s", "s"),
    ("reference_s", "s"),
    ("oos_lift_d1", "ratio"),
    ("planted_recall", "ratio"),
)


class Failure(Exception):
    """The run cannot produce a result at all."""


def start_worker(root: Path, env: dict, log_path: Path, *args: str) -> tuple[float | None, list, int]:
    """Run worker.py to the end.

    Returns the seconds until its ``ready`` line (None if it never said
    ready), the JSON objects it printed, and its exit code.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=log, text=True
        )
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - t0 if first.strip() == "ready" else None
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rest = ""
            print(f"worker timed out after {WORKER_TIMEOUT_S} s", file=log)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    results = []
    for line in (first + rest).splitlines():
        try:
            results.append(json.loads(line))
        except json.JSONDecodeError:  # "ready", or a line cut off by a kill
            pass
    return setup, results, proc.returncode


class Run:
    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = root / ".bench_build" / "perfbench" / f"{workload}-{seed}-{int(trace)}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.attempted = 0
        self.failed = 0
        self.passed: list[dict] = []  # operations that passed every check
        self.setups: list[float] = []
        self.rss: list[float] = []
        self.overheads: list[float] = []
        self.digests: dict[int, dict[str, str]] = {}

    def fail(self, op_seed, why: str) -> None:
        self.failed += 1
        print(f"failed {self.workload} seed={op_seed}: {why}", file=sys.stderr)

    def prepare(self) -> Path:
        """Write the config; for score, make the model and the CSV to score."""
        shutil.rmtree(self.work, ignore_errors=True)
        inputs = self.work / "inputs"
        inputs.mkdir(parents=True)
        config = workloads.CONFIGS[self.workload]()
        (inputs / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
        compileall.compile_dir(self.root / "src" / "screenfit", quiet=1)
        if self.workload == "score":
            log = self.work / "prepare.log"
            _, results, code = start_worker(
                self.root, self.env, log, "prepare", "--seed", str(self.seed),
                "--inputs", str(inputs),
            )
            if code != 0 or not results:
                raise Failure(f"preparing the score inputs failed; see {log}")
        return inputs

    def check(self, result: dict) -> bool:
        """Count one operation; True if it passed every check."""
        self.attempted += 1
        op_seed = result["op_seed"]
        if result.get("error"):
            self.fail(op_seed, result["error"])
            return False
        if result["problems"]:
            self.fail(op_seed, "; ".join(result["problems"]))
            return False
        # The same input must give the same files: traced or not, and for
        # score on every repetition.
        if self.digests.setdefault(op_seed, result["digests"]) != result["digests"]:
            self.fail(op_seed, "artifacts differ from an earlier run on the same input")
            return False
        return True

    def setup_only(self, inputs: Path) -> None:
        """Start a worker that only sets up, for one more set-up sample."""
        log = self.work / f"setup{len(self.setups)}.log"
        setup, _, code = start_worker(
            self.root, self.env, log, "setup", "--workload", self.workload,
            "--seed", str(self.seed), "--inputs", str(inputs),
        )
        if code != 0 or setup is None:
            raise Failure(f"a worker failed to set up (exit code {code}); see {log}")
        self.setups.append(setup)

    def worker(self, inputs: Path, first: int, seconds: float) -> int:
        """Start one worker; return the index of the next operation."""
        log = self.work / f"worker{first}.log"
        setup, results, code = start_worker(
            self.root, self.env, log, "run", "--workload", self.workload,
            "--seed", str(self.seed), "--first", str(first), "--seconds", str(seconds),
            "--inputs", str(inputs), "--out", str(self.work), "--trace", str(int(self.trace)),
        )
        ops = [r for r in results if "op" in r]
        if code != 0 or not results or "peak_rss_mb" not in results[-1]:
            self.attempted += 1  # the operation it was running when it died
            self.fail("?", f"worker exited with code {code}; see {log}")
        else:
            self.rss.append(results[-1]["peak_rss_mb"])
            if setup is not None:
                self.setups.append(setup)
        pairs: dict[int, dict[bool, dict]] = {}
        for result in ops:
            if self.check(result):
                pairs.setdefault(result["op"], {})[result["traced"]] = result
        for pair in pairs.values():
            if not self.trace:
                self.passed.append(pair[False])
            elif len(pair) == 2:
                self.overheads.append(pair[True]["wall_s"] - pair[False]["wall_s"])
                self.passed.append(pair[True])
        return max([r["op"] for r in ops], default=first) + 1

    def measure(self, seconds: float) -> None:
        inputs = self.prepare()
        first = 0
        workers = 0
        while workers < WORKERS or (len(self.passed) < MIN_OPS and workers < 3 * WORKERS):
            if not self.trace:  # a traced run reports no set-up time
                self.setup_only(inputs)
            first = self.worker(inputs, first, seconds / WORKERS)
            workers += 1
        shutil.rmtree(inputs)
        if not self.passed or not self.rss:
            raise Failure(f"every {self.workload} operation failed; logs in {self.work}")

    def by_dataset(self, name: str) -> dict[int, list[float]]:
        out: dict[int, list[float]] = {}
        for op in self.passed:
            out.setdefault(op["op_seed"], []).append(op[name])
        return out

    def value(self, name: str) -> tuple[float, str]:
        """A metric's value, and how it was formed from the samples."""
        if name == "wall_s":
            reps = self.by_dataset(name)
            fastest = [min(r) for r in reps.values()]
            how = "; ".join(
                f"seed {s}: " + ", ".join(f"{v:.4g}" for v in r) for s, r in reps.items()
            )
            return statistics.median(fastest), f"median over datasets of the fastest: {how}"
        if name == "wall_rel":
            wall, _ = self.value("wall_s")
            ref, _ = self.value("reference_s")
            return wall / ref, f"wall_s {wall:.6g} s over reference_s {ref:.6g} s"
        if name == "setup_s":
            setup, _ = self.value("setup_wall_s")
            ref, _ = self.value("reference_s")
            return (
                setup * REFERENCE_S / ref,
                f"setup_wall_s {setup:.6g} s x REFERENCE_S {REFERENCE_S} s / reference_s {ref:.6g} s",
            )
        if name in ("reference_s", "setup_wall_s"):
            # the lower quartile, like the fastest repetition for wall_s
            samples = self.setups if name == "setup_wall_s" else [op[name] for op in self.passed]
            how = f"lower quartile of {len(samples)}: " + ", ".join(f"{v:.4g}" for v in samples)
            lower = statistics.quantiles(samples, n=4)[0] if len(samples) > 1 else samples[0]
            return lower, how
        if name in ("oos_lift_d1", "planted_recall"):  # exact functions of the dataset
            samples = [r[0] for r in self.by_dataset(name).values()]
        elif name == "peak_rss_mb":
            samples = self.rss
        elif name == "trace.overhead_s":
            samples = self.overheads
        else:
            samples = [op["layers"][name] for op in self.passed]
        how = f"median of {len(samples)}: " + ", ".join(f"{v:.4g}" for v in samples)
        return statistics.median(samples), how

    def metrics(self, spec: dict) -> dict:
        """Print every metric of the run; return the BENCHMARK.json ones."""
        listed = spec["per_layer"] if self.trace else spec["end_to_end"]
        printed = [] if self.trace else [
            (name, unit) for name, unit in PRINTED
            if not (name == "planted_recall" and self.workload == "score")  # no planted truth
        ]
        values = {}
        for name, unit in [(m["name"], m["unit"]) for m in listed] + printed:
            value, how = self.value(name)
            print(f"metric {name} = {value:.6g} {unit} ({how})")
            values[name] = {"value": value, "unit": unit}
        print(
            f"metric fail_frac = {self.failed / self.attempted:.6g} ratio "
            f"({self.failed} of {self.attempted} operations)"
        )
        return {m["name"]: values[m["name"]] for m in listed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "screenfit" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            "error: run from the root of a screenfit source tree "
            "(src/screenfit and BENCHMARK.json are required)",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    run = Run(root, args.workload, args.seed, bool(args.trace))
    try:
        run.measure(args.seconds)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for op_seed, digests in sorted(run.digests.items()):
        for name, digest in sorted(digests.items()):
            print(f"digest {args.workload} seed={op_seed} {name} {digest}")
    metrics = run.metrics(spec)
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
