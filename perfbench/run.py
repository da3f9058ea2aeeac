"""Benchmark of the ecgsparse CLI: three workloads, end-to-end and per module.

    python3 perfbench/run.py --workload archive --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each workload runs in worker processes
started here, with BLAS and OpenMP pinned to one thread: set-up is done in
`setup_reps` fresh processes (set-up time is their median), and the last
of them goes on to run timed rounds for --seconds seconds, check every
output and, with --trace 1, trace one more round.  Without --workload all
three workloads run in turn.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics with --trace 0,
the per-module metrics with --trace 1).  The lines before it give the
environment, the check results and the determinism record (SHA-256 of every
artifact, plus the quality figures).  The exit status is 0 when the
benchmark ran, whether or not a check failed, and non-zero when it could
not run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER     # noqa: E402
from workloads import WORKLOADS   # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = "perfbench-out"
WORKER_TIMEOUT_S = 150

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("beats_per_s", "beats/s"),
    ("peak_rss_mb", "MB"),
    ("sbc_bytes_per_beat", "B"),
    ("recon_snr_db", "dB"),
]


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a check failing)."""


def worker_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def start_worker(root, args, phase, d, result, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--phase", phase, "--scale", args.scale,
           "--dir", str(d), "--result", str(result)]
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=root, env=worker_env(), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{phase} worker ran over {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{phase} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return t0, json.loads(result.read_text())


def run_workload(root, args):
    """All processes of one workload; returns the result object."""
    workload = WORKLOADS[args.workload](args.scale, args.seed)
    base = root / OUT_DIR / f"{args.workload}-{args.seed}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    setup_s, setup_hashes = [], []
    for rep in range(workload.setup_reps):
        last = rep == workload.setup_reps - 1
        d = base / f"rep{rep}"
        t0, res = start_worker(root, args, "full" if last else "setup", d,
                               base / f"rep{rep}.json", deadline)
        setup_s.append(res["setup_end"] - t0)
        setup_hashes.append(res["setup_hashes"])

    problems = list(res["problems"])
    if any(h != setup_hashes[0] for h in setup_hashes):
        problems.append("set-up artifacts differ between set-up runs")
    wall = statistics.median(res["walls"])
    values = {
        "setup_s": statistics.median(setup_s),
        "wall_s": wall,
        "cpu_s": statistics.median(res["cpus"]),
        "beats_per_s": res["beats"] / wall,
        "peak_rss_mb": res["peak_rss_mb"],
        **res["figures"],
    }
    env = dict(res["env"], **{var: "1" for var in THREAD_VARS})
    print("env " + json.dumps(env))
    for name, (ok, detail) in res["checks"].items():
        print(f"check {args.workload} {name} {'PASS' if ok else 'FAIL'}: {detail}")
    for problem in problems:
        print(f"problem {args.workload}: {problem}")
    print("record " + json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": len(res["walls"]),
        "setup_runs": len(setup_s), "quality": res["quality"],
        "sha256": {**setup_hashes[-1], **(res["hashes"] or {})}}, sort_keys=True))
    if args.trace:
        if res["absent"]:
            print("absent " + " ".join(res["absent"]))
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        missing = [name for name, _ in END_TO_END if name not in values]
        if missing:
            problems.append("no value for " + ", ".join(missing))
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": not problems, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: all three in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "ecgsparse" / "cli.py").is_file():
        print("error: run from the repository root; src/ecgsparse is missing",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else sorted(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, argparse.Namespace(**{**vars(args), "workload": name}))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for name in names:
            print(f"result {name} " + json.dumps(results[name]))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
