"""One workload process: set up, run timed rounds, check, optionally trace.

Started by run.py, never by hand.  With --phase setup the process stops
once its inputs exist; with --phase full it goes on to the timed rounds,
the checks and, with --trace 1, one more round under the tracer.  The
result goes to --result as JSON.  Times inside the process use
time.monotonic(), which run.py shares, so set-up is timed from the moment
run.py started this process.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np                  # noqa: E402
from ecgsparse import cli as ecg    # noqa: E402

from tracing import Tracer          # noqa: E402
from workloads import WORKLOADS     # noqa: E402


class CommandFailed(RuntimeError):
    pass


def run_cli(argv):
    """One in-process CLI call; returns its JSON summary or raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ecg.run_command(argv)
    if code != 0:
        raise CommandFailed(f"`ecgsparse {' '.join(argv)}` exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def hashes(paths, base):
    return {str(Path(p).relative_to(base)): sha256(p) for p in paths}


def run_round(workload, d):
    """Run one round; returns (wall s, cpu s, summaries, failed calls)."""
    summaries, failed = [], 0
    t0, c0 = time.perf_counter(), time.process_time()
    for argv in workload.round(d):
        try:
            summaries.append(run_cli(argv))
        except CommandFailed as e:
            print(e, file=sys.stderr)
            summaries.append(None)
            failed += 1
    return time.perf_counter() - t0, time.process_time() - c0, summaries, failed


def blas_info():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # NumPy before 1.25 has no dict mode
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--phase", choices=("setup", "full"), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    d = Path(args.dir)
    d.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.scale, args.seed)
    for argv in workload.setup_calls(d):
        run_cli(argv)
    result = {"setup_end": time.monotonic(),
              "setup_hashes": hashes(sorted(p for p in d.iterdir() if p.is_file()), d)}
    if args.phase == "full":
        result.update(measure(workload, d, args))
    Path(args.result).write_text(json.dumps(result))


def measure(workload, d, args):
    walls, cpus, attempted, failed = [], [], 0, 0
    round_hashes, summaries = [], None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, cpu, summaries, bad = run_round(workload, d)
        walls.append(wall)
        cpus.append(cpu)
        attempted += len(summaries)
        failed += bad
        round_hashes.append(hashes(workload.artifacts(d), d) if not bad else None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} CLI calls failed")
    if any(h != round_hashes[0] for h in round_hashes):
        problems.append("artifacts differ between rounds")
    checks, quality, figures = {}, {}, {}
    if not failed:
        checks, quality, figures = workload.check(d, summaries, run_cli)
        problems += [f"check {name} failed: {detail}"
                     for name, (ok, detail) in checks.items() if not ok]

    out = {
        "walls": walls, "cpus": cpus, "attempted": attempted, "failed": failed,
        "beats": workload.beats, "peak_rss_mb": peak_rss_mb,
        "hashes": round_hashes[-1],
        "checks": {name: [bool(ok), detail] for name, (ok, detail) in checks.items()},
        "quality": quality, "figures": figures, "problems": problems,
        "summaries": summaries,
        "env": {"nproc": len(os.sched_getaffinity(0)),
                "python": sys.version.split()[0], "numpy": np.__version__,
                "blas": blas_info()},
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            wall, _, _, bad = run_round(workload, d)
        finally:
            tracer.restore()
        out["attempted"] += len(workload.round(d))
        out["failed"] += bad
        if hashes(workload.artifacts(d), d) != round_hashes[-1]:
            problems.append("traced round wrote different artifacts")
        tracer.dump(d / "spans.jsonl")
        out["per_layer"] = tracer.per_layer(wall - statistics.median(walls))
        out["absent"] = tracer.absent
    return out


if __name__ == "__main__":
    main()
