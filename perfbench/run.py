#!/usr/bin/env python3
"""Benchmark one crossfuzzy workload and print its metrics as JSON.

    python3 perfbench/run.py --workload paper-suite --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all      # the three workloads in turn

Workloads: paper-suite, train-scaled, infer-sweep (see README.md). With
``--trace 0`` the last line holds the end-to-end metrics (setup_s, pass_s,
probes_per_s, peak_rss_mb); with ``--trace 1`` it holds the per-layer metrics
of a separate traced run. The line before it records the environment. Every
op is checked; ``failed`` counts ops that raised, were flagged as untrained,
or disagreed with an oracle or (seed 0 only) a recorded reference.

The workload runs in a child process with BLAS/OpenMP threads pinned to the
cores this process may use. Set-up is measured in that child and in
``SETUP_RUNS - 1`` set-up-only children, and the median is reported. A full
record goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-suite", "train-scaled", "infer-sweep")
SETUP_RUNS = 5
DEADLINE_S = 170  # the whole run, children included, ends well within 180 s


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0,
                   help="0 reproduces the named experiments; others shift every seed")
    p.add_argument("--seconds", type=float, default=35.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every grid for the smoke test")
    p.add_argument("--references", default=str(HERE / "references.json"),
                   help="reference values checked at seed 0")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def src_digest() -> str:
    """sha256 over the package sources, to identify the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_child(args, tmp: Path, env: dict, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--references", args.references, "--tmp", str(tmp), *extra]
    tmp.mkdir(parents=True)
    # subprocess.run kills and reaps the child if it overruns the deadline.
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _terminate(signum, frame):
    # Raising inside subprocess.run makes it kill and reap the running child.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "crossfuzzy" / "__init__.py").is_file():
        print(f"error: no crossfuzzy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    return max(run_workload(argparse.Namespace(**{**vars(args), "workload": w}))
               for w in WORKLOADS)


def run_workload(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    threads = str(len(os.sched_getaffinity(0)))
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = ROOT / ".perfbench_tmp" / f"{tag}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_RUNS - 1):
                setups.append(run_child(args, tmp / f"setup{i}", env, deadline,
                                        "--setup-only")["setup_s"])
        report = run_child(args, tmp / "run", env, deadline,
                           "--spans", str(out_dir / f"{tag}.spans.csv"))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            tmp.parent.rmdir()

    metrics = report["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        report["setup_s_all"] = setups
    for message in report["messages"]:
        print(f"check failed: {message}", file=sys.stderr)
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "git_sha": git_sha(),
              "src_sha256": src_digest(), **report}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({k: record[k] for k in ("workload", "git_sha", "src_sha256", "env",
                                             "sizes", "expected_counts")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
