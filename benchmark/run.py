"""spinlind benchmark: seeded workloads, end-to-end metrics, traced per-layer metrics.

    python3 benchmark/run.py --workload spectra --seed 1 --seconds 18 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 18 --trace 0

Workloads (see README.md in this directory for why each exists):
spectra, dynamics, thermal_maps, cli_configs.  Every workload runs in a fresh
worker interpreter, one at a time, with BLAS at one thread (see envinfo.py); setup
time is also measured in fresh interpreters before and after the worker, and
reported as a median.  Times are in reference seconds: elapsed time scaled
by the speed of the host at that moment, as a fixed kernel sampled every
10 ms measures it (see hostspeed.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything the run writes goes to ``.bench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("spectra", "dynamics", "thermal_maps", "cli_configs")
END_TO_END = ("wall_s", "calc_p50_s", "calc_tail_s", "peak_rss_mb", "setup_s")
SETUP_PROBES = 2           # setup-only interpreters before the worker and again after
                           # it; with the worker's own setup, setup_s is a median of 5
PROBE_TIMEOUT_S = 15
RUN_TIMEOUT_S = 170        # whole run, probes included


def child_env():
    sys.path.insert(0, str(BENCH_DIR))
    from envinfo import single_thread_env

    env = single_thread_env(os.environ)
    env.pop("SPINLIND_OUT", None)   # would redirect every CLI run's artifacts
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def worker(args, out_dir, env, timeout, setup_only=False):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale, "--out", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def shares(calcs):
    """Share of calculations and of time for each categorical property value."""
    total = sum(c["time_s"] for c in calcs) or 1.0
    out = []
    for key in ("drive", "commensurate", "D", "groups", "kind", "config"):
        values = sorted({c[key] for c in calcs if key in c}, key=str)
        if len(values) < 2:
            continue
        parts = []
        for v in values:
            sel = [c for c in calcs if c.get(key) == v]
            parts.append(f"{v}: {len(sel)}/{len(calcs)} calcs, "
                         f"{100 * sum(c['time_s'] for c in sel) / total:.0f}% of time")
        out.append(f"  {key:12s} " + "; ".join(parts))
    return out


def report(record, metrics, trace):
    env = record["env"]
    blas = ", ".join(f"{b['owner']}: {b['config'].split()[1]} x{b['threads_in_effect']}"
                     for b in env["openblas"]) or "unknown"
    print(f"# {record['workload']}  seed {record['seed']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  nproc {env['nproc']}  "
          f"OpenBLAS threads ({blas})")
    tail = record["calc_tail"]
    print(f"  {record['passes']} passes of {len(record['calcs'])} calculations; "
          f"calc_tail_s is p{tail['percentile']} over {tail['count']} {tail['over']} "
          f"({tail['beyond']} beyond it)")
    for line in shares(record["calcs"]):
        print(line)
    for f in record["failures"][:5]:
        print(f"  FAILED calc {f['cid']} (pass {f['pass']}): {f['reason']}")
    e2e = record["end_to_end"]
    shown = metrics if trace else {**metrics, "failed_frac": e2e["failed_frac"]}
    for name, m in shown.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")


def run_one(args, env):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = ROOT / ".bench_out" / args.workload
    shutil.rmtree(base, ignore_errors=True)
    setups = []

    def probe_setups(first):
        for k in range(first, first + SETUP_PROBES):
            setups.append(worker(args, base / f"setup{k}", env, PROBE_TIMEOUT_S,
                                 setup_only=True)["setup_s"])

    if not args.trace:
        probe_setups(0)
    after = 0 if args.trace else SETUP_PROBES * PROBE_TIMEOUT_S
    summary = worker(args, base / "run", env, deadline - time.monotonic() - after)
    with open(summary["record"]) as fh:
        record = json.load(fh)
    if args.trace:
        metrics = record["per_layer"]
    else:
        probe_setups(SETUP_PROBES)
        setups.append(record["end_to_end"]["setup_s"]["value"])
        record["end_to_end"]["setup_s"]["value"] = statistics.median(setups)
        record["setup_samples_s"] = setups
        metrics = {k: record["end_to_end"][k] for k in END_TO_END}
    with open(summary["record"], "w") as fh:
        json.dump(record, fh, indent=1)
    report(record, metrics, args.trace)
    failed = summary["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": summary["attempted"],
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: one small calculation per kind (self-test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spinlind" / "__init__.py").is_file():
        print(f"no spinlind sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        args.workload = workload
        try:
            run_one(args, env)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
                IndexError, KeyError) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
