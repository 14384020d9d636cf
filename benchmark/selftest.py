"""Self-test of the benchmark at tiny sizes.

    python3 benchmark/selftest.py

Checks, for every workload, that:
- every metric is emitted with its unit: the end-to-end metrics (plus
  failed_frac in the run record) with --trace 0, the per-layer metrics with
  --trace 1, exactly as BENCHMARK.json names them;
- a deliberately corrupted result is counted as failed;
- the traced run's self times, summed, do not exceed its wall time;
and that run.py fails without a result where the library sources are absent.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'}  {what}")
    if not ok:
        FAILURES.append(what)


def run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None, None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" / workload / "run" / "record.json").read_text())
    return result, record


def check_metrics(bench):
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(tuple(e2e) == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    expect(layer == tracing.layer_metric_units(),
           "BENCHMARK.json per_layer matches tracing.layer_metric_units()")
    for workload in workloads.WORKLOADS:
        result, record = run_tiny(workload, 0)
        if result is None:
            expect(False, f"{workload}: untraced tiny run")
            continue
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{workload}: result keys")
        expect(result["correct"] and result["failed"] == 0, f"{workload}: outputs correct")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == e2e, f"{workload}: end-to-end metrics with units")
        expect(record["end_to_end"]["failed_frac"]["unit"] == "ratio"
               and record["end_to_end"]["failed_frac"]["value"] == 0.0,
               f"{workload}: failed_frac recorded and 0")

        result, record = run_tiny(workload, 1)
        if result is None:
            expect(False, f"{workload}: traced tiny run")
            continue
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == layer, f"{workload}: per-layer metrics with units")
        tc = record["trace_check"]
        expect(tc["spans"] > 0 and tc["self_sum_s_per_pass"] <= tc["traced_wall_s_per_pass"],
               f"{workload}: summed self time {tc['self_sum_s_per_pass']:.4f} s <= "
               f"traced wall {tc['traced_wall_s_per_pass']:.4f} s")


def _corrupt_spectrum(spec):
    first = dataclasses.replace(spec.lines[0], intensity=spec.lines[0].intensity + 1)
    return dataclasses.replace(spec, lines=(first,) + spec.lines[1:])


def _corrupt_dynamics(out):
    model, final, power, mag = out
    return model, 1.01 * final, power, mag


def _corrupt_thermal(out):
    zetas, dets, corr = out
    return zetas, [1.1 * d + 1e-3 for d in dets], corr


def _corrupt_cli(calc, result):
    csv_path = next((ROOT / ".bench_out" / "selftest" / f"c{calc.cid}").glob("*.csv"))
    csv_path.write_text(csv_path.read_text().replace("1", "2", 1))
    return result


def check_corruption():
    env = run.child_env()
    out_dir = ROOT / ".bench_out" / "selftest"
    corrupt = {"spectra": _corrupt_spectrum, "dynamics": _corrupt_dynamics,
               "thermal_maps": _corrupt_thermal}
    for workload in workloads.WORKLOADS:
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        calcs = workloads.generate(workload, 7, "tiny", out_dir, ROOT, env)
        bad = calcs[0]
        clean_run = bad.run
        if workload == "cli_configs":
            bad.run = lambda c=bad, r=clean_run: _corrupt_cli(c, r())
        else:
            bad.run = lambda f=corrupt[workload], r=clean_run: f(r())
        r = worker.Run(calcs, worker.SPEED)
        r.measure(0.0)
        failed = {f["cid"] for f in r.failures}
        frac = len(r.failures) / r.attempted
        expect(failed == {bad.cid} and frac > 0,
               f"{workload}: corrupted result counted (failed_frac {frac:.3f})")
    shutil.rmtree(out_dir, ignore_errors=True)


def check_bare_directory():
    """run.py must fail without a result where only the benchmark files exist."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, tmp / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "spectra",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "bare directory: non-zero exit and no result")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    check_metrics(bench)
    check_corruption()
    check_bare_directory()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
