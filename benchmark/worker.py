"""One workload run in a fresh interpreter; started by run.py.

    python3 benchmark/worker.py --workload W --seed N --seconds S --trace 0|1
        --out DIR [--scale full|tiny] [--setup-only]

The last line of standard output is a JSON object.  With ``--setup-only``
it holds ``setup_s`` alone; otherwise the measured metrics and the path of
the full run record.
"""

import time

import hostspeed

SPEED = hostspeed.Speed()      # samples host speed from here to the end
if __name__ == "__main__":
    SPEED.start()
_T0 = time.perf_counter()  # setup_s starts here, before spinlind is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spinlind  # noqa: E402,F401  (the import is part of setup_s)
import envinfo  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Every calculation is timed in at least this many passes, spread over the
# run; its time is the median of its passes.  A cli_configs pass takes most
# of --seconds, so that workload runs exactly this many.
MIN_PASSES = 2


def tail_percentile(n):
    """Highest whole percentile with at least ten of ``n`` samples beyond it.

    Uses the nearest-rank definition.  Returns None below eleven samples.
    """
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)          # ceil(p n / 100)
        if n - rank >= 10:
            return p
    return None


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, -(-p * len(ordered) // 100) - 1)]


class Run:
    """Repeated passes over a workload's calculations, checks untimed."""

    def __init__(self, calcs, speed, tracer=None, on_traced=None, verified=None):
        self.calcs = calcs
        self.speed = speed             # hostspeed.Speed sampling this process
        self.tracer = tracer
        self.on_traced = on_traced     # called after each traced calc (cli spans)
        self.spans = [[] for _ in calcs]      # (start, end) of each timed pass
        self.pass_walls = []
        self.failures = []
        self.attempted = 0
        self.described = {}
        # cid -> fingerprint of an output that passed its check
        self.verified = {} if verified is None else verified

    def _one(self, calc):
        t0 = time.perf_counter()
        try:
            if self.tracer is not None:
                out = self.tracer.run_calc(calc.cid, calc.run)
            else:
                out = calc.run()
            err = None
        except Exception as exc:  # a failing calculation is counted, not fatal
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        return out, err, t0, time.perf_counter()

    def _check(self, calc, out):
        if self.tracer is not None:
            self.tracer.active = False
        try:
            digest = hashlib.sha256(calc.fingerprint(out)).digest()
            if self.verified.get(calc.cid) == digest:
                return None
            err = calc.check(out)
            if err is None:
                self.verified[calc.cid] = digest
                self.described.setdefault(calc.cid, calc.describe(out))
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
        finally:
            if self.tracer is not None:
                self.tracer.active = True
        return err

    def measure(self, budget_s):
        """Passes until another pass would take the timed work past ``budget_s``.

        At least ``MIN_PASSES``.  Untimed checks do not count against the
        budget.
        """
        while (len(self.pass_walls) < MIN_PASSES
               or sum(self.pass_walls) + self.pass_walls[-1] <= budget_s):
            wall = 0.0
            for i, calc in enumerate(self.calcs):
                out, err, t0, t1 = self._one(calc)
                if self.on_traced is not None:
                    self.on_traced(calc)
                self.attempted += 1
                self.spans[i].append((t0, t1))
                wall += t1 - t0
                if err is None:
                    err = self._check(calc, out)
                if err is not None:
                    self.failures.append({"cid": calc.cid, "pass": len(self.pass_walls),
                                          "reason": err})
                del out
            self.pass_walls.append(wall)

    @property
    def raw_times(self):
        """Elapsed seconds of each calculation's passes."""
        return [[t1 - t0 for t0, t1 in spans] for spans in self.spans]

    @property
    def times(self):
        """Each calculation's passes in reference seconds (hostspeed.py)."""
        return [[self.speed.scaled(t0, t1) for t0, t1 in spans]
                for spans in self.spans]

    def per_calc(self):
        """Each calculation's time: the median of its passes, in reference seconds."""
        return [statistics.median(t) for t in self.times]

    def net_wall(self):
        """Elapsed seconds of all passes, less the host-speed kernel's share."""
        return sum(t1 - t0 - self.speed.kernel_time(t0, t1)
                   for spans in self.spans for t0, t1 in spans)


def warm_up(calcs):
    """Run the first calculation of each kind and drive once, untimed.

    Lazy set-up inside numpy and scipy then finishes before timing starts.
    CLI runs pay it in every fresh interpreter, so they are not warmed.
    """
    seen = set()
    for calc in calcs:
        key = (calc.kind, calc.props.get("drive"))
        if key in seen or calc.kind == "cli":
            continue
        seen.add(key)
        calc.run()


def end_to_end(run, setup_s, workload):
    per_calc = run.per_calc()
    # A cli_configs pass has too few runs for a tail with ten calculations
    # beyond it, so its tail is taken over every pass's samples.
    tail_over = (sorted(t for ts in run.times for t in ts) if workload == "cli_configs"
                 else per_calc)
    n = len(tail_over)
    p = tail_percentile(n) or 100       # below eleven samples: the maximum
    who = resource.RUSAGE_CHILDREN if workload == "cli_configs" else resource.RUSAGE_SELF
    metrics = {
        "wall_s": {"value": sum(per_calc), "unit": "s"},
        "calc_p50_s": {"value": statistics.median(per_calc), "unit": "s"},
        "calc_tail_s": {"value": nearest_rank(tail_over, p), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "failed_frac": {"value": len(run.failures) / run.attempted, "unit": "ratio"},
    }
    tail_info = {"percentile": p, "over": "samples" if workload == "cli_configs"
                 else "calculations", "count": n, "beyond": n - -(-p * n // 100)}
    return metrics, tail_info


def load_child_spans(calc, all_spans, counters, import_times):
    """Append the spans a traced CLI child wrote, re-indexing parents."""
    if not os.path.exists(calc.span_file):      # the child died; its check fails
        return
    with open(calc.span_file) as fh:
        data = json.load(fh)
    offset = len(all_spans)
    for name, start, end, parent, _, tag in data["spans"]:
        all_spans.append((name, start, end, parent + offset if parent >= 0 else -1,
                          calc.cid, tag))
    counters.update(data["counters"])
    import_times.append(data["import_s"])
    os.remove(calc.span_file)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    calcs = workloads.generate(args.workload, args.seed, args.scale, out_dir, ROOT,
                               dict(os.environ))
    setup_s = SPEED.scaled(_T0, time.perf_counter())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    warm_up(calcs)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale,
              "env": envinfo.record(envinfo.openblas_handles())}
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = Run(calcs, SPEED)
    plain.measure(budget)
    metrics, tail_info = end_to_end(plain, setup_s, args.workload)

    SPEED.stop()    # traced times are elapsed, without the kernel inside spans
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        spans, counters, import_times = tracer.spans, tracer.counters, []
        on_traced = None
        if args.workload == "cli_configs":
            for calc in calcs:
                calc.span_file = out_dir / f"spans{calc.cid}.json"
            def on_traced(calc):
                load_child_spans(calc, spans, counters, import_times)
        traced = Run(calcs, SPEED, tracer=tracer, on_traced=on_traced,
                     verified=plain.verified)
        traced.measure(budget)
        tracer.active = False
        props = {c.cid: c.props for c in calcs}
        extra = {
            "trace.overhead_frac": (sum(traced.pass_walls) / len(traced.pass_walls))
                                   / (plain.net_wall() / len(plain.pass_walls)) - 1.0,
            "cli.import_s": statistics.mean(import_times) if import_times else 0.0,
        }
        layer, self_sum = tracing.summarize(spans, counters, props,
                                            len(traced.pass_walls), extra)
        record.update({
            "per_layer": layer,
            "trace_check": {"self_sum_s_per_pass": self_sum,
                            "traced_wall_s_per_pass": sum(traced.pass_walls)
                            / len(traced.pass_walls),
                            "spans": len(spans)},
        })
        tracer.dump(out_dir / "spans.json", calc_props=props)
        plain.failures += traced.failures
        plain.attempted += traced.attempted
        plain.described.update(traced.described)
        metrics["failed_frac"]["value"] = len(plain.failures) / plain.attempted

    per_calc = plain.per_calc()
    record.update({
        "end_to_end": metrics,
        "calc_tail": tail_info,
        "passes": len(plain.pass_walls),
        "pass_walls_s": plain.pass_walls,
        "host_speed": {"nominal_s": hostspeed.NOMINAL_S, "at_s": SPEED.at,
                       "took_s": SPEED.took},
        "attempted": plain.attempted,
        "failures": plain.failures,
        "calcs": [{"cid": c.cid, "kind": c.kind, **c.props,
                   **plain.described.get(c.cid, {}), "time_s": t, "samples_s": ts,
                   "elapsed_samples_s": raw, "spans_s": spans}
                  for c, t, ts, raw, spans in zip(calcs, per_calc, plain.times,
                                                  plain.raw_times, plain.spans)],
    })
    record_path = out_dir / "record.json"
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"attempted": plain.attempted, "failed": len(plain.failures),
                      "record": str(record_path)}))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        SPEED.stop()    # a SIGALRM after the handler is gone ends the process
    sys.exit(code)
