"""End-to-end CLI benchmark for tubal-spectra.

Run from the repository root:

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 38

This process is the single client of a closed loop.  For every request it
writes fresh inputs generated from ``(seed, request index)``, sends the
request to a workload process (``worker.py``) and waits for the reply
before doing anything else; it then checks the outputs with numpy alone
(``workloads.py``, ``dense.py``) and deletes them.  Generation and checking
happen while the workload process is idle, outside every timed region.

Latencies are reported as multiples of a fixed calibration kernel
(``calib.py``) timed just before each request on the same process, which
cancels most of the drift of a shared host.  Set-up time is the median
over several fresh processes.  ``--trace 1`` interleaves traced and
untraced requests and reports per-layer metrics instead (``tracer.py``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

for _var in ("TUBAL_SPECTRA_THREADS", "OMP_NUM_THREADS",
             "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

from workloads import WORKLOADS, check_request, corrupt_output  # noqa: E402

SETUP_PROCESSES = 5      # fresh processes whose set-up time is measured
# Calibration kernel time on the host the benchmark was defined on.  Set-up
# time is rescaled to that host's speed, see ``end_to_end``.
CAL_REF_S = 2.5e-3
P90_MIN_REQUESTS = 100   # p90 has at least 10 samples beyond it
REPLY_TIMEOUT_S = 60.0


class WorkerError(Exception):
    """The workload process died, hung or broke the protocol."""


class Worker:
    """One workload process and its JSON-lines pipe."""

    def __init__(self, trace, cpu):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), SRC,
             str(int(trace)), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            text=True)

    def call(self, doc):
        self.proc.stdin.write(json.dumps(doc) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    REPLY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise WorkerError("workload process exited or timed out "
                              f"(exit code {self.proc.poll()})")
        return json.loads(line)

    def close(self):
        """Ask the process to exit; returns its final report."""
        report = self.call({"op": "exit"})
        self.proc.stdin.close()
        self.proc.wait(timeout=REPLY_TIMEOUT_S)
        return report

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def pin_client(cpus):
    """Split the allowed CPUs: the last one for workload processes, the
    rest for this client.  Returns the workload CPU, or -1 when there is
    only one CPU to use.  Calibration passes and requests then run on the
    same CPU, and the client's work between requests runs on another."""
    if len(cpus) < 2:
        return -1
    os.sched_setaffinity(0, cpus[:-1])
    return cpus[-1]


def machine_facts(cpus):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "allowed_cpus": len(cpus),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


class Run:
    """One benchmark run: set-up processes, the timed loop, the checks."""

    def __init__(self, workload, args, work, cpu):
        self.wl = workload
        self.args = args
        self.work = work
        self.workers = []
        self.setup_s = []
        self.setup_problems = []
        self.records = []
        self.examples = []
        self.notes = []
        self.cpu = cpu

    def spawn(self, index):
        """Start a worker and run its set-up request on fresh inputs."""
        worker = Worker(self.args.trace, self.cpu)
        self.workers.append(worker)
        d = os.path.join(self.work, f"setup-{index}")
        inputs = self.wl.generate(self.args.seed, 0, index, d)
        reply = worker.call({"cmds": self.wl.argv_list(d)})
        self.setup_s.append(reply["setup_s"])
        self.setup_problems += check_request(self.wl, d, inputs,
                                             reply["outcome"])
        shutil.rmtree(d)
        return worker

    def execute(self):
        count = 1 if self.args.trace else SETUP_PROCESSES
        for index in range(count - 1):
            worker = self.spawn(index)
            worker.close()
        worker = self.spawn(count - 1)
        kept = self.loop(worker)
        if self.args.trace:
            self.layer_pass(worker, kept)
        self.inject_fault(kept)
        self.maxrss_kib = worker.close()["maxrss_kib"]

    def loop(self, worker):
        """The closed loop.  Returns the kept request (directory, inputs,
        outcome): request 1, which is traced, in a traced run, else 0."""
        keep = 1 if self.args.trace else 0
        kept = None
        deadline = time.perf_counter() + self.args.seconds
        index = 0
        while index <= keep or time.perf_counter() < deadline:
            d = os.path.join(self.work, f"req-{index}")
            inputs = self.wl.generate(self.args.seed, 1, index, d)
            traced = bool(self.args.trace) and index % 2 == 1
            reply = worker.call({"op": "run", "id": index, "traced": traced,
                                 "cmds": self.wl.argv_list(d)})
            problems = check_request(self.wl, d, inputs, reply["outcome"])
            if problems and len(self.examples) < 3:
                self.examples.append(f"request {index}: {problems[0]}")
            self.records.append({"ratio": reply["req_s"] / reply["cal_s"],
                                 "req_s": reply["req_s"],
                                 "cal_s": reply["cal_s"], "traced": traced,
                                 "failed": bool(problems)})
            if index == keep:
                kept = (d, inputs, reply["outcome"])
            else:
                shutil.rmtree(d)
            index += 1
        return kept

    def layer_pass(self, worker, kept):
        """Replay the kept traced request untraced and under the counting
        wrappers, compare the outputs byte for byte, then summarize."""
        d, inputs, _ = kept
        self.transparent = True
        self.replay_problems = []
        for op in ("run", "count"):
            out = os.path.join(d, op)
            os.makedirs(out)
            outputs = [os.path.join(out, name)
                       for name in self.wl.output_names()]
            reply = worker.call({"op": op, "id": -1, "traced": False,
                                 "cmds": self.wl.argv_list(d, out),
                                 "outputs": outputs})
            self.replay_problems += check_request(self.wl, out, inputs,
                                                  reply["outcome"])
            self.transparent &= all(
                _same_bytes(os.path.join(d, os.path.basename(path)), path)
                for path in outputs)
        self.count_report = reply["report"]
        spans = os.path.join(SCRATCH, f"spans-{self.wl.name}.npz")
        self.summary = worker.call({"op": "summary", "spans": spans})
        self.notes.append(f"spans written to {os.path.relpath(spans, ROOT)}")

    def inject_fault(self, kept):
        """Corrupt the kept request's output and count it like any other
        request, in a tally of its own."""
        d, inputs, outcome = kept
        corrupt_output(self.wl, d)
        problems = check_request(self.wl, d, inputs, outcome)
        self.injected = {"attempted": 1, "failed": int(bool(problems)),
                         "problem": problems[0] if problems else None}


def _same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run):
    """End-to-end metrics and report lines of an untraced run.

    ``setup_s`` is the median raw set-up time multiplied by
    ``CAL_REF_S / median calibration time of the loop``: seconds at the
    speed of the definition host.  Raw set-up seconds follow the shared
    host's drift, which moved their medians by up to 22% between sets of
    ten runs; rescaling cut that to 3-7% on two of the three workloads.
    """
    ratios = [r["ratio"] for r in run.records]
    n = len(ratios)
    p90 = statistics.quantiles(ratios, n=10, method="inclusive")[8] \
        if n > 1 else ratios[0]
    cal_s = statistics.median(r["cal_s"] for r in run.records)
    setup_raw = statistics.median(run.setup_s)
    metrics = {
        "request_p50_cal": _metric(statistics.median(ratios), "x_cal"),
        "request_p90_cal": _metric(p90, "x_cal"),
        "request_mean_cal": _metric(statistics.fmean(ratios), "x_cal"),
        "setup_s": _metric(setup_raw * CAL_REF_S / cal_s, "s"),
        "peak_rss_mb": _metric(run.maxrss_kib * 1024 / 1e6, "MB"),
    }
    failed = sum(r["failed"] for r in run.records)
    lines = [f"{name} {m['value']:.6g} {m['unit']}"
             for name, m in metrics.items()]
    lines[1] += (f"  (n={n} requests; "
                 f"{'valid' if n >= P90_MIN_REQUESTS else 'NOT valid'}: "
                 f"needs >= {P90_MIN_REQUESTS})")
    lines[3] += (f"  (raw {setup_raw:.6g} s, median of {len(run.setup_s)} "
                 f"fresh processes: "
                 + " ".join(f"{s:.3f}" for s in run.setup_s)
                 + f"; rescaled by {CAL_REF_S * 1e3:g} ms / cal_p50_ms)")
    lines.append(f"fail_ratio {failed / n:.6g} 1  ({failed}/{n} failed)")
    lines.append(
        "context, not gated: request_p50_ms "
        f"{statistics.median(r['req_s'] for r in run.records) * 1e3:.4g} ms,"
        f" cal_p50_ms {cal_s * 1e3:.4g} ms")
    return metrics, lines


def per_layer(run):
    import tracer
    ratios = {flag: [r["ratio"] for r in run.records if r["traced"] == flag]
              for flag in (True, False)}
    # The loop always runs request 0 (untraced) and 1 (traced).
    overhead = statistics.median(ratios[True]) / statistics.median(
        ratios[False])
    metrics, lines = tracer.layer_metrics(run.summary, run.count_report,
                                          overhead)
    raw = {flag: statistics.median(r["req_s"] for r in run.records
                                   if r["traced"] == flag) * 1e3
           for flag in (True, False)}
    lines.insert(0, f"traced requests: {run.summary['requests']} (p50 "
                    f"{raw[True]:.4g} ms), untraced: {len(ratios[False])} "
                    f"(p50 {raw[False]:.4g} ms); calls per request "
                    f"{'identical' if run.summary['calls_exact'] else 'VARY'}"
                    f" across requests")
    return metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tubal_spectra", "cli.py")):
        print(f"error: no tubal_spectra sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(SCRATCH, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    cpus = sorted(os.sched_getaffinity(0))
    run = Run(WORKLOADS[args.workload], args, work, pin_client(cpus))
    try:
        run.execute()
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for worker in run.workers:
            worker.kill()
        shutil.rmtree(work, ignore_errors=True)

    facts = machine_facts(cpus)
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}: closed loop, one "
          f"client, BLAS/FFT pinned to 1 thread, workload process on CPU "
          f"{run.cpu}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    metrics, lines = (per_layer if args.trace else end_to_end)(run)
    for line in lines + run.notes + run.examples:
        print(line)
    inj = run.injected
    print(f"fault injection: a request with one corrupted output file gives "
          f"fail_ratio {inj['failed'] / inj['attempted']:g} "
          f"({inj['failed']}/{inj['attempted']}: {inj['problem']})")
    failed = sum(r["failed"] for r in run.records)
    correct = (failed == 0 and not run.setup_problems
               and inj["failed"] == 1)
    if args.trace:
        print(f"trace transparency: traced output "
              f"{'byte-identical' if run.transparent else 'DIFFERS'}")
        correct = correct and run.transparent and not run.replay_problems
    for problem in run.setup_problems[:3]:
        print(f"set-up request: {problem}")
    print(json.dumps({"correct": correct, "attempted": len(run.records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
