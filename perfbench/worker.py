"""Workload process: runs CLI requests in-process, one at a time, on command.

Usage (started by ``run.py``): ``worker.py <src-dir> <trace 0|1> <cpu>``,
where a ``<cpu>`` other than -1 pins this process to that CPU.
Messages are JSON lines: requests arrive on stdin, replies leave on the
original stdout, and ``sys.stdout`` itself is redirected so that nothing the
program prints can reach the protocol.

The first message is the set-up request.  Its clock starts before
``import tubal_spectra.cli`` and stops when the request ends, so set-up
time covers import-time work (numpy included, as in a fresh CLI process)
and lazy first-call work.  Inputs are written by the client beforehand.
"""

import os
import sys

# BLAS/FFT run on one thread; this must precede the first numpy import.
for _var in ("TUBAL_SPECTRA_THREADS", "OMP_NUM_THREADS",
             "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

CAL_PASSES = 6  # calibration passes per request, half before, half after


def run_request(cli, cmds):
    """Run each command through ``cli.main``; failures are recorded."""
    results = []
    for cmd in cmds:
        err = io.StringIO()
        rc, error = None, None
        try:
            with contextlib.ExitStack() as stack:
                if cmd["stdout"] is not None:
                    sink = stack.enter_context(
                        open(cmd["stdout"], "w", encoding="ascii"))
                    stack.enter_context(contextlib.redirect_stdout(sink))
                stack.enter_context(contextlib.redirect_stderr(err))
                rc = cli.main(cmd["argv"])
        except Exception as exc:  # a failed request must not end the run
            error = f"{type(exc).__name__}: {exc}"
        results.append({"argv": cmd["argv"], "rc": rc, "error": error,
                        "stderr": err.getvalue()})
    return {"commands": results}


def _read_all(paths):
    texts = []
    for path in paths:
        with open(path, encoding="ascii") as fh:
            texts.append(fh.read())
    return texts


def main():
    sys.path.insert(0, sys.argv[1])
    if sys.argv[3] != "-1":
        os.sched_setaffinity(0, {int(sys.argv[3])})
    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = open(os.devnull, "w")

    def reply(doc):
        proto.write(json.dumps(doc) + "\n")
        proto.flush()

    msg = json.loads(sys.stdin.readline())
    start = time.perf_counter()
    from tubal_spectra import cli
    outcome = run_request(cli, msg["cmds"])
    reply({"setup_s": time.perf_counter() - start, "outcome": outcome})

    import calib
    import tracer as tracing
    trace = tracing.Tracer() if sys.argv[2] == "1" else None

    for line in sys.stdin:
        msg = json.loads(line)
        op = msg["op"]
        if op == "run":
            traced = msg["traced"]
            gc.collect()
            if traced:
                trace.begin(msg["id"])
            cal = calib.times(CAL_PASSES // 2)
            t0 = time.perf_counter()
            outcome = run_request(cli, msg["cmds"])
            req_s = time.perf_counter() - t0
            cal += calib.times(CAL_PASSES // 2)
            if traced:
                trace.finish()
            reply({"req_s": req_s, "cal_s": statistics.median(cal),
                   "outcome": outcome})
        elif op == "count":
            record = trace.counting()
            outcome = run_request(cli, msg["cmds"])
            trace.uninstall()
            reply({"outcome": outcome, "report": tracing.counting_report(
                record, _read_all(msg["outputs"]))})
        elif op == "summary":
            trace.save(msg["spans"])
            reply(trace.summary())
        elif op == "exit":
            usage = resource.getrusage(resource.RUSAGE_SELF)
            reply({"maxrss_kib": usage.ru_maxrss})
            return
        else:
            raise ValueError(f"unknown op {op!r}")


if __name__ == "__main__":
    main()
