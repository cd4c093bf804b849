"""Benchmark of the tripler toolkit: seeded workloads, oracles, per-layer trace.

Run from the repository root; tripler is imported from ``src/``:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are ``cli-session``, ``steady-map``, ``flux-calibration`` and
``attractor-ensemble``; BENCHMARK.json records why each exists and names
the metrics.  A run sets up, then repeats rounds of a fixed size for
``--seconds`` (at least the workload's minimum number of rounds), one
client at a time.  Every operation is checked by an oracle after the timed
phase.  The last line of stdout is one JSON object: with ``--trace 0`` it
carries the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
one extra round run with spans around each layer's public entry points
(after one more untraced round, for the tracing overhead).
Full results (machine facts, item counts, failures with their inputs, all
latencies) and the spans go to ``.perfbench_out/``.  The exit code is 1 when
an oracle failed and 2 when tripler cannot be imported from ``src/``.

End-to-end metrics:

- ``setup_s``: median of three fresh-process set-ups (import tripler, build
  the workload's inputs from the seed);
- ``wall_s``: median over rounds of one round's wall time, each operation
  scaled to a fixed machine speed measured by a reference timed between
  operations (see :class:`SpeedProbe`).  Unscaled times are kept in the
  results file;
- ``peak_rss_mib``: peak resident memory of this process, or of the largest
  CLI child for ``cli-session``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_SAMPLES = 3
#: reference times that define the speed end-to-end timings are scaled to
REF_KERNEL_S = 0.01
REF_CHILD_S = 0.2
MAX_FAILURES_KEPT = 50


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-session", "steady-map", "flux-calibration",
                                 "attractor-ensemble"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(name, seed, workdir):
    """Import tripler and build the workload's inputs, timed from scratch."""
    t0 = time.perf_counter()
    import workloads

    import tripler
    if Path(tripler.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"tripler resolved to {tripler.__file__}, not {SRC}")
    wl = workloads.WORKLOADS[name](seed, workdir)
    return wl, time.perf_counter() - t0


class Ledger:
    """Attempted and failed operations, with the input of every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def settle(self, ops, check):
        from workloads import Mismatch

        for op in ops:
            self.attempted += 1
            reason = None
            if op.error is not None:
                reason = f"raised {type(op.error).__name__}: {op.error}"
            else:
                try:
                    check(op)
                except Mismatch as exc:
                    reason = str(exc)
                except Exception as exc:  # a crashing oracle is a failure too
                    reason = f"oracle raised {type(exc).__name__}: {exc}"
            op.result = None    # keep memory flat across rounds
            if reason is not None:
                self.failed += 1
                if len(self.failures) < MAX_FAILURES_KEPT:
                    self.failures.append({"op": op.op_id, "input": op.inputs,
                                          "reason": reason})


def reference_kernel():
    """Fixed scalar-float and small-array work: about 9 ms on a 2-vCPU Xeon VM."""
    import numpy as np

    x = 0.0
    for i in range(50000):
        x += math.sqrt(i + 1e-9 * x)
    a = np.arange(64.0)
    for _ in range(1000):
        a = np.sqrt(a + 1.0)
    return x + float(a[0])


def reference_child():
    """A fresh interpreter importing numpy and stdlib modules, not tripler.

    About 0.16 s on a 2-vCPU Xeon VM: the same kind of work (process start,
    unmarshalling, dynamic loading) that dominates a short CLI call.
    """
    subprocess.run([sys.executable, "-c",
                    "import numpy, argparse, json, struct, tempfile"],
                   check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=60)


class SpeedProbe:
    """Times a reference between operations, at most every INTERVAL seconds.

    On a shared 2-vCPU Xeon VM the speed of the same code drifts by some 20%
    over seconds to minutes.  Scaling each operation by the reference time
    measured around it removes most of that drift from the end-to-end
    timings: over five seeds the spread of ``wall_s`` on steady-map fell from
    18% to 5%.  Operations that compute in this process are scaled by
    :func:`reference_kernel`, those that run child processes by
    :func:`reference_child`.
    """

    INTERVAL = 0.2

    def __init__(self, in_process=True):
        self.reference = reference_kernel if in_process else reference_child
        self.nominal_s = REF_KERNEL_S if in_process else REF_CHILD_S
        self.times = []
        self.reference_s = []
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.reference_s.append(t1 - t0)

    def start_op(self, op_id):
        if time.perf_counter() - self.times[-1] >= self.INTERVAL:
            self.sample()

    def scale(self, op):
        """Nominal over the mean reference time just before and after ``op``."""
        i = bisect.bisect_right(self.times, op.start) - 1
        j = min(i + 1, len(self.times) - 1)
        return self.nominal_s / (0.5 * (self.reference_s[i]
                                        + self.reference_s[j]))


def run_rounds(wl, seconds, ledger):
    """Untraced rounds until ``seconds`` pass and the minimum count is met.

    Returns each round's wall time (the sum of its operations) as measured
    and scaled to the reference speed, and every operation.
    """
    walls, scaled, ops = [], [], []
    probe = SpeedProbe(wl.in_process)
    t_start = time.perf_counter()
    r = 0
    while r < wl.min_rounds or time.perf_counter() - t_start < seconds:
        round_ops = wl.run(wl.inputs(r), r, probe)
        probe.sample()
        walls.append(sum(op.seconds for op in round_ops))
        scaled.append(sum(op.seconds * probe.scale(op) for op in round_ops))
        ledger.settle(round_ops, wl.check)
        ops.extend(round_ops)
        r += 1
    return walls, scaled, ops


def bracketed_round(run, inputs, r, observer=None):
    """One round between two reference-kernel timings: ops, raw and scaled wall."""
    probe = SpeedProbe()
    ops = run(inputs, r, observer)
    probe.sample()
    wall = sum(op.seconds for op in ops)
    return ops, wall, wall * probe.nominal_s / statistics.mean(probe.reference_s)


def import_metrics(workdir):
    """Import cost of ``tripler.cli`` in a fresh interpreter (-X importtime)."""
    from workloads import run_child

    env = dict(os.environ, PYTHONPATH=str(SRC))
    code, _, err, _ = run_child(
        [sys.executable, "-X", "importtime", "-c", "import tripler.cli"],
        workdir, env)
    if code != 0:
        raise RuntimeError(f"import probe failed: {err[-400:]}")
    total = scipy_us = 0
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":")[1])
            cum_us = int(parts[1])
        except ValueError:
            continue        # the column header
        name = parts[2].rstrip()
        if name == " tripler.cli":
            total = cum_us
        if name.strip().split(".")[0] == "scipy":
            scipy_us += self_us
    return {"import.tripler_s": total * 1e-6, "import.scipy_s": scipy_us * 1e-6}


def machine_facts():
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version,
            "platform": platform.platform()}


def _jsonable(value):
    import numpy as np

    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value if isinstance(value, (str, int, float, bool, type(None))) \
        else repr(value)


def benchmark(args, workdir):
    sys.path.insert(0, str(SRC))
    try:
        wl, setup_s = setup(args.workload, args.seed, workdir)
    except ImportError as exc:
        print(f"perfbench: cannot import tripler from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setups = [setup_s]
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            code, out, err, _ = workloads.run_child(
                [sys.executable, str(HERE / "run.py"), "--setup-only",
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", "0"], workdir, dict(os.environ))
            if code != 0:
                raise RuntimeError(f"set-up probe failed: {err[-400:]}")
            setups.append(json.loads(out.splitlines()[-1])["setup_s"])

    ledger = Ledger()
    walls, scaled, ops = run_rounds(wl, args.seconds, ledger)
    latencies = wl.latency_metrics(ops)
    measured = {"setup_s": statistics.median(setups),
                "wall_s": statistics.median(scaled),
                "wall_unscaled_s": statistics.median(walls),
                "peak_rss_mib": wl.peak_rss_kib() / 1024.0}
    wanted = spec["end_to_end"]
    results = {"rounds": len(walls), "round_wall_s": walls,
               "round_wall_scaled_s": scaled,
               "setup_samples_s": setups, "latencies": latencies}

    if args.trace == 1:
        import spans

        # the traced round is compared with an untraced round of the same
        # kind run just before it (in-process for the CLI, whose child
        # processes the tracer cannot see)
        r = len(walls)
        run = getattr(wl, "run_inprocess", wl.run)
        base_ops, _, base = bracketed_round(run, wl.inputs(r), r)
        ledger.settle(base_ops, wl.check)
        results["untraced_round_wall_scaled_s"] = base
        r += 1
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_ops, _, traced = bracketed_round(run, wl.inputs(r), r, tracer)
        finally:
            tracer.uninstall()
        ledger.settle(traced_ops, wl.check)
        overhead = traced - base
        measured.update(spans.layer_metrics(tracer.spans))
        measured.update(import_metrics(workdir))
        measured.update(latencies)
        measured.update(wl.layer_facts())
        measured["trace.overhead_s"] = overhead
        results.update({"tracing_overhead_s": overhead,
                        "traced_spans": len(tracer.spans),
                        "untraced_targets": tracer.missing})
        wanted = spec["per_layer"]
        span_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(span_path)
        results["spans_file"] = str(span_path.relative_to(ROOT))

    metrics = {}
    for m in wanted:
        value = measured.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    results.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "items": wl.facts(), "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_frac": ledger.failed / max(ledger.attempted, 1),
        "failures": ledger.failures, "metrics": metrics,
        "all_measured": measured,
    })
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(_jsonable(results), indent=1) + "\n",
                           encoding="utf-8")
    for f in ledger.failures[:5]:
        print(f"perfbench: FAILED {f['op']}: {f['reason']} "
              f"(input {json.dumps(_jsonable(f['input']))[:300]})", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(walls)} rounds, "
          f"{ledger.attempted} operations, {ledger.failed} failed; "
          f"results in {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0 if ledger.failed == 0 else 1


def main(argv=None):
    args = parse_args(argv)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
