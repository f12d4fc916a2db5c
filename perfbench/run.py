#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the tau2 command-line tool.

Run from the repository root:

    python3 perfbench/run.py --workload exact_enum --seed 1 --seconds 25 --trace 0

One process generates the load: it writes the workload's input files for
``--seed``, then calls ``tau2.cli.main(argv)`` in-process on them, pass
after pass, for ``--seconds`` seconds.  Every invocation's stdout is checked
(see ``Runner``).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
``--record-golden`` rewrites golden.json from the current sources (only
when a change to stdout is intended and explained).

Exit codes: 0 with a result line, 2 when the tau2 sources or the benchmark
files are missing, 1 on any other error, without a result line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import workloads
from speedref import SpeedRef
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 1
SETUP_STARTS = 11  # fresh interpreters timed per run, after one that warms the .pyc files
MIN_PASSES = 2  # per pass kind, however short --seconds is


class Runner:
    """Runs passes of one workload and checks every invocation's stdout.

    An invocation fails when it exits non-zero or raises, or when its stdout
    differs from the expected bytes: the digest in golden.json on the golden
    seed, and on every seed the workload's own check and then the stdout of
    the first pass, whatever the thread count.
    """

    def __init__(self, wl: workloads.Workload, digests: dict[str, str]):
        self.wl = wl
        self.digests = digests
        self.expected: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, threads: int, ref: SpeedRef | None = None) -> tuple[list[float], int]:
        """One pass over the workload's invocations: (seconds of each, stdout bytes).

        With ``ref``, reference work samples the machine's speed during the
        pass, and its time is taken out of each invocation's.
        """
        cli = sys.modules["tau2.cli"]
        clock = ref.clock if ref is not None else time.perf_counter
        results = []
        with ref.sampling() if ref is not None else contextlib.nullcontext():
            for inv in self.wl.invocations:
                out, err = io.StringIO(), io.StringIO()
                inside = ref.spent if ref is not None else 0.0
                start = clock()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        rc = cli.main(["--threads", str(threads), *inv.argv])
                    except Exception:  # a traceback is a failed invocation, not a crashed benchmark
                        rc = None
                        err.write(traceback.format_exc())
                elapsed = clock() - start
                if ref is not None:
                    elapsed -= ref.spent - inside
                results.append((elapsed, inv.label, rc, out.getvalue(), err.getvalue()))
        for _, label, rc, out, err in results:
            self._check(label, rc, out, err)
        return [r[0] for r in results], sum(len(r[3].encode()) for r in results)

    def _check(self, label, rc, out, err):
        self.attempted += 1
        problem = None
        if rc != 0:
            problem = f"exit code {rc}: {err.strip()[-500:]}"
        elif label in self.expected:
            if out != self.expected[label]:
                problem = "stdout differs from the first pass"
        else:
            digest = self.digests.get(label)
            if digest is not None and hashlib.sha256(out.encode()).hexdigest() != digest:
                problem = "stdout differs from the digest in golden.json"
            else:
                problem = self.wl.checks[label](out)
            if problem is None:
                self.expected[label] = out
        if problem:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")


def par_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def measure_setup(wl: workloads.Workload) -> float:
    """Median time from starting a fresh interpreter to ready (tau2.cli
    imported and the workload's input files parsed), scaled to the
    reference speed by reference work ticked between the starts.

    The time is the CPU time the interpreter reports at ready: start-up
    reads only files in the page cache, so it waits on nothing but the CPU,
    and CPU time leaves out steal time.  The benchmark process holds to one
    CPU meanwhile, and the interpreters it starts inherit that, so the
    starts and the reference run on the same CPU."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), SRC, json.dumps(wl.inputs)]
    ref = SpeedRef()
    samples, walls = [], []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for k in range(SETUP_STARTS + 1):
            start = time.perf_counter()
            with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
                line = proc.stdout.readline()
                wall = time.perf_counter() - start
                _, err = proc.communicate(timeout=120)
            if not line.startswith("ready ") or proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
            if k:
                samples.append(float(line.split()[1]))
                walls.append(wall)
                ref.after(samples[-1])
    finally:
        os.sched_setaffinity(0, cpus)
    print(
        f"# setup_s: {statistics.median(samples)} s as timed ({statistics.median(walls)} s on the wall clock), "
        f"reference speed scale {ref.scale()}"
    )
    return statistics.median(samples) * ref.scale()


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def rate(items: int, passes: list[list[float]]) -> float:
    """Items per second over all ``passes``."""
    return items * len(passes) / sum(map(sum, passes))


def run_end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    """The end-to-end metrics.  Each pass is scaled to the reference speed
    by reference work run during it (see speedref.py): the workload and the
    reference sample the same stretches of machine speed, so their ratio is
    steady where either time alone is not.  A rate is the items of a pass
    over the median scaled pass, so a stretch in which the other vCPU is
    taken away, which slows the pool's hand-offs several times more than it
    slows the CPU, moves it only if it lasts half the run."""
    wl, par = runner.wl, par_threads()
    setup_s = measure_setup(wl)
    # --threads 1 passes run on this process alone and are timed in its CPU
    # time, which steal time does not inflate.  The pool's passes are timed
    # on the wall clock, because what the pool buys is wall time.
    kinds = {"items_per_s": (1, time.process_time), "items_per_s_par": (par, time.perf_counter)}
    passes = {name: [] for name in kinds}  # name -> [(seconds as timed, scale)]
    start = time.perf_counter()
    # Warm-up pass: fills caches and fixes the expected stdout of every invocation.
    runner.run_pass(1)
    while time.perf_counter() - start < seconds or len(passes["items_per_s_par"]) < MIN_PASSES:
        for name, (threads, clock) in kinds.items():
            ref = SpeedRef(clock)
            passes[name].append((sum(runner.run_pass(threads, ref)[0]), ref.scale()))
    rates = {}
    for name, timed in passes.items():
        unscaled = wl.items / statistics.median(t for t, _ in timed)
        scale = statistics.median(k for _, k in timed)
        print(f"# {name}: {unscaled} 1/s as timed, reference speed scale {scale}")
        rates[name] = wl.items / statistics.median(t * k for t, k in timed)
    return {
        **rates,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass(runner: Runner, tracer: Tracer) -> tuple[list[float], dict[str, float]]:
    """One single-threaded pass with the tracer installed: (seconds of each invocation, layer metrics)."""
    tracer.reset()
    tracer.install()
    try:
        times, emitted = runner.run_pass(1)
    finally:
        tracer.uninstall()
    metrics = {}
    for name, (calls, total_s, self_s) in tracer.stats.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.total_s"] = total_s
        if not name.startswith("randmodel.property."):
            metrics[f"{name}.self_s"] = self_s
    metrics["cli.main.s_per_call"] = metrics["cli.main.total_s"] / metrics["cli.main.calls"]
    metrics["cli.emit_bytes"] = emitted
    metrics["core.Tau2Presentation.lam.calls"] = tracer.lam_calls
    metrics["dioph.box_solve.points"] = tracer.box_points
    metrics["intlin.max_entry_bits"] = tracer.max_entry_bits
    metrics["intlin.max_rows"] = tracer.max_rows
    metrics["intlin.max_cols"] = tracer.max_cols
    metrics["structure.center.calls_per_presentation"] = metrics["structure.center.calls"] / runner.wl.presentations
    return times, metrics


COUNT_SUFFIXES = (".calls", ".points", ".max_entry_bits", ".max_rows", ".max_cols", ".emit_bytes", ".calls_per_presentation")


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly for the same inputs."""
    return name.endswith(COUNT_SUFFIXES)


def run_traced(runner: Runner, seconds: float) -> dict[str, float]:
    wl, par, tracer = runner.wl, par_threads(), Tracer()
    untraced, traced, layers, cpu_util = [], [], [], []
    start = time.perf_counter()
    runner.run_pass(1)
    while time.perf_counter() - start < seconds or len(cpu_util) < MIN_PASSES:
        if len(untraced) == len(cpu_util):
            untraced.append(runner.run_pass(1)[0])
        elif len(traced) < len(untraced):
            times, metrics = traced_pass(runner, tracer)
            traced.append(times)
            layers.append(metrics)
        else:
            cpu_start, wall_start = cpu_seconds(), time.perf_counter()
            runner.run_pass(par)
            cpu_util.append((cpu_seconds() - cpu_start) / (time.perf_counter() - wall_start))
    first = layers[0]
    for metrics in layers[1:]:
        changed = [k for k in first if is_count(k) and metrics[k] != first[k]]
        if changed:
            runner.problems.append(f"counts changed between traced passes: {', '.join(sorted(changed))}")
            break
    for name in workloads.EXPECTED_CALLS[wl.name]:
        if first[f"{name}.calls"] == 0:
            runner.problems.append(f"{name} recorded no calls on {wl.name}")
    out = {k: v if is_count(k) else statistics.median(m[k] for m in layers) for k, v in first.items()}
    out["randmodel.cpu_util_par"] = statistics.median(cpu_util)
    seq_rate = rate(wl.items, untraced)
    traced_rate = rate(wl.items, traced)
    out["trace.untraced_items_per_s"] = seq_rate
    out["trace.items_per_s"] = traced_rate
    out["trace.overhead_items_per_s"] = seq_rate - traced_rate
    return out


def git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    info = {"python": platform.python_version(), "cpus": os.cpu_count(), "git_sha": git_sha()}
    backend = getattr(sys.modules["tau2"], "kernel_backend", None)
    if backend is not None:
        info["kernel_backend"] = backend()
    return info


def record_golden() -> int:
    digests = {}
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            runner = Runner(workloads.build(name, DEFAULT_SEED, workdir), {})
            runner.run_pass(1)
            if runner.failed:
                print("\n".join(runner.problems), file=sys.stderr)
                return 1
            digests[name] = {label: hashlib.sha256(out.encode()).hexdigest() for label, out in runner.expected.items()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "tau2", "cli.py")) or not os.path.isfile(spec_path):
        print(f"error: run from a tau2 checkout; need {spec_path} and {SRC}/tau2/cli.py", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    importlib.import_module("tau2.cli")
    if args.record_golden:
        return record_golden()
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    digests = golden["digests"][args.workload] if args.seed == golden["seed"] else {}

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        runner = Runner(workloads.build(args.workload, args.seed, workdir), digests)
        measure = run_traced if args.trace else run_end_to_end
        values = measure(runner, args.seconds)
    if set(values) != set(units):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print("# provenance " + json.dumps(provenance(), sort_keys=True))
    for name in sorted(values):
        print(f"{name} = {values[name]} {units[name]}")
    print(f"failed_frac = {runner.failed / runner.attempted} ratio ({runner.failed}/{runner.attempted} invocations)")
    result = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(values)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
