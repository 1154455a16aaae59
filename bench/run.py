#!/usr/bin/env python3
"""frogmodel benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload stall_ensemble --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout and nowhere else.  ``--trace 0`` runs operations back to back
for ``--seconds`` and reports the end-to-end metrics; ``--trace 1`` runs
fixed batches of operations untraced and then traced, and reports the
per-layer metrics.  Either way the outputs are checked, and the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("stall_ensemble", "cli_simulate", "chain_lattice")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import frogmodel.cli; "
                "print(time.perf_counter() - t)")


def since_process_start() -> float:
    """Seconds since this process was created, from the kernel's start time."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22: starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def load_program():
    """Import frogmodel from this checkout's src/; None if it is not there.

    Returns the package and the environment for child processes: the
    environment as it was, with src/ put first on PYTHONPATH, so children
    start as a user would start them.  The in-process workloads are
    single-threaded, so BLAS is pinned to one thread here, before numpy
    loads, but not for the children.  The working directory becomes the
    checkout root, where every output goes.
    """
    src = ROOT / "src"
    if not (src / "frogmodel" / "__init__.py").is_file():
        return None, None
    os.chdir(ROOT)
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import frogmodel
    import frogmodel.cli  # noqa: F401  (every workload pays the CLI's import)
    if Path(frogmodel.__file__).resolve().parent != (src / "frogmodel").resolve():
        return None, None
    return frogmodel, child_env


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Checker:
    """Check verdicts, gathered as operations finish.

    Checks that need the whole sample (a KS test, the --threads 1 repeat) run
    once at the end on the compact form each workload keeps of its first
    SAMPLE_CAP records.  Every other check runs on each operation's records,
    which are then dropped.  So the benchmark's memory stops growing with the
    operation count, and a faster program does not read as a larger one in
    ``peak_rss_mb``.
    """

    SAMPLE_CAP = 2000

    def __init__(self, wl):
        self.wl, self.sample, self.verdicts = wl, [], {}

    def add(self, records):
        for name, check in self.wl.checks.items():
            if name not in self.wl.sample_checks:
                self._run(name, check, records)
        for record in records:
            kept = self.wl.compact(record)
            if kept is not None and len(self.sample) < self.SAMPLE_CAP:
                self.sample.append(kept)

    def finish(self, timed):
        """(all passed, {check: verdict}); ``timed`` runs the workload's ``after``."""
        if timed:
            self.wl.after()
        for name in self.wl.sample_checks:
            if timed or name not in self.wl.needs_after:
                self._run(name, self.wl.checks[name], self.sample)
        details = {name: ("pass " if ok else "FAIL ") + detail
                   for name, (ok, detail) in self.verdicts.items()}
        return all(ok for ok, _ in self.verdicts.values()), details

    def _run(self, name, check, records):
        try:
            ok, detail = check(records, self.wl.ctx)
        except Exception as exc:  # a check that cannot run has failed
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if self.verdicts.get(name, (True, ""))[0]:  # keep the first failure
            self.verdicts[name] = (ok, detail)


def attempt(fn, k, tally):
    """One operation; a raised error counts as a failed operation."""
    tally["attempted"] += 1
    try:
        return fn(k)
    except Exception:
        tally["failed"] += 1
        if tally["failed"] == 1:
            traceback.print_exc(file=sys.stderr)
        return None


def timed_run(wl, seconds, setup_s):
    tally = {"attempted": 0, "failed": 0}
    checker = Checker(wl)
    durations, replicas = array("d"), 0
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        out = attempt(wl.op, k, tally)
        if out is not None:
            durations.append(out[0])
            replicas += out[1]
            checker.add(out[2])
        k += 1
    rss = peak_rss_mb()
    correct, details = checker.finish(timed=True)
    busy = sum(durations)
    metrics = {
        "setup_s": (setup_s, "s"),
        "replicas_per_s": (replicas / busy if busy > 0 else 0.0, "1/s"),
        "op_p50_s": (statistics.median(durations) if durations else 0.0, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return correct, tally, metrics, details


def traced_run(wl, seconds, fm, child_env):
    """Fixed batches, each run untraced and then traced; per-layer metrics."""
    from spans import Tracer, install_layers

    tracer = Tracer()
    tally = {"attempted": 0, "failed": 0}
    checker = Checker(wl)  # checks the first untraced batch
    plain = traced = 0.0
    n_traced = 0
    deadline = time.perf_counter() + seconds
    while n_traced == 0 or time.perf_counter() < deadline:
        for k in range(wl.trace_ops):
            out = attempt(wl.trace_op, k, tally)
            if out is not None:
                plain += out[0]
                if n_traced == 0:
                    checker.add(out[2])
        try:
            install_layers(tracer, fm)
            for k in range(wl.trace_ops):
                out = attempt(wl.trace_op, k, tally)
                if out is not None:
                    traced += out[0]
        finally:
            tracer.restore()
        tracer.keep_spans = False  # raw spans of the first traced batch only
        n_traced += wl.trace_ops
    correct, details = checker.finish(timed=False)
    tracer.write_spans(str(ROOT / ".bench_out" / "spans"
                           / f"{wl.name}-seed{wl.seed}.jsonl"))
    metrics = layer_metrics(tracer, n_traced, child_env)
    metrics["trace.overhead_ratio"] = (traced / plain if plain > 0 else 0.0, "ratio")
    return correct, tally, metrics, details


def layer_metrics(tr, n, child_env):
    """Per-operation layer figures from the tracer's aggregates."""
    def per(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    steps, peeks = tr.calls["heat.step"], tr.calls["heat.peek"]
    solves = steps + peeks
    factors = tr.counts["heat.factorizations"]
    events = tr.counts["frog.events"]
    jumps = tr.counts["lattice.jumps"]
    spatial_self = sum(v for k, v in tr.self_time.items() if k.startswith("spatial."))
    return {
        "heat.step_calls": (per(steps), "count"),
        "heat.peek_calls": (per(peeks), "count"),
        "heat.factorizations": (per(factors), "count"),
        "heat.refactor_ratio": (ratio(factors, solves), "ratio"),
        "heat.solve_us": (1e6 * ratio(tr.total["heat.step"] + tr.total["heat.peek"], solves), "us"),
        "heat.self_s": (per(tr.self_time["heat.step"] + tr.self_time["heat.peek"]), "s"),
        "frog.events": (per(events), "count"),
        "frog.peeks_per_event": (ratio(peeks, events), "count"),
        "frog.ms_per_event": (1e3 * ratio(tr.total["frog.simulate"], events), "ms"),
        "frog.self_s": (per(tr.self_time["frog.simulate"]), "s"),
        "colony.calls": (per(tr.calls["colony.sample_wake_threshold"]), "count"),
        "colony.self_s": (per(tr.self_time["colony.sample_wake_threshold"]), "s"),
        "spatial.points": (per(tr.counts["spatial.points"]), "count"),
        "spatial.self_s": (per(spatial_self), "s"),
        "lattice.jumps": (per(jumps), "count"),
        "lattice.expm_calls": (per(tr.counts["lattice.expm_calls"]), "count"),
        "lattice.ms_per_jump": (1e3 * ratio(tr.total["lattice.simulate_mps"], jumps), "ms"),
        "lattice.self_s": (per(tr.self_time["lattice.simulate_mps"]), "s"),
        "runio.config_s": (per(tr.total["runio.config"]), "s"),
        "runio.write_s": (per(tr.total["runio.write"]), "s"),
        "runio.bytes_written": (per(tr.counts["runio.bytes_written"]), "B"),
        "cli.import_s": (cli_import_s(child_env), "s"),
        "cli.self_s": (per(tr.self_time["cli.main"]), "s"),
        "src.lines": (float(src_lines()), "lines"),
    }


def cli_import_s(child_env, repeats=3):
    """Median time to import frogmodel.cli in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env,
                             stdout=subprocess.PIPE, check=True, timeout=60)
        times.append(float(out.stdout.decode().strip().splitlines()[-1]))
    return statistics.median(times)


def src_lines() -> int:
    total = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    fm, child_env = load_program()
    if fm is None:
        print(f"error: no frogmodel package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](fm, args.seed, child_env)
    setup_s = since_process_start()
    try:
        if args.trace:
            correct, tally, metrics, details = traced_run(wl, args.seconds, fm, child_env)
        else:
            correct, tally, metrics, details = timed_run(wl, args.seconds, setup_s)
    finally:
        wl.close()
    for name, detail in details.items():
        print(f"check {name}: {detail}", file=sys.stderr)
    result = {
        "correct": bool(correct),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    out = ROOT / ".bench_out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
