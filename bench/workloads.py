"""The three workloads: inputs made from the seed, one operation, its record.

Each workload builds its inputs in ``__init__`` (part of ``setup_s``), runs
one operation per ``op(k)`` and returns ``(seconds, replicas, records)``:
the seconds cover the program calls only, and the records hold the outputs
the checks in ``checks.py`` need, extracted after the clock stopped.  Operation
``k`` depends only on (seed, k), so a run is a prefix of one fixed sequence.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from checks import CHAIN_CHECKS, CLI_CHECKS, STALL_CHECKS


def _open_uniforms(rng, size):
    # sample_wake_threshold needs u strictly inside (0, 1)
    return np.clip(rng.random(size), 1e-15, 1.0 - 1e-15)


class Workload:
    """Defaults for the hooks only some workloads need."""

    sample_checks = ()  # checks that need every operation's records at once
    needs_after = ()    # checks that read what ``after`` adds to ``ctx``

    def trace_op(self, k):
        """The operation the traced run times, untraced and then traced."""
        return self.op(k)

    def compact(self, record):
        """What the sample checks need of a record; None keeps nothing."""
        return None

    def after(self):
        """Extra work for the checks once a timed run has ended."""

    def close(self):
        """Remove what the workload wrote."""


class StallEnsemble(Workload):
    """Criterion-7 barrier process, run to the stall, plus the pattern route.

    dx=0.02, dt=4e-3, grow_dt, 50 piles of mass 0.02 on (0, 1], awake mass
    0.5 uniform on [-0.5, 0].  One operation is a block of BLOCK replicas:
    single replicas range from 1 to 50 wake events, and the median of single
    replica times moves with the seed far more than that of block times.
    """

    name = "stall_ensemble"
    checks = STALL_CHECKS
    sample_checks = ("stall_law",)
    trace_ops = 2       # operations in one traced batch
    self_test_ops = 10  # enough replicas for the KS check to see a wrong law

    BLOCK = 10
    S, ETA, R_MIN = 0.5, 0.02, 0.01

    def __init__(self, fm, seed, child_env):
        self.fm, self.seed = fm, seed
        m = fm.measures
        self.cfg = fm.frog.SolverConfig(
            dx=0.02, dt=4e-3, n_snapshots=0, pad_left=0.6, pad_right=0.1,
            grow_dt=True, run_to_horizon=False)
        self.x1 = m.GridDensity.uniform(-0.5, 0.0, self.S, self.cfg.dx)
        self.mu = m.GridDensity.uniform(0.0, 1.0, 1.0, 0.005)
        self.piles = m.discretize_density(self.mu, self.ETA)
        self.masses = [float(x) for x in self.piles.masses]
        positions = [float(z) for z in self.piles.positions]
        awake = float(self.x1.total_mass())
        self.ctx = {
            "positions": positions, "masses": self.masses, "awake_mass": awake,
            "total_mass": awake + math.fsum(self.masses), "s": self.S,
            "eta": self.ETA,
            "mu_density": self.mu.total_mass() / (self.mu.right - self.mu.left),
        }

    def op(self, k):
        """Replicas BLOCK*k .. BLOCK*k + BLOCK-1, each from its own stream."""
        rngs = [np.random.default_rng([self.seed, self.BLOCK * k + i])
                for i in range(self.BLOCK)]
        t0 = time.perf_counter()
        outs = [self._replica(rng) for rng in rngs]
        seconds = time.perf_counter() - t0
        return seconds, self.BLOCK, [self._record(*out) for out in outs]

    def _replica(self, rng):
        fm = self.fm
        u = _open_uniforms(rng, len(self.masses))
        ws = [fm.colony.sample_wake_threshold(x, float(ui))
              for x, ui in zip(self.masses, u)]
        res = fm.frog.simulate_space_driven(self.x1, self.piles, ws, math.inf, self.cfg)
        j = fm.spatial.sample_J(self.mu, self.R_MIN, rng)
        u_scan = fm.spatial.ustar_from_J(j, self.S, self.mu)
        w, _ = fm.spatial.build_W_from_J(j, self.mu, self.ETA)
        return ws, res, u_scan, w

    def compact(self, record):
        return {"ustar": record["ustar"], "u_scan": record["u_scan"]}

    @staticmethod
    def _record(ws, res, u_scan, w):
        final = res.final
        return {
            "ws": ws, "ustar": res.ustar, "stall_position": res.stall_position,
            "woke_all": res.woke_all,
            "ev_index": [ev.index for ev in res.events],
            "ev_time": [ev.time for ev in res.events],
            "awake": final.heat.dx * float(np.sum(final.heat.values)),
            "pile": float(final.y),
            "untouched": math.fsum(float(x) for x in final.piles.masses),
            "u_scan": u_scan, "w": [float(v) for v in w],
        }


class ChainLattice(Workload):
    """Criterion-4 finite chain: 3 sites, nearest-neighbour rate 1, horizon 4.

    One operation is one round: a replica from each of the criterion's two
    initial states, recorded at t = 1, 2.5 and 4.
    """

    name = "chain_lattice"
    checks = CHAIN_CHECKS
    sample_checks = ("single_jump_law",)
    trace_ops = 100
    self_test_ops = 300

    HORIZON = 4.0
    RECORDS = (1.0, 2.5, 4.0)
    STATES = {"two": ([1.0, 0.0, 0.0], [0.0, 0.7, 0.5]),
              "single": ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])}

    def __init__(self, fm, seed, child_env):
        self.fm, self.seed = fm, seed
        lat = fm.lattice
        self.chain = lat.SiteSystem.nearest_neighbor_chain((0, 1, 2))
        self.states = {name: lat.MPSState(x1, x2) for name, (x1, x2) in self.STATES.items()}
        # feed the single dormant pile would absorb by the horizon if it never
        # woke: the awake walk killed on entering site 2, from scipy's expm
        gen = np.array(self.chain.q, dtype=float)
        gen[2, :] = 0.0
        x1_single, _ = self.STATES["single"]
        feed = float((np.array(x1_single) @ expm(gen * self.HORIZON))[2])
        self.ctx = {
            "x2": {name: x2 for name, (_, x2) in self.STATES.items()},
            "total": {name: math.fsum(x1) + math.fsum(x2)
                      for name, (x1, x2) in self.STATES.items()},
            "single_mass": self.STATES["single"][1][2], "feed": feed,
        }

    def op(self, k):
        simulate = self.fm.lattice.simulate_mps
        rngs = [np.random.default_rng([self.seed, k, i]) for i in range(2)]
        t0 = time.perf_counter()
        results = [simulate(self.chain, self.states[name], self.HORIZON, rng,
                            record_times=self.RECORDS)
                   for name, rng in zip(self.STATES, rngs)]
        seconds = time.perf_counter() - t0
        records = [{"state": name,
                    "events": [(ev.time, ev.site, ev.pile) for ev in res.events],
                    "records": [(s.time, s.x1.tolist(), s.x2.tolist())
                                for s in res.snapshots]}
                   for name, res in zip(self.STATES, results)]
        return seconds, 2, records

    def compact(self, record):
        if record["state"] == "single" and record["events"]:
            return {"state": "single", "events": record["events"]}
        return None


class CliSimulate(Workload):
    """Cold ``frogmodel simulate`` processes on the default model.

    Hazard rule, dx=0.01, dt=1e-3, horizon 2 (2000 steps on 750 cells), 20
    piles, 32 snapshots.  One operation is one invocation of REPLICAS
    replicas at --threads 2, timed from spawn to exit, artifacts included.
    """

    name = "cli_simulate"
    checks = CLI_CHECKS
    sample_checks = needs_after = ("threads_identical",)  # the --threads 1 repeat
    trace_ops = 1
    self_test_ops = 1

    REPLICAS = 24
    THREADS = 2
    ETA, PILE_MASS, HORIZON, TOTAL_MASS = 0.05, 0.05, 2.0, 1.5

    def __init__(self, fm, seed, child_env):
        self.fm, self.seed = fm, seed
        # relative to the checkout root, the working directory, so that the
        # --out-dir echoed into manifest.json is the same in every checkout
        self.out = Path(".bench_out") / "cli" / f"seed-{seed}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.env = child_env
        self.ctx = {"total_mass": self.TOTAL_MASS, "eta": self.ETA,
                    "pile_mass": self.PILE_MASS, "horizon": self.HORIZON,
                    "replicas": self.REPLICAS}

    def _args(self, k, threads, out):
        return ["simulate", "--seed", str(self.seed * 1000 + k), "--replicas",
                str(self.REPLICAS), "--threads", str(threads), "--out-dir", str(out)]

    def _invoke(self, k, threads, out):
        cmd = [sys.executable, "-m", "frogmodel.cli"] + self._args(k, threads, out)
        t0 = time.perf_counter()
        # own session, so a hung invocation can be killed with its workers
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=150)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {err.decode()[-400:]}")
        return seconds

    def op(self, k):
        out = self.out / f"op-{k}"
        seconds = self._invoke(k, self.THREADS, out)
        record = _read_simulate_dir(out)
        if k > 0:
            shutil.rmtree(out)
        return seconds, self.REPLICAS, [record]

    def trace_op(self, k):
        """The same invocation in-process at --threads 1, for the tracer."""
        out = self.out / f"trace-{k}"
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):  # keep stdout for the result
            code = self.fm.cli.main(self._args(k, 1, out))
        seconds = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"frogmodel.cli.main returned {code}")
        record = _read_simulate_dir(out)
        shutil.rmtree(out)
        return seconds, self.REPLICAS, [record]

    def after(self):
        """Repeat operation 0 at --threads 1; both file sets go to the checks."""
        again = self.out / "repeat-0"
        self._invoke(0, 1, again)
        self.ctx["repeat"] = (_data_files(self.out / "op-0"), _data_files(again))

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)


def _run_dir(out):
    dirs = [p for p in Path(out).iterdir() if p.is_dir()]
    if len(dirs) != 1:
        raise RuntimeError(f"expected one run directory under {out}, found {len(dirs)}")
    return dirs[0]


def _data_files(out):
    """Every file of the run directory but manifest.json (it echoes --out-dir)."""
    run = _run_dir(out)
    return {p.name: p.read_bytes() for p in sorted(run.iterdir())
            if p.name != "manifest.json"}


def _float(text):
    return float(text) if text else math.nan


def _read_simulate_dir(out):
    run = _run_dir(out)
    events = {}
    with open(run / "events.jsonl", encoding="utf-8") as fh:
        for line in fh:
            ev = json.loads(line)
            events.setdefault(ev["replica"], []).append(ev)
    with open(run / "snapshots.csv", encoding="utf-8") as fh:
        snaps = [_float(row["total_mass"]) for row in csv.DictReader(fh)]
    with open(run / "summary.csv", encoding="utf-8") as fh:
        summary = [(int(row["replica"]), int(row["n_events"]), _float(row["total_mass"]))
                   for row in csv.DictReader(fh)]
    return {"events": events, "snapshot_mass": snaps, "summary": summary}


WORKLOADS = {cls.name: cls for cls in (StallEnsemble, CliSimulate, ChainLattice)}
