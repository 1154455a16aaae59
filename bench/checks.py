"""Correctness checks on the outputs each workload collects.

Every check is a plain function of plain data (lists, dicts, floats) and
returns ``(ok, detail)``.  None of them compares against a stored copy of
earlier output: each is computed apart from the program (a sequential stall
loop, the exact feed of a finite chain from ``scipy.linalg.expm``) or is a
property the method must have (exact mass balance, wake order).  The
self-test feeds each check a corrupted copy and requires it to fail.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

MASS_RTOL = 1e-7      # stated tolerance on every mass balance; 1e-6 must fail
KS_ALPHA = 1e-6       # family-wise level of each run's one KS test
SITE_ATOL = 1e-12     # pile positions and pile masses read back from output


def _first(bad, what):
    return (False, f"{len(bad)} {what}; first: {bad[0]}") if bad else (True, "")


# ---------------------------------------------------------------------------
# stall_ensemble


def predict_stall(ws, masses, awake_mass):
    """(pile index of the stall, stalled?) by walking the piles in order.

    Pile i stalls the cascade when its threshold reaches the awake mass plus
    every pile before it; the sum is accumulated left to right in floats,
    which is the order the simulator uses, so the answer is exact to the bit.
    """
    avail = awake_mass
    for i, (w, x) in enumerate(zip(ws, masses)):
        if w >= avail:
            return i, True
        avail += x
    return len(ws) - 1, False


def stall_prediction(recs, ctx):
    bad = []
    for k, r in enumerate(recs):
        i, stalled = predict_stall(r["ws"], ctx["masses"], ctx["awake_mass"])
        want = ctx["positions"][i]
        if r["ustar"] != want or (r["stall_position"] is not None) != stalled:
            bad.append((k, r["ustar"], want))
    return _first(bad, "stalls differ from the sequential prediction")


def wake_order(recs, ctx):
    bad = []
    n = len(ctx["positions"])
    for k, r in enumerate(recs):
        i, stalled = predict_stall(r["ws"], ctx["masses"], ctx["awake_mass"])
        woken = i if stalled else n
        times = r["ev_time"]
        if (r["ev_index"] != list(range(woken)) or r["woke_all"] == stalled
                or any(t <= 0.0 for t in times[:1])
                or any(b <= a for a, b in zip(times, times[1:]))):
            bad.append((k, r["ev_index"][:4], woken))
    return _first(bad, "replicas wake the wrong piles or out of time order")


def stall_mass(recs, ctx):
    bad = []
    total = ctx["total_mass"]
    for k, r in enumerate(recs):
        held = r["awake"] + r["pile"] + r["untouched"]
        if abs(held - total) > MASS_RTOL * total:
            bad.append((k, held, total))
    return _first(bad, "replicas lose or gain mass")


def block_stall_index(w, s, eta, density):
    """First block whose threshold beats the supply, 1-based; last if none."""
    for i, wi in enumerate(w):
        if wi > s + density * eta * i:
            return i + 1
    return len(w)


def round_up_block(u, eta, n_blocks):
    return min(max(1, math.ceil(u / eta - 1e-9)), n_blocks)


def block_stall(recs, ctx):
    bad = []
    eta = ctx["eta"]
    for k, r in enumerate(recs):
        got = block_stall_index(r["w"], ctx["s"], eta, ctx["mu_density"])
        want = round_up_block(r["u_scan"], eta, len(r["w"]))
        if got != want:
            bad.append((k, got, want))
    return _first(bad, "block stalls differ from the rounded pattern scan")


def stall_law(recs, ctx):
    """Simulated stall blocks against pattern-scan stall blocks (two-sample KS)."""
    pos = {z: i + 1 for i, z in enumerate(ctx["positions"])}
    sim = [pos[r["ustar"]] for r in recs]
    scan = [round_up_block(r["u_scan"], ctx["eta"], len(pos)) for r in recs]
    p = stats.ks_2samp(sim, scan).pvalue
    return p >= KS_ALPHA, f"KS p={p:.3g} over {len(sim)} replicas, alpha={KS_ALPHA:g}"


STALL_CHECKS = {
    "stall_prediction": stall_prediction,
    "wake_order": wake_order,
    "mass_balance": stall_mass,
    "block_stall": block_stall,
    "stall_law": stall_law,
}


# ---------------------------------------------------------------------------
# cli_simulate


def cli_mass(recs, ctx):
    bad = []
    total = ctx["total_mass"]
    for k, r in enumerate(recs):
        for m in r["snapshot_mass"] + [row[2] for row in r["summary"]]:
            if not abs(m - total) <= MASS_RTOL * total:
                bad.append((k, m))
    return _first(bad, "total_mass values off the configured mass")


def cli_events(recs, ctx):
    bad = []
    eta, x, horizon = ctx["eta"], ctx["pile_mass"], ctx["horizon"]
    for k, r in enumerate(recs):
        for rep, evs in r["events"].items():
            times = [e["t"] for e in evs]
            ok = ([e["index"] for e in evs] == list(range(len(evs)))
                  and all(abs(e["site"] - eta * (e["index"] + 1)) <= SITE_ATOL
                          and abs(e["jump"] - e["v"] - x) <= SITE_ATOL for e in evs)
                  and all(0.0 < t <= horizon for t in times)
                  and all(b > a for a, b in zip(times, times[1:])))
            if not ok:
                bad.append((k, rep))
    return _first(bad, "replicas with malformed event sequences")


def cli_counts(recs, ctx):
    bad = []
    for k, r in enumerate(recs):
        reps = [row[0] for row in r["summary"]]
        if reps != list(range(ctx["replicas"])) or not set(r["events"]) <= set(reps):
            bad.append((k, "replica ids"))
            continue
        for rep, n_events, _ in r["summary"]:
            if n_events != len(r["events"].get(rep, [])):
                bad.append((k, rep, n_events))
    return _first(bad, "summary rows disagree with events.jsonl")


def cli_repeat(recs, ctx):
    """Data files of the repeated invocation at --threads 1, byte for byte."""
    first, again = ctx["repeat"]
    if set(first) != set(again):
        return False, f"file sets differ: {sorted(first)} vs {sorted(again)}"
    diff = sorted(name for name in first if first[name] != again[name])
    return _first(diff, "data files differ at --threads 1")


CLI_CHECKS = {
    "mass_balance": cli_mass,
    "event_sequence": cli_events,
    "event_counts": cli_counts,
    "threads_identical": cli_repeat,
}


# ---------------------------------------------------------------------------
# chain_lattice


def leftmost_jumps(recs, ctx):
    bad = []
    for k, r in enumerate(recs):
        dormant = sorted(i for i, x in enumerate(ctx["x2"][r["state"]]) if x > 0)
        for t, site, _ in r["events"]:
            if not dormant or site != dormant[0]:
                bad.append((k, r["state"], site))
                break
            dormant.pop(0)
    return _first(bad, "jumps away from the leftmost dormant site")


def chain_mass(recs, ctx):
    bad = []
    for k, r in enumerate(recs):
        total = ctx["total"][r["state"]]
        for t, x1, x2 in r["records"]:
            if abs(math.fsum(x1) + math.fsum(x2) - total) > MASS_RTOL * total:
                bad.append((k, t))
    return _first(bad, "records where x1 + x2 drifts")


def piles_grow(recs, ctx):
    bad = []
    for k, r in enumerate(recs):
        x2_0 = ctx["x2"][r["state"]]
        for t, _, x2 in r["records"]:
            woken = {site for te, site, _ in r["events"] if te <= t}
            for i, x0 in enumerate(x2_0):
                if x0 > 0 and (x2[i] < x0 if i not in woken else x2[i] != 0.0):
                    bad.append((k, t, i, x2[i]))
    return _first(bad, "piles below their initial mass")


def single_jump_law(recs, ctx):
    """Fed mass at the single dormant site's jump: threshold law cut at the feed."""
    x, feed = ctx["single_mass"], ctx["feed"]
    fed = [pile - x for r in recs if r["state"] == "single" for _, _, pile in r["events"]]
    if not fed:
        return False, "no single-dormant replica jumped"
    top = feed / (x + feed)
    p = stats.kstest(fed, lambda r: np.clip(np.maximum(r, 0.0) / (x + np.maximum(r, 0.0)) / top,
                                            0.0, 1.0)).pvalue
    return p >= KS_ALPHA, f"KS p={p:.3g} over {len(fed)} jumps, alpha={KS_ALPHA:g}"


CHAIN_CHECKS = {
    "leftmost_site": leftmost_jumps,
    "mass_balance": chain_mass,
    "piles_grow": piles_grow,
    "single_jump_law": single_jump_law,
}
