#!/usr/bin/env python3
"""Self-test of the benchmark's checks: genuine output passes, corruption fails.

    python3 bench/selftest.py

Runs each workload for a few operations and requires every check to pass on
what the program produced.  Then it hands each check a corrupted copy of
that output and requires the check to fail.  Exits 0 when both hold for
every check of every workload, 1 otherwise, 2 without a program to test.
"""

from __future__ import annotations

import copy
import sys

from checks import predict_stall
from run import ROOT, load_program

SEED = 0
MASS_SHIFT = 1e-6  # relative mass error every mass check must catch


def _pick(recs, pred):
    return next(r for r in recs if pred(r))


# each corruption edits (records, ctx) in place; both are private copies

def stall_shift(recs, ctx):
    """The stall moved one pile to the right (or left, at the last pile)."""
    pos = ctx["positions"]
    r = recs[0]
    i = pos.index(r["ustar"])
    r["ustar"] = pos[i + 1] if i + 1 < len(pos) else pos[i - 1]


def stall_swap_times(recs, ctx):
    times = _pick(recs, lambda r: len(r["ev_time"]) >= 2)["ev_time"]
    times[0], times[1] = times[1], times[0]


def stall_mass(recs, ctx):
    recs[0]["awake"] += MASS_SHIFT * ctx["total_mass"]


def stall_block_shift(recs, ctx):
    r = _pick(recs, lambda r: r["u_scan"] < 1.0 - ctx["eta"])
    r["u_scan"] += ctx["eta"]


def stall_other_law(recs, ctx):
    """Stall positions of piles ten times heavier (W scales with pile mass)."""
    for r in recs:
        i, _ = predict_stall([10.0 * w for w in r["ws"]], ctx["masses"], ctx["awake_mass"])
        r["ustar"] = ctx["positions"][i]


def cli_mass(recs, ctx):
    recs[0]["snapshot_mass"][0] *= 1.0 + MASS_SHIFT


def cli_swap_times(recs, ctx):
    evs = _pick(list(recs[0]["events"].values()), lambda evs: len(evs) >= 2)
    evs[0]["t"], evs[1]["t"] = evs[1]["t"], evs[0]["t"]


def cli_count(recs, ctx):
    rep, n, mass = recs[0]["summary"][0]
    recs[0]["summary"][0] = (rep, n + 1, mass)


def cli_flip_byte(recs, ctx):
    first, again = ctx["repeat"]
    data = bytearray(again["events.jsonl"])
    data[len(data) // 2] ^= 0x01
    again["events.jsonl"] = bytes(data)


def chain_wrong_site(recs, ctx):
    r = _pick(recs, lambda r: r["state"] == "two" and r["events"])
    t, _, pile = r["events"][0]
    r["events"][0] = (t, 2, pile)


def chain_mass(recs, ctx):
    r = recs[0]
    r["records"][0][1][0] += MASS_SHIFT * ctx["total"][r["state"]]


def chain_shrink_pile(recs, ctx):
    r = _pick(recs, lambda r: r["state"] == "two")
    t, x1, x2 = r["records"][0]
    x2[2] = 0.99 * ctx["x2"]["two"][2]


def chain_other_law(recs, ctx):
    """Fed mass tripled: no longer the threshold law cut at the feed."""
    x = ctx["single_mass"]
    for r in recs:
        if r["state"] == "single":
            r["events"] = [(t, s, x + 3.0 * (pile - x)) for t, s, pile in r["events"]]


CORRUPTIONS = {
    "stall_ensemble": {
        "stall_prediction": stall_shift,
        "wake_order": stall_swap_times,
        "mass_balance": stall_mass,
        "block_stall": stall_block_shift,
        "stall_law": stall_other_law,
    },
    "cli_simulate": {
        "mass_balance": cli_mass,
        "event_sequence": cli_swap_times,
        "event_counts": cli_count,
        "threads_identical": cli_flip_byte,
    },
    "chain_lattice": {
        "leftmost_site": chain_wrong_site,
        "mass_balance": chain_mass,
        "piles_grow": chain_shrink_pile,
        "single_jump_law": chain_other_law,
    },
}


def self_test(wl):
    records = []
    for k in range(wl.self_test_ops):
        records.extend(wl.op(k)[2])
    wl.after()
    good = True
    for name, check in wl.checks.items():
        genuine, detail = check(records, wl.ctx)
        corrupt = CORRUPTIONS[wl.name][name]
        recs, ctx = copy.deepcopy(records), copy.deepcopy(wl.ctx)
        corrupt(recs, ctx)
        passed, why = check(recs, ctx)
        caught = not passed
        good = good and genuine and caught
        print(f"{wl.name:15s} {name:18s} genuine: {'pass' if genuine else 'FAIL'}"
              f"  corrupted ({corrupt.__name__}): {'rejected' if caught else 'ACCEPTED'}"
              f"  {why}".rstrip())
        if not genuine:
            print(f"    {detail}")
    return good


def main() -> int:
    fm, child_env = load_program()
    if fm is None:
        print(f"error: no frogmodel package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    good = True
    for name, cls in WORKLOADS.items():
        wl = cls(fm, SEED, child_env)
        try:
            good = self_test(wl) and good
        finally:
            wl.close()
    print("self-test:", "all checks pass on genuine output and reject corruption"
          if good else "FAILED")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
