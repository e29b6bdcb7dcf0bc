"""Perf ledger: the benchmark's alternating-pair protocol over two trees.

Runs ``perfbench/run.py`` on a base tree and a change tree in alternating
pairs (pair ``i`` runs seed ``i`` on both trees, base first on odd pairs
and change first on even ones, so a slow phase of the host hits both
sides alike), then writes one ledger per tree, ``BENCH_<label>.json``::

    python3 tools/bench_ledger.py --base ../base --base-label before \\
        --change . --change-label after --pairs 10 --seconds 15

Each ledger holds, per workload and end-to-end metric of
``BENCHMARK.json``, the per-seed values (seeds 1 to ``--pairs``), their
median and quartiles, and how many pairs this tree won against the other
(``better`` decides the direction; a tie wins for neither).  A ledger
that already exists keeps the workloads this invocation does not
measure, so workloads can be measured in separate invocations, each
with its own pair count.  ``--compare OLD.json NEW.json`` prints the
deltas between two ledgers::

    python3 tools/bench_ledger.py --compare BENCH_before.json BENCH_after.json

Run from the repository root.  Each run is a fresh process in its tree's
root, exactly as the benchmark is run there; nothing is imported from
either tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; its last output line as JSON."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(
            f"{tree}: {workload} seed {seed} exited {out.returncode}\n"
            f"{out.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def commit_of(tree: Path) -> str:
    """``tree``'s HEAD commit, suffixed ``-dirty`` when its working tree
    differs from it (``unknown`` outside git)."""
    out = subprocess.run(
        ["git", "describe", "--always", "--abbrev=40", "--dirty"], cwd=tree,
        capture_output=True, text=True, check=False,
    )
    return out.stdout.strip() or "unknown"


def summarise(runs, other, metrics):
    """Per-metric ledger entries for one tree's runs against ``other``'s
    runs of the same seeds."""
    table = {}
    for m in metrics:
        name = m["name"]
        mine = [r["metrics"][name]["value"] for r in runs]
        theirs = [r["metrics"][name]["value"] for r in other]
        sign = 1.0 if m["better"] == "higher" else -1.0
        q1, med, q3 = quartiles(mine)
        table[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "values": mine,
            "median": med,
            "q1": q1,
            "q3": q3,
            "pair_wins": sum(sign * (a - b) > 0 for a, b in zip(mine, theirs)),
        }
    return table


def measure(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    trees = {"base": Path(args.base).resolve(), "change": Path(args.change).resolve()}
    labels = {"base": args.base_label, "change": args.change_label}
    runs = {side: {w: [] for w in workloads} for side in trees}
    for w in workloads:
        for seed in range(1, args.pairs + 1):
            order = ("base", "change") if seed % 2 else ("change", "base")
            for side in order:
                r = run_once(trees[side], w, seed, args.seconds)
                runs[side][w].append(r)
                rps = r["metrics"]["requests_per_s"]["value"]
                print(f"{w} seed {seed} {labels[side]}: {rps:,.0f} req/s, "
                      f"correct={r['correct']} failed={r['failed']}",
                      flush=True)
    host = {
        "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    for side, other in (("base", "change"), ("change", "base")):
        path = Path(args.out_dir) / f"BENCH_{labels[side]}.json"
        # Workloads measured by earlier invocations stay in the ledger.
        ledger = json.loads(path.read_text()) if path.exists() else {}
        ledger.update({
            "label": labels[side],
            "commit": commit_of(trees[side]),
            "against": labels[other],
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "protocol": {
                "command": "python3 perfbench/run.py --trace 0",
                "order": "base first on odd seeds, change first on even",
            },
            "host": host,
        })
        ledger.setdefault("workloads", {}).update({
            w: {
                "pairs": args.pairs,
                "seconds": args.seconds,
                "correct": all(r["correct"] for r in runs[side][w]),
                "failed": sum(r["failed"] for r in runs[side][w]),
                "metrics": summarise(runs[side][w], runs[other][w], metrics),
            }
            for w in workloads
        })
        path.write_text(json.dumps(ledger, indent=1) + "\n")
        print(f"wrote {path}")
    return 0


def compare(old_path: str, new_path: str) -> int:
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    # Full ``git describe`` strings: a tree and its dirty child share
    # every prefix of the commit hash and differ only in ``-dirty``.
    print(f"{old['label']} ({old['commit']}) -> "
          f"{new['label']} ({new['commit']})")
    for w, entry in new["workloads"].items():
        if w not in old["workloads"]:
            continue
        print(f"\n{w}  (correct: {entry['correct']}, failed: {entry['failed']})")
        print(f"  {'metric':<18} {'old median':>14} {'new median':>14} "
              f"{'ratio':>7} {'old IQR':>12} {'wins':>6}")
        for name, m in entry["metrics"].items():
            o = old["workloads"][w]["metrics"].get(name)
            if o is None:
                continue
            ratio = m["median"] / o["median"] if o["median"] else float("nan")
            iqr = o["q3"] - o["q1"]
            n = len(m["values"])
            print(f"  {name:<18} {o['median']:>14.6g} {m['median']:>14.6g} "
                  f"{ratio:>7.3f} {iqr:>12.4g} {m['pair_wins']:>3}/{n}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--base", help="tree of the base commit")
    parser.add_argument("--change", default=".", help="tree of the change")
    parser.add_argument("--base-label")
    parser.add_argument("--change-label")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every BENCHMARK.json workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (args.base and args.base_label and args.change_label):
        parser.error("--base, --base-label and --change-label are required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
