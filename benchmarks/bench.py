"""Before/after pairs of the replay benchmark, written to one JSON file.

    python3 benchmarks/bench.py --parent DIR --out BENCH_<n>.json \
        [--pairs stream=5,desk-large=3,clutter=3] [--seconds 30] [--seed 31]

Run from the root of a checkout.  DIR is a checkout of the commit to
compare with, made for instance with ``git archive``.  Each pair runs
``replaybench/run.py`` once in each checkout with the same seed; the side
that goes first alternates from pair to pair, so a drift of the machine's
speed does not favour one side.  Then each side gets one ``--trace 1`` run
per workload.  The file records:

- the machine: nproc, the Python version and the numpy version;
- every run: workload, seed, side, correctness and its figures;
- per workload and end-to-end metric: each side's median, the parent's
  quartiles and the number of pairs the change won;
- per workload, each side's traced per-layer figures.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def replay_run(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``replaybench/run.py`` run in the checkout ``root``: its JSON line
    and the unscaled figures it prints on standard error."""
    proc = subprocess.run(
        [sys.executable, "replaybench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root}: {workload} seed {seed} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    measured = re.search(r"^as measured: (\{.*\})$", proc.stderr, flags=re.MULTILINE)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "exit_code": proc.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "as_measured": json.loads(measured.group(1)) if measured else None,
    }


def compare(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median, the parent's quartiles and how many
    pairs the change won."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        sign = -1.0 if better.get(name) == "lower" else 1.0
        q1, _, q3 = statistics.quantiles(values["parent"], n=4, method="inclusive")
        out[name] = {
            "parent_median": statistics.median(values["parent"]),
            "change_median": statistics.median(values["change"]),
            "parent_quartiles": [q1, q3],
            "change_won": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout to compare with")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--pairs", default="stream=5,desk-large=3,clutter=3",
                        help="WORKLOAD=PAIRS,... (at least 3 pairs each)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=31, help="seed of the first pair")
    args = parser.parse_args()
    plan = {name: int(n) for name, n in (item.split("=") for item in args.pairs.split(","))}
    if min(plan.values()) < 3:
        parser.error("every workload needs at least 3 pairs")
    roots = {"parent": args.parent.resolve(), "change": HERE}
    better = {m["name"]: m["better"] for m in json.loads((HERE / "BENCHMARK.json").read_text())["end_to_end"]}

    doc = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": version("numpy"),
        },
        "command": "replaybench/run.py",
        "seconds": args.seconds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for workload, count in plan.items():
        pairs = []
        for i in range(count):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: replay_run(roots[side], workload, seed, args.seconds, 0) for side in order}
            pair["first"] = order[0]
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{count} (seed {seed}): " + ", ".join(
                f"{side} replay_s {pair[side]['metrics'].get('replay_s')}" for side in SIDES
            ), file=sys.stderr)
        traced = {side: replay_run(roots[side], workload, args.seed, args.seconds, 1) for side in SIDES}
        doc["workloads"][workload] = {
            "pairs": pairs,
            "end_to_end": compare(pairs, better),
            "traced": traced,
        }
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    runs = [run for w in doc["workloads"].values() for p in w["pairs"] for run in
            (p["parent"], p["change"])] + [
            run for w in doc["workloads"].values() for run in w["traced"].values()]
    return 0 if all(run["correct"] and run["exit_code"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
