"""Collect benchmark runs into a BENCH file and compare two BENCH files.

    python3 bench/trajectory.py collect --label L --seeds 1-10 --out bench/results/BENCH_L.json
    python3 bench/trajectory.py compare BASE.json NEW.json

``collect`` runs ``bench/run.py`` once per workload of BENCHMARK.json and
seed, one run at a time and for its ``run_seconds``, and records for
every end-to-end metric its values, median, quartiles and spread
(interquartile distance over the median), the input digests, the
arithmetic backend and the failed ops; with ``--trace-seed`` it adds one
traced run per workload.  ``compare`` checks, per workload, that both
files were run for the same time and saw the same inputs on the same
backend; if not, the workload is reported as incomparable instead of as
a speed change.  A workload with failed ops in the new file is reported
as failing.  Otherwise each metric is reported as ok, regressed (worse
by more than its bound in BENCHMARK.json) or unresolved (the base's own
spread exceeds the bound).  The exit code is 1 if any workload is
incomparable, failing or regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark process; returns (provenance, result)."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def collect(args) -> int:
    spec = load_spec()
    seconds = spec["run_seconds"]
    out = {"label": args.label, "run_seconds": seconds, "cpus": os.cpu_count(), "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            provenance, result = run_once(name, seed, seconds, 0)
            runs.append((provenance, result))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
        entry = {
            "backend": sorted({p["backend"] for p, _ in runs}),
            "digests": {str(p["seed"]): p["input_sha256"] for p, _ in runs},
            "calibration_s": {str(p["seed"]): p["calibration_s"] for p, _ in runs},
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            summary = summarize([r["metrics"][metric["name"]]["value"] for _, r in runs])
            summary["unit"] = metric["unit"]
            summary["bound"] = metric["bound"]
            entry["end_to_end"][metric["name"]] = summary
        if args.trace_seed is not None:
            provenance, result = run_once(name, args.trace_seed, seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed, "digest": provenance["input_sha256"],
                                  "failed": result["failed"],
                                  "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        out["workloads"][name] = entry
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def worse_share(metric: dict, base: float, new: float) -> float:
    """How much worse new is than base, as a share of base (negative: better)."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def compare(args) -> int:
    spec = load_spec()
    base_file = json.loads(Path(args.base).read_text())
    new_file = json.loads(Path(args.new).read_text())
    base, new = base_file["workloads"], new_file["workloads"]
    bad = False
    for name in sorted(set(base) & set(new)):
        b, n = base[name], new[name]
        common = set(b["digests"]) & set(n["digests"])
        if (base_file["run_seconds"] != new_file["run_seconds"]
                or b["backend"] != n["backend"] or not common
                or any(b["digests"][s] != n["digests"][s] for s in common)):
            print(f"{name}: incomparable (run length, inputs or backend differ)")
            bad = True
            continue
        failed = n["failed"] + n.get("per_layer", {}).get("failed", 0)
        if failed:
            print(f"{name}: failing ({failed} ops failed)")
            bad = True
            continue
        for metric in spec["end_to_end"]:
            bm, nm = b["end_to_end"][metric["name"]], n["end_to_end"][metric["name"]]
            worse = worse_share(metric, bm["median"], nm["median"])
            if bm["spread"] > metric["bound"]:
                status = "unresolved"
            elif worse > metric["bound"]:
                status = "regressed"
                bad = True
            else:
                status = "ok"
            print(f"{name:16s} {metric['name']:18s} {bm['median']:12.5g} -> {nm['median']:12.5g}"
                  f"  worse by {worse:+.3f} (bound {metric['bound']})  {status}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_collect = sub.add_parser("collect")
    p_collect.add_argument("--label", required=True)
    p_collect.add_argument("--seeds", default="1-10")
    p_collect.add_argument("--trace-seed", type=int)
    p_collect.add_argument("--out", required=True)
    p_compare = sub.add_parser("compare")
    p_compare.add_argument("base")
    p_compare.add_argument("new")
    args = parser.parse_args(argv)
    return collect(args) if args.command == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
