"""Alternating A/B runs of the benchmark: a base commit against the working tree.

    python tools/ab.py --base HEAD --workload selftest --pairs 10 --seconds 25

The base commit is exported with `git archive BASE | tar -x` into a
temporary directory, and the working tree's files (tracked or not, less
what .gitignore names) are copied next to it; the directory is removed at
the end.  Each pair runs `bench/run.py --trace 0` once in each copy, with
the first side alternating from pair to pair.  For every end-to-end
metric in BENCHMARK.json it prints each side's median and quartiles, the
change's wins, and the verdict of the gain rule: the change wins at least
nine pairs in ten (ties count for neither side), and its median beats the
base's by more than the distance between the base's quartiles (the
exclusive quartiles that bench/run.py reports); fewer than ten pairs
give no verdict.  A verdict of no gain still exits 0; a run that fails,
or reports a failed operation, exits 1.

Both sides start from the same bytecode state: neither copy has a
__pycache__, and every run gets PYTHONDONTWRITEBYTECODE=1, so no run
writes one and every process compiles the package.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(checkout: Path, args, env: dict) -> dict:
    """The metrics of one `bench/run.py --trace 0` run in the checkout."""
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", "1",
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = result.stdout.splitlines()
    report = json.loads(lines[-1]) if result.returncode == 0 and lines else None
    if report is None or report["failed"]:
        sys.exit(f"bench/run.py failed in {checkout}:\n{result.stdout}{result.stderr}")
    return {name: metric["value"] for name, metric in report["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    better = {metric["name"]: metric["better"]
              for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        base, change = Path(tmp, "base"), Path(tmp, "change")
        base.mkdir()
        listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                                 "--exclude-standard"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.split("\0")
        for name in filter(None, listed):
            if (ROOT / name).is_file():  # a tracked file may be deleted in the working tree
                (change / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, change / name)
        archive = subprocess.Popen(["git", "archive", args.base], cwd=ROOT, stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", str(base)], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() or untar.returncode:
            sys.exit(f"cannot export {args.base}")
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            sides = [("base", base), ("change", change)]
            for side, checkout in sides[::-1] if i % 2 else sides:
                runs[side].append(run(checkout, args, env))
            print(f"pair {i + 1}: " + "  ".join(
                f"{side} {runs[side][-1]['frames_per_s']:.6g}" for side in runs), flush=True)

    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        old = [metrics[name] for metrics in runs["base"]]
        new = [metrics[name] for metrics in runs["change"]]
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        (q1, m_old, q3), (p1, m_new, p3) = quartiles(old), quartiles(new)
        if args.pairs < 10:
            verdict = "too few pairs for a verdict"
        elif wins * 10 >= 9 * args.pairs and sign * (m_new - m_old) > q3 - q1:
            verdict = "GAIN"
        else:
            verdict = "no gain"
        print(f"{name} ({direction} is better): base {q1:.6g} / {m_old:.6g} / {q3:.6g}, "
              f"change {p1:.6g} / {m_new:.6g} / {p3:.6g} (q1 / median / q3); "
              f"change wins {wins} of {args.pairs}; {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
