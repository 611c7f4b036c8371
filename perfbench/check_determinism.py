#!/usr/bin/env python3
"""Check that the benchmark is deterministic and that the seed reaches it.

    python3 perfbench/check_determinism.py [--workload W] [--seed N]

For each workload: two runs with one seed must print identical simulated
end-to-end metrics (--trace 0) and identical per-layer counts (--trace 1),
and a run with another seed must have a different inputs digest (the
digest covers the generated matrix, vectors, arrivals and fault plan).
Short runs suffice: the simulated metrics and the counts come from the
first round of a run. Exits 1 on any mismatch.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "3"


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
           str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n"
                 f"{p.stdout}{p.stderr}")
    fields = {}
    for line in p.stdout.splitlines():
        key, _, rest = line.partition(" ")
        if key in ("inputs_digest", "deterministic"):
            fields[key] = rest
    return fields


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    ok = True
    for w in args.workload or ["serve", "solve", "stream"]:
        for trace, what in ((0, "simulated end-to-end metrics"),
                            (1, "per-layer counts")):
            a = run(w, args.seed, trace)
            b = run(w, args.seed, trace)
            same = a["deterministic"] == b["deterministic"]
            ok = ok and same
            print(f"{w}: {what} {'identical' if same else 'DIFFER'} "
                  f"across two runs of seed {args.seed}")
        other = run(w, args.seed + 1, 0)
        differs = other["inputs_digest"] != a["inputs_digest"]
        ok = ok and differs
        print(f"{w}: inputs digest seed {args.seed} {a['inputs_digest']} vs "
              f"seed {args.seed + 1} {other['inputs_digest']}: "
              f"{'different' if differs else 'SAME'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
