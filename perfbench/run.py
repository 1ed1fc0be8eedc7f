#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build is `dune build` of the
benchmark executable only (so it compiles just the libraries it links);
its output goes to stderr.  The benchmark's stdout is passed through, and
its last line must be the result object whose metric names are exactly
the ones BENCHMARK.json lists for the mode; anything else fails the run.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    args = sys.argv[1:]
    if "--trace" not in args:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    trace = args[args.index("--trace") + 1] if args[-1] != "--trace" else ""
    if trace not in ("0", "1"):
        fail("--trace must be 0 or 1")
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}

    # The shared dune cache lives outside the checkout: keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + EXE],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")

    proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE)
    out = proc.stdout.decode()
    lines = out.strip().splitlines()
    try:
        got = set(json.loads(lines[-1])["metrics"])
    except (IndexError, KeyError, TypeError, ValueError):
        sys.stderr.write(out)
        fail("no result line (exit code %d)" % proc.returncode)
    if got != wanted:
        sys.stderr.write(out)
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(wanted - got), sorted(got - wanted)))
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
