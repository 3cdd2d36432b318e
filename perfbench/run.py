#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload corpus_scan --seed 1 --seconds 30 --trace 0

Run from the root of a source tree. The last line of standard output is
the result object printed by perfbench/src/bench.ml; build output and notes go
to standard error. Exits non-zero without a result when the tree has no
sources to build.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("corpus_scan", "revalidate", "serve_mixed")
HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark's build tree: its own dune project (src/) plus copies of
# the program's lib/ and bin/. Dune skips directories whose names start
# with a dot, so the repository's own build never sees it.
TREE = os.path.join(".perfbench-run", "build")
BENCH = os.path.join(TREE, "_build", "default", "perfbench", "bench.exe")
DPRLE = os.path.join(TREE, "_build", "default", "bin", "dprle_main.exe")


def assemble():
    """Lay out the build tree afresh, keeping its _build so that a rebuild
    of unchanged sources does nothing (copies keep their timestamps)."""
    os.makedirs(TREE, exist_ok=True)
    for name in ("dune-project", "lib", "bin", "perfbench"):
        path = os.path.join(TREE, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
    shutil.copy2(os.path.join(HERE, "src", "dune-project"), TREE)
    shutil.copytree("lib", os.path.join(TREE, "lib"))
    shutil.copytree("bin", os.path.join(TREE, "bin"))
    shutil.copytree(os.path.join(HERE, "src"), os.path.join(TREE, "perfbench"),
                    ignore=shutil.ignore_patterns("dune-project"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for needed in ("lib", "bin", os.path.join(HERE, "src", "dune-project")):
        if not os.path.exists(needed):
            sys.exit(f"perfbench: {needed} not found; run from the root of a source tree")

    assemble()
    # The shared dune cache lives in the home directory; the benchmark
    # writes only inside the tree it runs in.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/dprle_main.exe"],
        cwd=TREE,
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {build.returncode})")

    run = subprocess.run(
        [
            BENCH,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--dprle", DPRLE,
        ]
    )
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
