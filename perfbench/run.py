#!/usr/bin/env python3
"""End-to-end benchmark of the secure_view_cli serve daemon.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mixed_churn --seed 1 --seconds 50 --trace 0

Builds the daemon and the load client (perfbench/svload.ml) from source
with dune, then runs the client, which prints the metrics and, as its
last line, one JSON result object. See perfbench/README.md.
"""

import os
import subprocess
import sys

TARGETS = ["bin/secure_view_cli.exe", "perfbench/svload.exe"]


def main():
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/secure_view_cli.ml")):
        sys.stderr.write("run.py: run this from the root of a secure_view checkout\n")
        return 2
    # Build output goes to stderr: stdout ends with the result line. The
    # shared dune cache lives outside the checkout, so it stays off.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled"] + TARGETS, stdout=sys.stderr
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "svload.exe")
    cli = os.path.join("_build", "default", "bin", "secure_view_cli.exe")
    return subprocess.run([exe, "--cli", cli] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
