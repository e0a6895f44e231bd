"""Rewrite digests.json: the sha256 of every job's stdout at the default seed.

    python3 bench/pin_digests.py

Run it only when a change is meant to alter the CLI's output bytes, and
say so in the change; the benchmark fails every job whose stdout at the
default seed no longer matches.  One pass per workload; every other check
(exit codes, oracles) must pass, or nothing is written.
"""

from __future__ import annotations

import json
import os
import sys

from paths import ROOT, WORKLOADS
from worker import DEFAULT_SEED, DIGESTS, Runner, set_up


def main() -> int:
    digests = {}
    for name in WORKLOADS:
        os.chdir(ROOT)
        runner = Runner(*set_up(name, DEFAULT_SEED))
        runner.run_pass()
        if runner.problems:
            print("\n".join(runner.problems), file=sys.stderr)
            return 1
        digests[name] = runner.first_digest
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
