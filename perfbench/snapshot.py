#!/usr/bin/env python3
"""Record the corpus obligation snapshot that the `corpus` gate compares to.

    python3 perfbench/snapshot.py

Run from the checkout root. It writes, for every builtin, each proof
step with the obligations it raised, as `builtin --all --json` reports
them. Re-record only when a change is meant to alter an obligation list.
"""

import json
import os
import sys
import tempfile

import gate
import run
from workloads import BUILTINS, HERE


def main() -> int:
    root = os.getcwd()
    with tempfile.TemporaryDirectory(dir=root) as workdir:
        r = run.run_cli(["builtin", "--all", "--json", "--seed", "0"],
                        run.child_env(root), workdir)
    if r.code != 0:
        print(f"error: builtin --all exited {r.code}\n{r.stderr}", file=sys.stderr)
        return 1
    reports = {d["theory"]: gate.obligation_steps(d) for d in json.loads(r.stdout)}
    if sorted(reports) != sorted(BUILTINS):
        print("error: the corpus is not the documented 19 builtins", file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "corpus_obligations.json"), "w", encoding="utf-8") as fh:
        json.dump({n: reports[n] for n in BUILTINS}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
