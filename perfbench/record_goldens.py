"""Record the goldens every benchmark run checks its outputs against.

Run from the repository root at the commit whose outputs are taken as
correct:

    PYTHONPATH=src python3 perfbench/record_goldens.py

Verify items are recorded under two different verify seeds and must agree:
identity counts may not depend on the sampling seed.
"""

import json
import sys

import terwilliger
import workloads


def main() -> int:
    goldens = {}
    for name, items in workloads.golden_items(terwilliger).items():
        goldens[name] = {item.key: item.digest(item.run()) for item in items}
        print(f"{name}: {len(items)} items", file=sys.stderr)
    for specs, name in ((workloads.VERIFY_MODP, "verify-modp"), (workloads.VERIFY_Q, "verify-q")):
        for item in workloads.verify_items(terwilliger, specs, seed=7):
            if item.digest(item.run()) != goldens[name][item.key]:
                print(f"{item.key} depends on the verify seed", file=sys.stderr)
                return 1
    with open(workloads.GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
