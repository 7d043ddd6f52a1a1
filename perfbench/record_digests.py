"""Record the residue-variants value digests for the default seed.

Every value is computed by both paths, localization and every residue
variant, and recorded only if they all agree.  The gr:3,6 localizations make
this take several minutes.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import sys

import workloads
from eqpush import spaces


def main() -> int:
    digests = {}
    for item_id, (space, f) in workloads.campaign_inputs(workloads.CRITERION5_CASES,
                                                         workloads.DEFAULT_SEED,
                                                         workloads.RESIDUE_TRIALS):
        loc = spaces.localization_pushforward(space, f)
        if any(spaces.residue_pushforward(space, f, v) != loc for v in space.variants()):
            print(f"{item_id}: the two paths disagree; nothing recorded", file=sys.stderr)
            return 1
        digests[item_id] = workloads.digest(loc)
        print(item_id, digests[item_id], flush=True)
    with open(workloads.DIGESTS, "w") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "digests": digests}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
