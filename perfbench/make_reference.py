"""Regenerate perfbench/reference.json, the certify workload's stored values.

For each seed it stores the sums of the exact optimal and greedy values over
the certify instance set and the worst ratio, computed with optimal_value and
policy_value rather than check_chain.  Run from the root of a checkout:

    python3 perfbench/make_reference.py 0 99
"""

import json
import sys

from run import SRC, import_fresh
from workloads import REFERENCE, certify_reference


def main():
    first, last = int(sys.argv[1]), int(sys.argv[2])
    sys.path.insert(0, str(SRC))
    sm = import_fresh()
    table = {str(seed): certify_reference(sm, seed) for seed in range(first, last + 1)}
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump({"certify": table}, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
