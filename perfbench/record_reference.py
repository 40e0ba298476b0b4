"""Write perfbench/reference.json, the outputs the benchmark's gates compare
against.

    python3 perfbench/record_reference.py

Records the sha256 of the `verify --format json` stdout for every (r, h_max)
the workloads run, and of SK^1..SK^20 for every r of the large-field
workload (and its smoke sizes).  Neither depends on the modulus: each value
is computed under three moduli and must agree before it is written.  Run it
only at a commit whose outputs are trusted; the gates then pin them.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from kloostercodes import charsums, gf3r  # noqa: E402

VERIFY = [(r, workloads.SWEEP_H_MAX) for r in range(1, 6)] + [(r, workloads.HIGH_H_MAX) for r in (1, 2)]
SK_RS = (1, 2, 7, 8)


def agreed(values, what):
    if len(set(values)) != 1:
        sys.exit("%s depends on the modulus: %s" % (what, values))
    return values[0]


def main():
    rng = random.Random(0)
    out = {"verify": {}, "sk": {}}
    for r, h_max in VERIFY:
        digests = []
        for modulus in run.irreducible_moduli(rng, r, 3):
            code, text = workloads.run_cli(workloads.verify_argv(r, modulus, h_max))
            if code != 0:
                sys.exit("verify r=%d h_max=%d exited %d" % (r, h_max, code))
            digests.append(workloads.digest(text))
        out["verify"]["%d/%d" % (r, h_max)] = agreed(digests, "verify r=%d h_max=%d" % (r, h_max))
    for r in SK_RS:
        digests = []
        for modulus in run.irreducible_moduli(rng, r, 3):
            ctx = gf3r.field_create(r, modulus)
            values = [charsums.sk_moment(ctx, h, ops_limit=workloads.LIMIT_OPS)
                      for h in range(1, workloads.SK_H_MAX + 1)]
            digests.append(workloads.sk_digest(values))
        out["sk"][str(r)] = agreed(digests, "SK^1..SK^%d at r=%d" % (workloads.SK_H_MAX, r))
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
