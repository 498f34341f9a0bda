"""Regenerate ``expected.json``: the ladders and their reference invariants.

    PYTHONPATH=src python3 perfbench/expected.py

The wide-fans and tall-enum ladders are the first recipe labels
``<kind>/<n>x<r>/<i>`` (i = 0, 1, ...) of each shape whose fan count lies in
the band below, so one pass takes a few seconds; wide-fans also asks for
class-group torsion.  The file also records, for the ladders, the worked
examples and the quotient-cli pipeline instances, the fan count, torsion
invariants and sorted (index, delta_sigma) multiset that every run
compares against.  Uses the library, so rerun it
only when a change of results is intended and reviewed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from instances import random_reduced_f_matrix, rng_for
from workloads import (
    EXPECTED_PATH,
    WORKED_EXAMPLES,
    invariants,
    quotient_bases,
    summary_from_result,
)

# workload: (label prefix, [(shape, how many)], (min fans, max fans), torsion)
LADDERS = {
    "wide-fans": ("wide", [((4, 4), 4), ((5, 4), 1), ((4, 5), 1)], (20, 160), True),
    "tall-enum": ("tall", [((5, 3), 4), ((6, 3), 4), ((7, 3), 3)], (1, 10**9), False),
}


def reference(v):
    import torifactor

    return invariants(summary_from_result(torifactor.analyze(torifactor.IntMatrix(v))))


def main():
    doc = {"ladders": {}}
    for workload, (prefix, shapes, (lo, hi), torsion) in LADDERS.items():
        entries = []
        for (n, r), count in shapes:
            i = 0
            taken = 0
            while taken < count:
                label = f"{prefix}/{n}x{r}/{i}"
                inv = reference(random_reduced_f_matrix(rng_for(label), n, r))
                if lo <= inv["fans"] <= hi and (inv["torsion"] or not torsion):
                    entries.append({"label": label, "shape": [n, r], **inv})
                    taken += 1
                i += 1
        doc["ladders"][workload] = entries
    doc["worked_examples"] = [reference(v) for v in WORKED_EXAMPLES]
    doc["quotient-cli"] = [reference(v) for v in quotient_bases()[0]]
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        handle.write(one_instance_per_line(doc))


def one_instance_per_line(doc):
    def entries(items, indent):
        return "[\n" + ",\n".join(indent + json.dumps(e) for e in items) + "\n" + indent[:-1] + "]"

    ladders = ",\n".join(
        f"  {json.dumps(name)}: {entries(items, '   ')}" for name, items in doc["ladders"].items()
    )
    rest = ",\n".join(
        f" {json.dumps(key)}: {entries(items, '  ')}" for key, items in doc.items() if key != "ladders"
    )
    return '{\n "ladders": {\n' + ladders + "\n },\n" + rest + "\n}\n"


if __name__ == "__main__":
    main()
