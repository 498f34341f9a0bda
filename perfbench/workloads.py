"""The three benchmark workloads: their jobs and the outside-in checks.

Each workload runs a fixed ladder of base instances, rebuilt from recipe
labels.  Each job shows its base instance under a column shuffle drawn from
the job's label alone, and under a random ``GL_n(Z)`` row action drawn from
the seed, anew for every pass.  Both keep the fan count, torsion and Picard
data, which ``expected.json`` records.  The row action also keeps the row
HNF of every column arrangement, so each equivalence search tries the same
permutations on every pass and every seed, and the rest of the work moves
only with the sizes of the entries (a few percent of the HNF count on
tall-enum).  Every matrix the library sees is new, so a memo keyed by the
input cannot skip work.  Every job result is checked with
the benchmark's own arithmetic in ``zmath``; nothing here trusts a value
computed by the library without recomputing it.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import lcm, prod
from pathlib import Path
from typing import Any, Callable

from instances import (
    random_reduced_f_matrix,
    random_unimodular,
    rng_for,
    row_action,
    shuffle_columns,
)
from zmath import (
    class_group,
    content,
    det,
    matmul,
    maximal_minors,
    rank,
    select_cols,
    transpose,
)

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# The worked examples of the paper: Z/5 torsion over P^3, and a rank-2
# quotient with torsion Z/3 + Z/15 and three fans.
WORKED_EXAMPLES = (
    [[1, 0, 1, -2], [0, 1, -3, 2], [0, 0, 5, -5]],
    [
        [18, -21, -9, 333, -492, 120],
        [-3, 8, 4, -14, 13, -4],
        [-23, 33, 14, -404, 588, -144],
        [-20, 26, 12, -337, 493, -121],
    ],
)

# quotient-cli shapes (n, r), all with n + r <= 7.  About 110 jobs a pass,
# so that more than ten per-job latencies lie beyond the p90.  The search
# for a matching column permutation stops at a place set by the column
# shuffle on equivalent pairs, so those use at most 6 columns (720 permutations); the 12
# known-inequivalent pairs have 7 columns and always try all 5040, which
# makes them the deterministic tail of the job latencies.
QUOTIENT_SHAPES = ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (3, 3), (4, 2), (4, 3), (3, 4), (5, 2), (2, 4))
SEARCH_SHAPES = ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4))
INEQUIVALENT_SHAPES = ((4, 3), (3, 4)) * 6
QUOTIENT_COUNTS = {"pipeline": 36, "reconstruct": 20, "equiv": 28}


@dataclass
class Job:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    text: Callable[[Any], str]
    payload: Any


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def ladder_instances(expected, workload):
    """Base matrices of a ladder workload, rebuilt from their recipe labels."""
    out = []
    for entry in expected["ladders"][workload]:
        n, r = entry["shape"]
        out.append((random_reduced_f_matrix(rng_for(entry["label"]), n, r), entry))
    return out


# -- result summaries ---------------------------------------------------------


def _ints(data):
    return [[int(x) for x in row] for row in data]


def summary_from_result(res):
    """The fields the checks read, from a ``PipelineResult``."""
    return {
        "Q": res.Q.tolist(),
        "V_hat": res.covering.V_hat.tolist(),
        "beta": res.covering.beta.tolist(),
        "torsion": list(res.covering.torsion_invariants),
        "fans": [
            {
                "fan": [list(c) for c in fa.fan.maximal_cones],
                "B": fa.picard.B.tolist(),
                "index": fa.picard.index,
                "delta_sigma": fa.picard.delta_sigma,
                "C_X": fa.cartier.tolist(),
            }
            for fa in res.fans
        ],
    }


def summary_from_cli(doc):
    """The same fields, decoded from the JSON of ``torifactor pipeline``."""
    return {
        "Q": _ints(doc["Q"]["data"]),
        "V_hat": _ints(doc["V_hat"]["data"]),
        "beta": _ints(doc["beta"]["data"]),
        "torsion": [int(t) for t in doc["torsion_invariants"]],
        "fans": [
            {
                "fan": f["fan"],
                "B": _ints(f["B"]["data"]),
                "index": int(f["index"]),
                "delta_sigma": int(f["delta_sigma"]),
                "C_X": _ints(f["C_X"]["data"]),
            }
            for f in doc["fans"]
        ],
    }


def invariants(summary):
    """Fan count, torsion and the sorted multiset of (index, delta_sigma)."""
    return {
        "fans": len(summary["fans"]),
        "torsion": summary["torsion"],
        "picard": sorted([f["index"], f["delta_sigma"]] for f in summary["fans"]),
    }


# -- outside-in checks --------------------------------------------------------


def check_analysis(v, s, moduli, expected=None, one_fan=False):
    """Problems found in the analysis summary ``s`` of the fan matrix ``v``.

    ``moduli`` are the torsion invariants the benchmark computed itself.
    """
    n, m = len(v), len(v[0])
    problems = []
    q, beta, v_hat = s["Q"], s["beta"], s["V_hat"]
    if len(q) != m - n or any(x for row in matmul(q, transpose(v)) for x in row):
        problems.append("Q . V^T != 0")
    elif rank(q) != m - n or content(maximal_minors(q).values()) != 1:
        problems.append("Q does not span the integer kernel of V")
    if matmul(beta, v_hat) != v:
        problems.append("beta . V_hat != V")
    if abs(det(beta)) != prod(s["torsion"]):
        problems.append("|det beta| != product of torsion invariants")
    if s["torsion"] != moduli:
        problems.append(f"torsion {s['torsion']} != {moduli} (own Smith form)")
    if one_fan and len(s["fans"]) != 1:
        problems.append("--fan 0 did not return exactly one fan")
    dets = {}
    for f in s["fans"]:
        delta = 1
        for cone in f["fan"]:
            idx = tuple(j for j in range(m) if j not in cone)
            if idx not in dets:
                dets[idx] = abs(det(select_cols(q, idx)))
            delta = lcm(delta, dets[idx])
        if f["delta_sigma"] != delta:
            problems.append("delta_sigma is not the lcm of the complementary weight minors")
        if f["index"] != abs(det(f["B"])) or f["index"] % delta:
            problems.append("Picard index is not |det B| or not a multiple of delta_sigma")
        if f["C_X"][m - n :] != v:
            problems.append("Cartier basis does not end in the fan matrix")
    if expected is not None:
        got = invariants(s)
        for key in ("torsion",) if one_fan else ("fans", "torsion", "picard"):
            if got[key] != expected[key]:
                problems.append(f"{key} differs from expected.json")
    return sorted(set(problems))


def check_witness(v1, v2, doc):
    """Problems in an equivalence witness ``R . v1 . S == v2``."""
    r = _ints(doc["R"]["data"])
    s = _ints(doc["S"]["data"])
    problems = []
    if abs(det(r)) != 1:
        problems.append("R is not unimodular")
    unit = [0] * (len(s) - 1) + [1]
    if any(sorted(line) != unit for line in s + transpose(s)):
        problems.append("S is not a permutation matrix")
    if matmul(matmul(r, v1), s) != v2:
        problems.append("R . V1 . S != V2")
    return problems


# -- jobs ---------------------------------------------------------------------


def analyze_job(tf, v, fan_index, expected):
    moduli = class_group(v)[1]

    def call():
        return tf.analyze(tf.IntMatrix(v), fan_index=fan_index, verify=True)

    def check(res):
        return check_analysis(v, summary_from_result(res), moduli, expected, fan_index is not None)

    def text(res):
        return json.dumps(invariants(summary_from_result(res)))

    return Job("analyze", call, check, text, v)


def cli_job(tf, kind, argv, payload, check):
    stdin_text = payload if isinstance(payload, str) else json.dumps(payload)
    cli = tf.cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.run(argv)
                except SystemExit as exc:  # argparse rejects bad arguments this way
                    code = exc.code
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    def checked(result):
        code, out, err = result
        if kind == "error":
            return check(code, out, err)
        if code != 0:
            return [f"exit code {code}: {err.strip()[:200]}"]
        return check(json.loads(out))

    return Job(kind, call, checked, lambda res: f"{res[0]}\n{res[1]}", [argv, stdin_text])


def _matrix(v):
    return {"rows": len(v), "cols": len(v[0]), "data": v}


def pipeline_job(tf, v, expected):
    moduli = class_group(v)[1]
    return cli_job(
        tf,
        "pipeline",
        ["pipeline"],
        {"matrix": _matrix(v)},
        lambda doc: check_analysis(v, summary_from_cli(doc), moduli, expected),
    )


def reconstruct_job(tf, v):
    """Round trip: quotient data of ``v``, computed here, back to a fan matrix."""
    q, moduli, gamma = class_group(v)
    m = len(v[0])
    payload = {
        "weights": _matrix(q),
        "torsion": {"moduli": moduli, "rows": len(moduli), "cols": m, "data": gamma},
        "reference": _matrix(v),
    }

    def check(doc):
        w = _ints(doc["fan_matrix"]["data"])
        problems = []
        if any(x for row in matmul(w, transpose(q)) for x in row):
            problems.append("reconstruction is not orthogonal to the weights")
        for row, tau in zip(gamma, moduli):
            if any(x % tau for x in matmul([row], transpose(w))[0]):
                problems.append("reconstruction breaks a torsion congruence")
        if matmul(_ints(doc["beta"]["data"]), _ints(doc["V_hat"]["data"])) != w:
            problems.append("beta . V_hat != fan_matrix")
        if abs(det(_ints(doc["beta"]["data"]))) != prod(moduli):
            problems.append("|det beta| != product of the moduli")
        eq = doc.get("equivalence", {})
        if not eq.get("equivalent"):
            problems.append("reconstruction not equivalent to the reference")
        else:
            problems += check_witness(v, w, eq)
        return problems

    return cli_job(tf, "reconstruct", ["reconstruct"], payload, check)


def equiv_job(tf, v1, v2, equivalent):
    def check(doc):
        if doc["equivalent"] != equivalent:
            return [f"equivalent={doc['equivalent']}, expected {equivalent}"]
        return check_witness(v1, v2, doc) if equivalent else []

    kind = "equiv" if equivalent else "equiv-neq"
    return cli_job(tf, kind, ["equiv"], {"first": _matrix(v1), "second": _matrix(v2)}, check)


def error_job(tf, argv, payload, want):
    def check(code, out, err):
        problems = []
        if code != want:
            problems.append(f"exit code {code}, expected {want}")
        if out or not err.startswith("torifactor:") or "Traceback" in err:
            problems.append("error job must print one torifactor: message and no result")
        return problems

    return cli_job(tf, "error", argv, payload, check)


def minor_multiset(v):
    return sorted(abs(d) for d in maximal_minors(v).values())


def quotient_bases():
    """quotient-cli base instances: for pipeline jobs, for the searches
    (equiv, then reconstruct), and the known-inequivalent pairs."""

    def draw(shapes, label, count):
        return [
            random_reduced_f_matrix(rng_for("quotient", label, i), *shapes[i % len(shapes)])
            for i in range(count)
        ]

    bases = draw(QUOTIENT_SHAPES, "base", QUOTIENT_COUNTS["pipeline"])
    searched = draw(SEARCH_SHAPES, "search", QUOTIENT_COUNTS["equiv"] + QUOTIENT_COUNTS["reconstruct"])
    pairs = []
    for k, (n, r) in enumerate(INEQUIVALENT_SHAPES):
        rng = rng_for("quotient", "pair", k)
        first = random_reduced_f_matrix(rng, n, r)
        while True:
            second = random_reduced_f_matrix(rng, n, r)
            if minor_multiset(second) != minor_multiset(first):
                break
        pairs.append((first, second))
    return bases, searched, pairs


class Workload:
    """Builds the job list of each pass.  A pass is labelled by its number
    (0 is the untimed warm-up) or by a name, such as the traced pass's."""

    def __init__(self, name, seed, tf, smoke=False):
        self.name, self.seed, self.tf, self.smoke = name, seed, tf, smoke
        self.expected_doc = load_expected()
        self.fan_counts: dict[int, int] = {}
        if name in ("wide-fans", "tall-enum"):
            self.ladder = ladder_instances(self.expected_doc, name)
            if smoke:
                self.ladder = self.ladder[:1]
        elif name == "quotient-cli":
            self.bases, self.searched, self.pairs = quotient_bases()
        else:
            raise ValueError(f"unknown workload {name!r}")

    def shown(self, pass_label, v, *labels):
        """``v`` with the job's column shuffle, which no seed changes, and
        the row action of the seed and pass."""
        fixed = shuffle_columns(rng_for(self.name, *labels), v)
        return row_action(rng_for(self.seed, self.name, pass_label, *labels), fixed)

    def jobs(self, pass_label):
        if self.name == "quotient-cli":
            jobs = self._quotient_jobs(pass_label)
            if self.smoke:
                first = {}
                for job in jobs:
                    first.setdefault(job.kind, job)
                jobs = list(first.values())
            return jobs
        fan_index = None if self.name == "wide-fans" else 0
        jobs = []
        for i, (v0, entry) in enumerate(self.ladder):
            v = self.shown(pass_label, v0, i)
            jobs.append(analyze_job(self.tf, v, fan_index, entry))
        self.fan_counts = {i: entry["fans"] for i, (_, entry) in enumerate(self.ladder)}
        return jobs

    def _quotient_jobs(self, p):
        tf, seed = self.tf, self.seed

        def shown(v, *labels):
            return self.shown(p, v, *labels)

        known = self.expected_doc["worked_examples"] + self.expected_doc["quotient-cli"]
        jobs = [pipeline_job(tf, v, known[k]) for k, v in enumerate(WORKED_EXAMPLES)]
        for i, v in enumerate(self.bases):
            jobs.append(pipeline_job(tf, shown(v, "pipeline", i), known[2 + i]))
        self.fan_counts = {j: e["fans"] for j, e in enumerate(known)}
        n_equiv = QUOTIENT_COUNTS["equiv"]
        for i in range(QUOTIENT_COUNTS["reconstruct"]):
            jobs.append(reconstruct_job(tf, shown(self.searched[n_equiv + i], "reconstruct", i)))
        jobs.append(reconstruct_job(tf, WORKED_EXAMPLES[1]))
        for i in range(n_equiv):
            v = shown(self.searched[i], "equiv-first", i)
            jobs.append(equiv_job(tf, v, shown(v, "equiv-second", i), True))
        for k, (a, b) in enumerate(self.pairs):
            jobs.append(equiv_job(tf, shown(a, "neq-first", k), shown(b, "neq-second", k), False))
        v = shown(self.bases[1], "error")
        doubled = [row[:-1] + [2 * row[-1]] for row in v]
        rng = rng_for(seed, "quotient-cli", p, "error-shape")
        w = matmul(random_unimodular(rng, 2), [[1, 0, 1, 2], [0, 1, 1, 3]])
        jobs += [
            error_job(tf, ["pipeline"], '{"matrix": ', 1),
            error_job(tf, ["pipeline"], {"weights": _matrix(v)}, 1),
            error_job(tf, ["pipeline"], {"matrix": {"rows": len(v) + 1, "data": v}}, 1),
            error_job(tf, ["pipeline", "--fan", "x"], {"matrix": _matrix(v)}, 1),
            error_job(tf, ["pipeline"], {"matrix": _matrix(doubled)}, 2),
            error_job(tf, ["pipeline"], {"matrix": _matrix(w)}, 2),
            error_job(tf, ["pipeline", "--fan", "999"], {"matrix": _matrix(v)}, 2),
            error_job(tf, ["equiv"], {"first": _matrix(v), "second": _matrix(self.bases[0])}, 2),
        ]
        return jobs
