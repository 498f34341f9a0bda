"""Outside-in span tracer for the ``torifactor`` package.

Wraps every public function of the library modules, and
``IntMatrix.__init__``, in a recorder.  The modules import each other's
functions by name, so a wrapper is bound into every ``torifactor.*``
namespace that holds the original.  Spans (name, start, end, parent, job)
are kept in flat arrays in memory and written out when the run ends; the
per-layer metrics are derived from them afterwards.

Time the tracer spends in its own inspection hooks is subtracted from the
clock, so hook work is not charged to the surrounding spans.  The plain
bookkeeping of each span is not subtracted; ``trace.overhead`` reports it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

from zmath import maximal_minors

LAYERS = (
    "intmat",
    "normal_forms",
    "lattices",
    "gale",
    "fans",
    "covering",
    "divisors",
    "reconstruction",
    "pipeline",
    "cli",
)

JOB = "bench.job"
PICARD = "divisors.picard_basis"
VERIFY = "pipeline.verify_result"
ENUMERATE = "fans.enumerate_fans"
EQUIV = "reconstruction.fan_matrix_equivalence"
HNF = "normal_forms.hnf"
INTERSECT = "lattices.lattice_intersection"
INIT = "intmat.IntMatrix.__init__"


def _max_bits(matrices):
    return max(abs(x).bit_length() for m in matrices for row in m for x in row)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._job_id = -1
        self._skew = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self.hnf_max_bits = 0
        self.fans_found: list[tuple[int, int]] = []  # (job, fans) per enumeration
        self.candidate_cones = 0
        self.index_sets = 0
        self.distinct_index_sets: set[tuple[int, tuple[int, ...]]] = set()

    # -- recording -------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _clock(self):
        return time.perf_counter() - self._skew

    def wrap(self, name, fn, hook=None):
        nid = self._id(name)
        stack, start, end = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self._job_id)
            end.append(0.0)
            stack.append(idx)
            start.append(self._clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = self._clock()
                stack.pop()
            if hook is not None:
                t0 = time.perf_counter()
                hook(args, kwargs, result)
                self._skew += time.perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def job_span(self, job_id, call):
        """Run ``call()`` as job ``job_id`` under a root span."""
        self._job_id = job_id
        try:
            return self.wrap(JOB, call)()
        finally:
            self._job_id = -1

    def job_times(self):
        """Time of each job's root span, by job id; hook time is not in it."""
        nid = self._ids.get(JOB)
        return {
            self.job[i]: self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name[i] == nid
        }

    # -- hooks that read arguments and results ---------------------------

    def _on_hnf(self, args, kwargs, res):
        self.hnf_max_bits = max(self.hnf_max_bits, _max_bits((res.H, res.U)))

    def _on_enumerate(self, args, kwargs, fans):
        v = args[0] if args else kwargs["v"]
        self.fans_found.append((self._job_id, len(fans)))
        self.candidate_cones += sum(1 for d in maximal_minors(v.tolist()).values() if d)

    def _on_picard(self, args, kwargs, res):
        family = args[1] if len(args) > 1 else kwargs["index_family"]
        self.index_sets += len(family.sets)
        self.distinct_index_sets.update((self._job_id, s) for s in family.sets)

    # -- patching --------------------------------------------------------

    def install(self):
        """Bind a wrapper for every public library function; ``uninstall`` undoes it."""
        hooks = {HNF: self._on_hnf, ENUMERATE: self._on_enumerate, PICARD: self._on_picard}
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"torifactor.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self.wrap(name, obj, hooks.get(name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "torifactor" and not mod_name.startswith("torifactor."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
        int_matrix = sys.modules["torifactor.intmat"].IntMatrix
        self._restore.append((int_matrix, "__init__", int_matrix.__init__))
        int_matrix.__init__ = self.wrap(INIT, int_matrix.__init__)

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def dump(self, path):
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [
                [field, getattr(self, field).typecode]
                for field in ("name", "parent", "job", "start", "end")
            ],
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(handle)

    def metrics(self, tail_jobs):
        """Per-layer metrics; ``tail_jobs`` are the job ids above the p90."""
        count = len(self.start)
        names = self.names
        layer_of = [n.split(".", 1)[0] for n in names]
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * count
        under = [0] * count  # bit 1: inside picard_basis, bit 2: inside equivalence
        bit_of = {self._ids.get(PICARD): 1, self._ids.get(EQUIV): 2}
        calls = {name: 0 for name in names}
        incl = {name: 0.0 for name in names}
        layer_calls = {layer: 0 for layer in LAYERS}
        layer_self = {layer: 0.0 for layer in LAYERS}
        job_time = {}
        tail_equiv = 0.0
        picard_intersections = equiv_hnf = 0
        nid_hnf, nid_int = self._ids.get(HNF), self._ids.get(INTERSECT)
        nid_equiv, nid_job = self._ids.get(EQUIV), self._ids.get(JOB)
        for i in range(count):
            p = self.parent[i]
            nid = self.name[i]
            if p >= 0:
                child[p] += dur[i]
                under[i] = under[p] | bit_of.get(self.name[p], 0)
            calls[names[nid]] += 1
            incl[names[nid]] += dur[i]
            if nid == nid_int and under[i] & 1:
                picard_intersections += 1
            elif nid == nid_hnf and under[i] & 2:
                equiv_hnf += 1
            elif nid == nid_job:
                job_time[self.job[i]] = dur[i]
            elif nid == nid_equiv and self.job[i] in tail_jobs and not under[i] & 2:
                tail_equiv += dur[i]
        hnf_self = 0.0
        for i in range(count):
            layer = layer_of[self.name[i]]
            if layer in layer_self:
                layer_calls[layer] += 1
                layer_self[layer] += dur[i] - child[i]
            if self.name[i] == nid_hnf:
                hnf_self += dur[i] - child[i]
        tail_time = sum(t for j, t in job_time.items() if j in tail_jobs)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (layer_calls[layer], "count")
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        out.update(
            {
                "intmat.IntMatrix.constructions": (calls.get(INIT, 0), "count"),
                "normal_forms.hnf.calls": (calls.get(HNF, 0), "count"),
                "normal_forms.hnf.self_s": (hnf_self, "s"),
                "normal_forms.hnf.max_bits": (self.hnf_max_bits, "bits"),
                "normal_forms.snf.calls": (calls.get("normal_forms.snf", 0), "count"),
                "lattices.lattice_intersection.calls": (calls.get(INTERSECT, 0), "count"),
                "lattices.kernel_saturation.calls": (
                    calls.get("lattices.kernel_saturation", 0),
                    "count",
                ),
                "gale.require_F.calls": (calls.get("gale.require_F", 0), "count"),
                "fans.enumerate_fans.incl_s": (incl.get(ENUMERATE, 0.0), "s"),
                "fans.fans_found": (sum(c for _, c in self.fans_found), "count"),
                "fans.candidate_cones": (self.candidate_cones, "count"),
                "divisors.picard_basis.incl_s": (incl.get(PICARD, 0.0), "s"),
                "divisors.intersections_per_fan": (
                    _ratio(picard_intersections, calls.get(PICARD, 0)),
                    "ratio",
                ),
                "divisors.distinct_index_set_ratio": (
                    _ratio(len(self.distinct_index_sets), self.index_sets),
                    "ratio",
                ),
                "pipeline.verify_result.incl_s": (incl.get(VERIFY, 0.0), "s"),
                "reconstruction.fan_matrix_equivalence.incl_s": (incl.get(EQUIV, 0.0), "s"),
                "reconstruction.hnf_per_equiv": (
                    _ratio(equiv_hnf, calls.get(EQUIV, 0)),
                    "ratio",
                ),
                "reconstruction.fan_matrix_equivalence.p90_tail_share": (
                    _ratio(tail_equiv, tail_time),
                    "ratio",
                ),
                "trace.jobs_s": (sum(job_time.values()), "s"),
                "trace.spans": (count, "count"),
            }
        )
        return out


def _ratio(num, den):
    return num / den if den else 0.0

