"""Command-line front end with JSON input and deterministic JSON/plain output.

Matrices travel as ``{"rows": r, "cols": c, "data": [[...], ...]}`` with
entries given as integers, or as strings once they exceed 53-bit magnitude
so that no JSON reader can lose precision.  Torsion matrices additionally
carry ``"moduli"``.  Column and fan indices are 0-based throughout.

Exit codes: 0 success, 1 malformed input (including a file that is not
UTF-8, a JSON number beyond the interpreter's int-to-string digit limit, and
a TORIFACTOR_MAX_PERM or TORIFACTOR_MAX_PARTIAL_FANS that is not a positive
integer) or a standard output that its reader closed, 2 violated
mathematical precondition (the failed classification conditions are
named), a search that reached its cap, or a result entry with
more digits than that limit allows in a string (the message names the limit;
it is left as the interpreter sets it).  TORIFACTOR_MAX_PERM caps the
equivalence search by candidate bases: the ordered column tuples of the
second matrix, with matching minor invariants, that could be the image of
one fixed basis of columns of the first.  TORIFACTOR_MAX_PARTIAL_FANS caps
the fan search of ``fans``, ``picard``, ``cartier`` and ``pipeline`` by the
partial fans it pushes.  Only this front end reads them; the library takes
the caps as the ``max_permutations`` argument of ``fan_matrix_equivalence``
and the ``max_partial_fans`` argument of ``enumerate_fans`` and ``analyze``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Optional

from .intmat import IntMatrix, PreconditionError, SearchLimitExceeded, ShapeError
from .covering import (
    TorsionMatrix,
    covering_decomposition,
    torsion_generators,
    torsion_matrix,
)
from .fans import enumerate_fans
from .gale import classify_F, classify_W, gale_dual
from .normal_forms import hnf, snf
from .pipeline import analyze
from .reconstruction import (
    QuotientPresentation,
    fan_matrix_equivalence,
    reconstruct,
)

_BIG = 1 << 53
MAX_PERM_ENV = "TORIFACTOR_MAX_PERM"
MAX_PARTIAL_FANS_ENV = "TORIFACTOR_MAX_PARTIAL_FANS"


class InputFormatError(ValueError):
    """Malformed job input (bad JSON, schema, or shapes)."""


class OutputLimitError(ValueError):
    """A result entry has more digits than the interpreter converts to a string."""


@dataclass(frozen=True)
class JobSpec:
    """One parsed CLI invocation: a command, its payload, and options."""

    command: str
    payload: dict
    fan_index: Optional[int]
    count_only: bool
    verify: bool


# -- JSON (de)serialization --------------------------------------------------


def _decode_int(x: Any) -> int:
    """An int, or a string as ``_encode_int`` writes one: an optional ``-``
    and ASCII digits, with no ``+``, spaces, underscores or other digits."""
    if isinstance(x, bool):
        raise InputFormatError("booleans are not matrix entries")
    if isinstance(x, int):
        return x
    if isinstance(x, str) and re.fullmatch("-?[0-9]+", x):
        try:
            return int(x)
        except ValueError as exc:  # beyond the interpreter's digit limit
            raise InputFormatError(f"not an integer: {x!r}") from exc
    raise InputFormatError(f"not an integer: {x!r}")


def _encode_int(x: int) -> Any:
    if abs(x) < _BIG:
        return x
    try:
        return str(x)
    except ValueError as exc:
        raise OutputLimitError(
            "a result entry exceeds the interpreter's limit of "
            f"{sys.get_int_max_str_digits()} digits for integer string conversion"
        ) from exc


def decode_matrix(obj: Any, what: str = "matrix") -> IntMatrix:
    if not isinstance(obj, dict) or "data" not in obj:
        raise InputFormatError(f"{what}: expected an object with a 'data' field")
    data = obj["data"]
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise InputFormatError(f"{what}: 'data' must be a non-empty list of rows")
    rows = [[_decode_int(x) for x in r] for r in data]
    try:
        m = IntMatrix(rows)
    except ShapeError as exc:
        raise InputFormatError(f"{what}: {exc}") from exc
    if "rows" in obj and _decode_int(obj["rows"]) != m.rows:
        raise InputFormatError(f"{what}: declared row count disagrees with data")
    if "cols" in obj and _decode_int(obj["cols"]) != m.cols:
        raise InputFormatError(f"{what}: declared column count disagrees with data")
    return m


def decode_torsion(obj: Any, what: str = "torsion") -> TorsionMatrix:
    if not isinstance(obj, dict) or "moduli" not in obj:
        raise InputFormatError(f"{what}: expected an object with a 'moduli' field")
    moduli = obj["moduli"]
    data = obj.get("data", [])
    if not isinstance(moduli, list):
        raise InputFormatError(f"{what}: 'moduli' must be a list")
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise InputFormatError(f"{what}: 'data' must be a list of rows")
    moduli = [_decode_int(t) for t in moduli]
    rows = [[_decode_int(x) for x in r] for r in data]
    if "rows" in obj and _decode_int(obj["rows"]) != len(moduli):
        raise InputFormatError(f"{what}: declared row count disagrees with moduli")
    width = obj.get("cols")
    try:
        return TorsionMatrix(moduli, rows, width=None if width is None else _decode_int(width))
    except (ShapeError, PreconditionError) as exc:
        raise InputFormatError(f"{what}: {exc}") from exc


def encode_matrix(m: IntMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "data": [[_encode_int(x) for x in row] for row in m],
    }


def encode_torsion(t: TorsionMatrix) -> dict:
    return {
        "moduli": [_encode_int(x) for x in t.moduli],
        "rows": t.rows,
        "cols": t.cols,
        "data": [[_encode_int(x) for x in row] for row in t.entries],
    }


# -- command handlers --------------------------------------------------------


def _need(payload: dict, field: str) -> Any:
    if field not in payload:
        raise InputFormatError(f"missing field {field!r}")
    return payload[field]


def _run_hnf(job: JobSpec) -> dict:
    res = hnf(decode_matrix(_need(job.payload, "matrix")))
    return {"H": encode_matrix(res.H), "U": encode_matrix(res.U)}


def _run_snf(job: JobSpec) -> dict:
    res = snf(decode_matrix(_need(job.payload, "matrix")))
    return {
        "D": encode_matrix(res.D),
        "U_left": encode_matrix(res.U_left),
        "U_right": encode_matrix(res.U_right),
    }


def _run_gale(job: JobSpec) -> dict:
    return {"dual": encode_matrix(gale_dual(decode_matrix(_need(job.payload, "matrix"))))}


def _run_classify(job: JobSpec) -> dict:
    m = decode_matrix(_need(job.payload, "matrix"))
    kind = _need(job.payload, "kind")
    if kind == "F":
        rep = classify_F(m)
        return {
            "kind": "F",
            "is_F": rep.is_F,
            "is_CF": rep.is_CF,
            "is_reduced": rep.is_reduced,
            "failed_conditions": list(rep.failed_conditions),
        }
    if kind == "W":
        rep = classify_W(m)
        return {
            "kind": "W",
            "is_W": rep.is_W,
            "failed_conditions": list(rep.failed_conditions),
        }
    raise InputFormatError("field 'kind' must be 'F' or 'W'")


def _env_cap(name: str) -> Optional[int]:
    """The search cap in environment variable ``name``; ``None`` when it is
    unset or empty, and an input error unless it is a positive integer in
    ASCII digits."""
    env = os.environ.get(name)
    if not env:
        return None
    try:
        cap = int(env) if re.fullmatch("[0-9]+", env) else 0
    except ValueError as exc:  # beyond the interpreter's digit limit
        raise InputFormatError(f"{name}: {exc}") from exc
    if cap == 0:
        raise InputFormatError(f"{name} must be a positive integer, got {env!r}")
    return cap


def _run_fans(job: JobSpec) -> dict:
    v = decode_matrix(_need(job.payload, "matrix"))
    fans = enumerate_fans(v, max_partial_fans=_env_cap(MAX_PARTIAL_FANS_ENV))
    out: dict = {"count": len(fans)}
    if not job.count_only:
        out["fans"] = [[list(c) for c in fan.maximal_cones] for fan in fans]
    return out


def _run_cover(job: JobSpec) -> dict:
    cd = covering_decomposition(decode_matrix(_need(job.payload, "matrix")))
    return {
        "V_hat": encode_matrix(cd.V_hat),
        "beta": encode_matrix(cd.beta),
        "Delta": encode_matrix(cd.Delta),
        "mu": encode_matrix(cd.mu),
        "nu": encode_matrix(cd.nu),
        "V_aligned": encode_matrix(cd.V_aligned),
        "V_hat_aligned": encode_matrix(cd.V_hat_aligned),
        "torsion_invariants": [_encode_int(t) for t in cd.torsion_invariants],
    }


def _run_torsion(job: JobSpec) -> dict:
    cd = covering_decomposition(decode_matrix(_need(job.payload, "matrix")))
    gens = torsion_generators(cd)
    return {
        "torsion_invariants": [_encode_int(t) for t in cd.torsion_invariants],
        "generators": encode_matrix(gens) if gens is not None else None,
    }


def _run_gamma(job: JobSpec) -> dict:
    cd = covering_decomposition(decode_matrix(_need(job.payload, "matrix")))
    return {"Gamma": encode_torsion(torsion_matrix(cd))}


def _analyze(job: JobSpec):
    v = decode_matrix(_need(job.payload, "matrix"))
    return analyze(
        v,
        fan_index=job.fan_index,
        verify=job.verify,
        max_partial_fans=_env_cap(MAX_PARTIAL_FANS_ENV),
    )


def _fan_entries(res, index_sets: bool, cartier: bool) -> list:
    entries = []
    for fa in res.fans:
        entry = {
            "fan": [list(c) for c in fa.fan.maximal_cones],
            "B": encode_matrix(fa.picard.B),
            "index": _encode_int(fa.picard.index),
            "delta_sigma": _encode_int(fa.picard.delta_sigma),
        }
        if index_sets:
            entry["index_sets"] = [list(s) for s in fa.index_sets.sets]
        if cartier:
            entry["C_X"] = encode_matrix(fa.cartier)
        entries.append(entry)
    return entries


def _run_picard(job: JobSpec) -> dict:
    return {"fans": _fan_entries(_analyze(job), index_sets=True, cartier=False)}


def _run_cartier(job: JobSpec) -> dict:
    return {"fans": _fan_entries(_analyze(job), index_sets=True, cartier=True)}


def _run_reconstruct(job: JobSpec) -> dict:
    q = decode_matrix(_need(job.payload, "weights"), "weights")
    gamma = decode_torsion(_need(job.payload, "torsion"))
    pres = QuotientPresentation(q, gamma)
    v_hat = None
    if "covering" in job.payload:
        v_hat = decode_matrix(job.payload["covering"], "covering")
    rec = reconstruct(pres, v_hat)
    out = {
        "V_hat": encode_matrix(rec.V_hat),
        "K": encode_matrix(rec.K) if rec.K is not None else None,
        "beta": encode_matrix(rec.beta),
        "fan_matrix": encode_matrix(rec.V),
    }
    if "reference" in job.payload:
        ref = decode_matrix(job.payload["reference"], "reference")
        witness = fan_matrix_equivalence(ref, rec.V, max_permutations=_env_cap(MAX_PERM_ENV))
        if witness is None:
            out["equivalence"] = {"equivalent": False}
        else:
            r, s = witness
            out["equivalence"] = {
                "equivalent": True,
                "R": encode_matrix(r),
                "S": encode_matrix(s),
            }
    return out


def _run_equiv(job: JobSpec) -> dict:
    v1 = decode_matrix(_need(job.payload, "first"), "first")
    v2 = decode_matrix(_need(job.payload, "second"), "second")
    witness = fan_matrix_equivalence(v1, v2, max_permutations=_env_cap(MAX_PERM_ENV))
    if witness is None:
        return {"equivalent": False}
    r, s = witness
    return {"equivalent": True, "R": encode_matrix(r), "S": encode_matrix(s)}


def _run_pipeline(job: JobSpec) -> dict:
    res = _analyze(job)
    gens = res.class_group.torsion_generator_rows
    return {
        "Q": encode_matrix(res.Q),
        "V_hat": encode_matrix(res.covering.V_hat),
        "beta": encode_matrix(res.covering.beta),
        "Delta": encode_matrix(res.covering.Delta),
        "torsion_invariants": [_encode_int(t) for t in res.covering.torsion_invariants],
        "torsion_generators": encode_matrix(gens) if gens is not None else None,
        "Gamma": encode_torsion(res.gamma),
        "free_generators": encode_matrix(res.class_group.free_generators),
        "fans": _fan_entries(res, index_sets=False, cartier=True),
    }


_HANDLERS = {
    "hnf": _run_hnf,
    "snf": _run_snf,
    "gale": _run_gale,
    "classify": _run_classify,
    "fans": _run_fans,
    "cover": _run_cover,
    "torsion": _run_torsion,
    "gamma": _run_gamma,
    "picard": _run_picard,
    "cartier": _run_cartier,
    "reconstruct": _run_reconstruct,
    "equiv": _run_equiv,
    "pipeline": _run_pipeline,
}
COMMANDS = tuple(_HANDLERS)


# -- plain-text rendering ----------------------------------------------------


def _render_plain(value: Any, indent: str = "") -> list[str]:
    lines: list[str] = []
    if isinstance(value, dict):
        if set(value) >= {"rows", "cols", "data"}:
            if "moduli" in value:
                lines.append(
                    indent + "moduli: [" + " ".join(str(x) for x in value["moduli"]) + "]"
                )
            for row in value["data"]:
                lines.append(indent + "[" + " ".join(str(x) for x in row) + "]")
            return lines
        for key in sorted(value):
            sub = _render_plain(value[key], indent + "  ")
            if len(sub) == 1 and not sub[0].startswith(indent + "  ["):
                lines.append(f"{indent}{key}: {sub[0].strip()}")
            else:
                lines.append(f"{indent}{key}:")
                lines.extend(sub)
        return lines
    if isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            return [indent + "[" + " ".join(str(x) for x in value) + "]"]
        for i, item in enumerate(value):
            lines.append(f"{indent}- {i}:")
            lines.extend(_render_plain(item, indent + "  "))
        return lines
    return [indent + str(value)]


# -- entry point -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="torifactor",
        description=(
            "Exact integer computations for complete simplicial fan matrices: "
            "normal forms, Gale duality, universal coverings, torsion data, "
            "Picard/Cartier bases, and quotient reconstruction."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument(
        "--input",
        "-i",
        action="append",
        default=None,
        help="input file with a JSON job payload, or '-' for stdin; may repeat",
    )
    parser.add_argument("--fan", type=int, default=None, help="0-based fan index to select")
    parser.add_argument("--count", action="store_true", help="fans: print only the count")
    parser.add_argument("--no-verify", action="store_true", help="skip cross-checks")
    parser.add_argument("--format", choices=("json", "plain"), default="json")
    return parser


def _load_payload(source: str) -> dict:
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {source}: {exc}") from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:  # also a number beyond the interpreter's digit limit
        raise InputFormatError(f"invalid JSON in {source}: {exc}") from exc
    except RecursionError:
        raise InputFormatError(f"invalid JSON in {source}: nested too deeply") from None
    if not isinstance(payload, dict):
        raise InputFormatError(f"{source}: top-level JSON value must be an object")
    return payload


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sources = args.input if args.input else ["-"]
    outputs = []
    for source in sources:
        try:
            payload = _load_payload(source)
            job = JobSpec(
                command=args.command,
                payload=payload,
                fan_index=args.fan,
                count_only=args.count,
                verify=not args.no_verify,
            )
            result = _HANDLERS[args.command](job)
        except InputFormatError as exc:
            print(f"torifactor: input error: {exc}", file=sys.stderr)
            return 1
        except (PreconditionError, ShapeError) as exc:
            print(f"torifactor: precondition violated: {exc}", file=sys.stderr)
            return 2
        except SearchLimitExceeded as exc:
            print(f"torifactor: search limit reached: {exc}", file=sys.stderr)
            return 2
        except OutputLimitError as exc:
            print(f"torifactor: result too large: {exc}", file=sys.stderr)
            return 2
        outputs.append(result)
    try:
        for result in outputs:
            if args.format == "json":
                print(json.dumps(result, sort_keys=True, separators=(",", ":")))
            else:
                print("\n".join(_render_plain(result)))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the flush at exit would fail again, so point
        # the descriptor at os.devnull (the SIGPIPE note of the signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("torifactor: output error: stdout was closed", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())
