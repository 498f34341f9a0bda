"""Command-line front end with JSON input and deterministic JSON/plain output.

Matrices travel as ``{"rows": r, "cols": c, "data": [[...], ...]}`` with
entries given as integers, or as strings once they exceed 53-bit magnitude
so that no JSON reader can lose precision.  Torsion matrices additionally
carry ``"moduli"``.  Column and fan indices are 0-based throughout.  Each
command prints its result record (a ``Record`` of the library) by the names
in its ``_fields``, and every integer in the output, a matrix entry or not,
goes through the same 53-bit string rule.

Exit codes: 0 success, 1 malformed input (including a file that is not
UTF-8, a JSON number beyond the interpreter's int-to-string digit limit, and
a TORIFACTOR_MAX_PERM or TORIFACTOR_MAX_PARTIAL_FANS that is not a positive
integer) or a standard output that its reader closed, 2 violated
mathematical precondition (the failed classification conditions are
named), a search that reached its cap, or a result entry with
more digits than that limit allows in a string (the message names the limit;
it is left as the interpreter sets it).  TORIFACTOR_MAX_PERM caps the
equivalence search by candidate bases: the ordered tuples of columns of the
first matrix, with matching minor invariants, that could map onto the first
basis of columns of the second.  TORIFACTOR_MAX_PARTIAL_FANS caps
the fan search of ``fans``, ``picard``, ``cartier`` and ``pipeline`` by the
partial fans it pushes; with ``--fan K``, up to the root of fan K, where the
search stops.  Only this front end reads them; the library takes
the caps as the ``max_permutations`` argument of ``fan_matrix_equivalence``
and the ``max_partial_fans`` argument of ``enumerate_fans`` and ``analyze``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import lru_cache
from typing import Any, Optional

from .intmat import IntMatrix, PreconditionError, Record, SearchLimitExceeded, ShapeError
from .intmat import shared_tables
from .covering import (
    CoveringData,
    TorsionMatrix,
    covering_decomposition,
    torsion_generators,
    torsion_matrix,
)
from .fans import enumerate_fans
from .gale import classify_F, classify_W, gale_dual
from .normal_forms import HnfResult, SnfResult, hnf, snf
from .pipeline import PipelineResult, analyze
from .reconstruction import QuotientPresentation, fan_matrix_equivalence, reconstruct

_BIG = 1 << 53
_PLAIN_INT = frozenset((int,))
MAX_PERM_ENV = "TORIFACTOR_MAX_PERM"
MAX_PARTIAL_FANS_ENV = "TORIFACTOR_MAX_PARTIAL_FANS"


class InputFormatError(ValueError):
    """Malformed job input (bad JSON, schema, or shapes)."""


class OutputLimitError(ValueError):
    """A result entry has more digits than the interpreter converts to a string."""


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
    if -_BIG < x < _BIG:
        return x
    try:
        return str(x)
    except ValueError as exc:
        raise OutputLimitError(
            "a result entry exceeds the interpreter's limit of "
            f"{sys.get_int_max_str_digits()} digits for integer string conversion"
        ) from exc


def _encode_ints(xs: Any) -> list:
    """The ints of ``xs`` by the 53-bit rule, in one pass that calls
    ``_encode_int`` only on those beyond 53 bits."""
    return [x if -_BIG < x < _BIG else _encode_int(x) for x in xs]


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
        "data": [_encode_ints(row) for row in m],
    }


def encode_torsion(t: TorsionMatrix) -> dict:
    return {
        "moduli": _encode_ints(t.moduli),
        "rows": t.rows,
        "cols": t.cols,
        "data": [_encode_ints(row) for row in t.entries],
    }


def _fields(record: Record) -> dict:
    """The fields of a result record by name."""
    return {name: getattr(record, name) for name in record._fields}


def _encode(value: Any) -> Any:
    """The JSON value of a result: matrices and torsion matrices as objects,
    integers by the 53-bit rule, tuples as lists, and a result record as an
    object of its fields.  A list or tuple of plain ints, such as a cone or an
    index set, goes through ``_encode_ints`` in one call, as a matrix row does."""
    if isinstance(value, int) and not isinstance(value, bool):
        return _encode_int(value)
    if isinstance(value, (list, tuple)):
        if _PLAIN_INT.issuperset(map(type, value)):  # every item an int, not a bool
            return _encode_ints(value)
        return [_encode(x) for x in value]
    if isinstance(value, IntMatrix):
        return encode_matrix(value)
    if isinstance(value, TorsionMatrix):
        return encode_torsion(value)
    if isinstance(value, dict):
        return {key: _encode(x) for key, x in value.items()}
    if isinstance(value, Record):
        return _encode(_fields(value))
    return value


# -- command handlers --------------------------------------------------------


def _need(payload: dict, field: str) -> Any:
    if field not in payload:
        raise InputFormatError(f"missing field {field!r}")
    return payload[field]


def _matrix(payload: dict) -> IntMatrix:
    return decode_matrix(_need(payload, "matrix"))


def _run_hnf(payload: dict, args: argparse.Namespace) -> HnfResult:
    return hnf(_matrix(payload))


def _run_snf(payload: dict, args: argparse.Namespace) -> SnfResult:
    return snf(_matrix(payload))


def _run_gale(payload: dict, args: argparse.Namespace) -> dict:
    return {"dual": gale_dual(_matrix(payload))}


def _run_classify(payload: dict, args: argparse.Namespace) -> dict:
    m = _matrix(payload)
    kind = _need(payload, "kind")
    if kind == "F":
        return {"kind": "F", **_fields(classify_F(m))}
    if kind == "W":
        return {"kind": "W", **_fields(classify_W(m))}
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


def _run_fans(payload: dict, args: argparse.Namespace) -> dict:
    fans = enumerate_fans(_matrix(payload), max_partial_fans=_env_cap(MAX_PARTIAL_FANS_ENV))
    if args.count:
        return {"count": len(fans)}
    return {"count": len(fans), "fans": [fan.maximal_cones for fan in fans]}


def _run_cover(payload: dict, args: argparse.Namespace) -> CoveringData:
    return covering_decomposition(_matrix(payload))


def _run_torsion(payload: dict, args: argparse.Namespace) -> dict:
    cd = covering_decomposition(_matrix(payload))
    return {"torsion_invariants": cd.torsion_invariants, "generators": torsion_generators(cd)}


def _run_gamma(payload: dict, args: argparse.Namespace) -> dict:
    return {"Gamma": torsion_matrix(covering_decomposition(_matrix(payload)))}


def _analyze(payload: dict, args: argparse.Namespace) -> PipelineResult:
    return analyze(
        _matrix(payload),
        fan_index=args.fan,
        verify=not args.no_verify,
        max_partial_fans=_env_cap(MAX_PARTIAL_FANS_ENV),
    )


def _fan_entries(res: PipelineResult, index_sets: bool, cartier: bool) -> list:
    entries = []
    for fa in res.fans:
        entry = {"fan": fa.fan.maximal_cones, **_fields(fa.picard)}
        if index_sets:
            entry["index_sets"] = fa.index_sets.sets
        if cartier:
            entry["C_X"] = fa.cartier
        entries.append(entry)
    return entries


def _run_picard(payload: dict, args: argparse.Namespace) -> dict:
    return {"fans": _fan_entries(_analyze(payload, args), index_sets=True, cartier=False)}


def _run_cartier(payload: dict, args: argparse.Namespace) -> dict:
    return {"fans": _fan_entries(_analyze(payload, args), index_sets=True, cartier=True)}


def _witness(v1: IntMatrix, v2: IntMatrix) -> dict:
    """Whether ``v1`` and ``v2`` are equivalent fan matrices, with the witness
    ``R``, ``S`` when they are."""
    witness = fan_matrix_equivalence(v1, v2, max_permutations=_env_cap(MAX_PERM_ENV))
    if witness is None:
        return {"equivalent": False}
    r, s = witness
    return {"equivalent": True, "R": r, "S": s}


def _run_reconstruct(payload: dict, args: argparse.Namespace) -> dict:
    q = decode_matrix(_need(payload, "weights"), "weights")
    gamma = decode_torsion(_need(payload, "torsion"))
    # one table for the job: the HNF of Q^T that classify_W takes also gives gale_dual(Q)
    with shared_tables():
        pres = QuotientPresentation(q, gamma)
        v_hat = decode_matrix(payload["covering"], "covering") if "covering" in payload else None
        rec = reconstruct(pres, v_hat)
        out = {"V_hat": rec.V_hat, "K": rec.K, "beta": rec.beta, "fan_matrix": rec.V}
        if "reference" in payload:
            out["equivalence"] = _witness(decode_matrix(payload["reference"], "reference"), rec.V)
    return out


def _run_equiv(payload: dict, args: argparse.Namespace) -> dict:
    v1 = decode_matrix(_need(payload, "first"), "first")
    v2 = decode_matrix(_need(payload, "second"), "second")
    return _witness(v1, v2)


def _run_pipeline(payload: dict, args: argparse.Namespace) -> dict:
    res = _analyze(payload, args)
    return {
        "Q": res.Q,
        "V_hat": res.covering.V_hat,
        "beta": res.covering.beta,
        "Delta": res.covering.Delta,
        "torsion_invariants": res.covering.torsion_invariants,
        "torsion_generators": res.class_group.torsion_generator_rows,
        "Gamma": res.gamma,
        "free_generators": res.class_group.free_generators,
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
            result = _encode(_HANDLERS[args.command](payload, args))
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
