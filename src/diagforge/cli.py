"""Command line interface.

Problems arrive as JSON files; results leave as JSON on stdout or a
file.  Exit codes: 0 success, 1 failed verification verdict, 2 invalid
input, 3 infeasible construction, 4 self-certification failure or an
iterative routine that did not converge (both indicate a library fault,
not a bad problem).

Scalar encoding in problem files: integers and floats as JSON numbers,
rationals as "p/q" strings, complex values as two-element [re, im]
arrays.  If every value is an integer or rational the whole problem
runs on the exact backend; one float switches everything to floats.
--exact insists on the exact backend and rejects float input; it also
switches output to "p/q" strings instead of floats.  An integer beyond
the float range in a float section is invalid input, and so is one in an
exact ``similar`` problem that takes the float route.

A section of plain finite JSON numbers is parsed in one pass; anything
else (bools, strings, pairs, NaN or Infinity, a float under --exact)
goes entry by entry through ``parse_scalar``, which reports the errors.
A real float matrix, and a tuple of floats in a trace, are emitted as
they are, without per-entry dispatch.  ``main`` builds the argument
parser on its first call and reuses it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from itertools import chain
from typing import Optional

from .certify import certify
from .errors import CertificationError, ConvergenceError, FeasibilityError
from .matrix import DenseMatrix
from .nonneg import Spectrum, classify, realize_mixed
from .scalars import ComplexRational, exact_complex, to_float
from .similarity import similar_with_diagonal


class ProblemError(ValueError):
    """Malformed problem file."""


# ---------------------------------------------------------------------------
# scalar and structure parsing
# ---------------------------------------------------------------------------


def parse_scalar(raw, exact_only: bool):
    if isinstance(raw, bool):
        raise ProblemError("booleans are not numbers")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, float):
        if not math.isfinite(raw):
            raise ProblemError(f"{raw!r} is not a finite number")
        if exact_only:
            raise ProblemError(f"float {raw!r} not allowed with --exact")
        return raw
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemError(f"bad rational {raw!r}: {exc}") from None
    if isinstance(raw, list) and len(raw) == 2:
        re_v = parse_scalar(raw[0], exact_only)
        im_v = parse_scalar(raw[1], exact_only)
        if isinstance(re_v, (int, Fraction)) and isinstance(im_v, (int, Fraction)):
            return exact_complex(re_v, im_v)
        return complex(_float(re_v), _float(im_v))
    raise ProblemError(f"cannot parse scalar from {raw!r}")


def _float(v):
    """``to_float``, with a number beyond the float range as bad input."""
    try:
        return to_float(v)
    except OverflowError as exc:
        raise ProblemError(f"cannot convert {type(v).__name__} to float: {exc}") from None


def _coerce_section(values: list) -> list:
    """One float makes the whole section float."""
    if any(isinstance(v, (float, complex)) for v in values):
        out = []
        for v in values:
            f = _float(v)
            out.append(f if isinstance(f, (float, complex)) else float(f))
        return out
    return values


def _plain_numbers(values: list, exact_only: bool) -> Optional[list]:
    """A section of plain JSON numbers in one pass: ``values`` as they are
    when all are ints, all as floats when one is a float.  None when some
    value needs ``parse_scalar`` (a bool, string, pair, non-finite float,
    a float under ``--exact``, or an int beyond the float range among
    floats); that path then gives the result or the error."""
    kinds = set(map(type, values))
    if kinds == {int}:
        return values
    if exact_only or not kinds <= {int, float}:
        return None
    try:
        out = values if kinds == {float} else list(map(float, values))
    except OverflowError:
        return None
    # one NaN or infinity makes the sum non-finite; so may finite floats
    # near the top of the range, which the general path then accepts
    return out if math.isfinite(sum(out)) else None


def parse_vector(raw, name: str, exact_only: bool) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ProblemError(f"{name!r} must be a non-empty array")
    values = _plain_numbers(raw, exact_only)
    if values is None:
        values = _coerce_section([parse_scalar(v, exact_only) for v in raw])
    return tuple(values)


def parse_matrix(raw, exact_only: bool) -> DenseMatrix:
    if not isinstance(raw, list) or not raw:
        raise ProblemError("'matrix' must be a non-empty array of rows")
    n = len(raw)
    flat = None
    if all(isinstance(row, list) and len(row) == n for row in raw):
        flat = _plain_numbers(list(chain.from_iterable(raw)), exact_only)
    if flat is None:
        rows = []
        for row in raw:
            if not isinstance(row, list) or len(row) != n:
                raise ProblemError("'matrix' must be square, row-major")
            rows.append([parse_scalar(v, exact_only) for v in row])
        flat = _coerce_section(list(chain.from_iterable(rows)))
    exact = not isinstance(flat[0], (float, complex))
    if exact:
        # _trusted takes exact entries as Fraction/ComplexRational only
        flat = [Fraction(v) if isinstance(v, int) else v for v in flat]
    return DenseMatrix._trusted([flat[i * n : (i + 1) * n] for i in range(n)], exact)


def load_problem(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ProblemError("problem file must be a JSON object")
    return doc


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def emit_scalar(v, exact_out: bool):
    # float first, by exact type: the other checks include Fraction's
    # slow ABCMeta isinstance
    if type(v) is float:
        return v
    if isinstance(v, ComplexRational):
        return [emit_scalar(v.re, exact_out), emit_scalar(v.im, exact_out)]
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        if exact_out:
            return f"{v.numerator}/{v.denominator}"
        return float(v)
    if isinstance(v, int):
        return v
    return float(v)


def emit_nested(obj, exact_out: bool):
    if isinstance(obj, dict):
        return {k: emit_nested(v, exact_out) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= {float}:
            return list(obj)
        return [emit_nested(v, exact_out) for v in obj]
    if isinstance(obj, (int, float, Fraction, complex, ComplexRational)):
        return emit_scalar(obj, exact_out)
    return obj


def emit_matrix(B: DenseMatrix, exact_out: bool):
    if not B.exact and B.to_numpy().dtype.kind == "f":
        # a real float matrix holds Python floats (the _trusted contract)
        return [list(row) for row in B.rows]
    return [[emit_scalar(v, exact_out) for v in row] for row in B.rows]


def write_output(doc: dict, path: Optional[str]):
    text = json.dumps(doc, indent=2, allow_nan=False)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _setting(args, doc, key, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in doc and doc[key] is not None:
        return doc[key]
    return default


def _mode(args, doc, default) -> str:
    mode = _setting(args, doc, "mode", default)
    if mode not in ("nonnegative", "general"):
        raise ProblemError(f"unknown mode: {mode!r}")
    return mode


def _flag(doc, key, default) -> bool:
    """The file's ``key`` if present, which must be a JSON boolean."""
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ProblemError(f"{key!r} must be true or false, got {value!r}")
    return value


def _tolerance(args, doc) -> float:
    """The ``--tol`` flag, else the file's ``tol`` or ``tolerance`` key
    (null counts as absent), else 1e-9; it must be a finite number > 0."""
    raw = _setting(args, doc, "tol", _setting(args, doc, "tolerance", 1e-9))
    try:
        tol = float(raw)
    except (TypeError, ValueError):
        tol = math.nan
    if isinstance(raw, bool) or not (math.isfinite(tol) and tol > 0):
        raise ProblemError(f"tolerance must be a finite number > 0, got {raw!r}")
    return tol


def _require_spectrum(doc, exact_only) -> tuple:
    if "spectrum" not in doc:
        raise ProblemError("'spectrum' is required for this command")
    return parse_vector(doc["spectrum"], "spectrum", exact_only)


def cmd_classify(args) -> int:
    doc = load_problem(args.input)
    values = _require_spectrum(doc, args.exact)
    tol = _tolerance(args, doc)
    spec = Spectrum(values, tol=tol)
    cls = classify(spec)
    exact_out = bool(args.exact)
    write_output(
        {
            "status": "ok",
            "class": cls.tag.value,
            "flags": list(cls.flags),
            "perron": emit_scalar(spec.perron, exact_out),
            "tail": [emit_scalar(z, exact_out) for z in spec.tail],
        },
        args.output,
    )
    return 0


def cmd_realize(args) -> int:
    doc = load_problem(args.input)
    mode = _mode(args, doc, "nonnegative")
    if mode == "general":
        if "spectrum" in doc:
            raise ProblemError("general mode takes 'matrix', not 'spectrum'")
        return _similar(args, doc, mode)
    tol = _tolerance(args, doc)
    if "diagonal" not in doc:
        raise ProblemError("'diagonal' is required for realize")
    gammas = parse_vector(doc["diagonal"], "diagonal", args.exact)
    if "matrix" in doc:
        raise ProblemError("nonnegative mode takes 'spectrum', not 'matrix'")
    values = _require_spectrum(doc, args.exact)
    order = _setting(args, doc, "order", "auto")
    # realize_mixed certifies its output and raises if it fails
    B, plan = realize_mixed(values, gammas, order=order, tol=tol)
    exact_out = bool(args.exact)
    write_output(
        {
            "status": "ok",
            "mode": mode,
            "matrix": emit_matrix(B, exact_out),
            "diagonal": [emit_scalar(g, exact_out) for g in gammas],
            "plan": emit_nested(plan.to_dict(), exact_out),
            "certificate": plan.certificate.to_dict(),
        },
        args.output,
    )
    return 0


def cmd_similar(args) -> int:
    return _similar(args, load_problem(args.input))


def _similar(args, doc: dict, mode: Optional[str] = None) -> int:
    """``similar``, and ``realize`` in general mode (which adds ``mode``
    to the output)."""
    tol = _tolerance(args, doc)
    if "matrix" not in doc:
        raise ProblemError(f"'matrix' is required for {args.command}")
    if "diagonal" not in doc:
        raise ProblemError(f"'diagonal' is required for {args.command}")
    A = parse_matrix(doc["matrix"], args.exact)
    gammas = parse_vector(doc["diagonal"], "diagonal", args.exact)
    B, trace = similar_with_diagonal(A, gammas, tol=tol)
    cert = certify(B, diagonal=gammas)
    exact_out = bool(args.exact)
    out = {"status": "ok"} if mode is None else {"status": "ok", "mode": mode}
    out.update(
        matrix=emit_matrix(B, exact_out),
        diagonal=[emit_scalar(g, exact_out) for g in gammas],
        trace=[{"op": s.op, "data": emit_nested(s.data, exact_out)} for s in trace],
        certificate=cert.to_dict(),
    )
    if not cert.ok:
        raise CertificationError("output failed certification", certificate=cert)
    write_output(out, args.output)
    return 0


def cmd_verify(args) -> int:
    doc = load_problem(args.input)
    if "matrix" not in doc:
        raise ProblemError("'matrix' is required for verify")
    A = parse_matrix(doc["matrix"], args.exact)
    spectrum = (
        parse_vector(doc["spectrum"], "spectrum", args.exact)
        if "spectrum" in doc
        else None
    )
    diagonal = (
        parse_vector(doc["diagonal"], "diagonal", args.exact)
        if "diagonal" in doc
        else None
    )
    mode = _mode(args, doc, "general")
    nonneg = _flag(doc, "nonneg", mode == "nonnegative")
    cs = _flag(doc, "constant_row_sums", False)
    if spectrum is None and diagonal is None and not nonneg and not cs:
        raise ProblemError("verify needs at least one target or flag to check")
    cert = certify(A, spectrum=spectrum, diagonal=diagonal, nonneg=nonneg,
                   constant_row_sums=cs)
    write_output(
        {"status": "pass" if cert.ok else "fail", "certificate": cert.to_dict()},
        args.output,
    )
    return 0 if cert.ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagforge",
        description="construct and certify matrices with prescribed diagonals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="problem file (JSON)")
    common.add_argument("--output", default=None, help="write the result here")
    common.add_argument("--tol", type=float, default=None, dest="tol",
                        help="numerical tolerance (default 1e-9)")
    common.add_argument("--exact", action="store_true",
                        help="require exact input; emit p/q strings")

    sub.add_parser("classify", parents=[common],
                   help="classify a spectrum's tail").set_defaults(fn=cmd_classify)

    realize = sub.add_parser("realize", parents=[common],
                             help="build a matrix with the prescribed diagonal")
    realize.add_argument("--order", choices=("keep", "auto"), default=None,
                         help="diagonal assignment policy (default auto)")
    realize.set_defaults(fn=cmd_realize)

    sub.add_parser("similar", parents=[common],
                   help="rewrite a matrix's diagonal by similarity"
                   ).set_defaults(fn=cmd_similar)

    sub.add_parser("verify", parents=[common],
                   help="certify a matrix against targets"
                   ).set_defaults(fn=cmd_verify)
    return parser


def _glue_tol_value(argv: list) -> list:
    """Rewrite ``--tol X`` (or an abbreviation such as ``--to X``) as
    ``--tol=X``.  argparse reads a separate value such as ``-1e-3`` or
    ``-inf`` as an option, so the tolerance check would never see it."""
    out: list = []
    for a in argv:
        if out and len(out[-1]) > 2 and "--tol".startswith(out[-1]):
            out[-1] = f"--tol={a}"
        else:
            out.append(a)
    return out


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list] = None) -> int:
    global _parser
    if _parser is None:  # built on the first call, then reused
        _parser = build_parser()
    args = _parser.parse_args(_glue_tol_value(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except FeasibilityError as exc:
        write_output(
            {
                "status": "infeasible",
                "reason": str(exc),
                "condition": exc.condition,
                "level": exc.level,
            },
            args.output,
        )
        return 3
    except CertificationError as exc:
        doc = {"status": "certification-failure", "error": str(exc)}
        if exc.certificate is not None:
            doc["certificate"] = exc.certificate.to_dict()
        write_output(doc, args.output)
        return 4
    except ConvergenceError as exc:
        write_output({"status": "convergence-failure", "error": str(exc)}, args.output)
        return 4
    except (ProblemError, ValueError, TypeError, KeyError) as exc:
        write_output({"status": "error", "error": str(exc)}, args.output)
        return 2


if __name__ == "__main__":
    sys.exit(main())
