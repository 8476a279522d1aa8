"""Self-test of the independent checker in oracle.py.

    python3 perfbench/selftest.py

Solves one exact realization and one float similarity problem with the
CLI, checks that oracle accepts both outputs, then checks that it rejects
three tampered versions of each: one entry changed by 1/7, two diagonal
entries swapped, and the reference spectrum with one eigenvalue moved.
Exits 0 when every verdict is as expected, 1 otherwise.
"""

import copy
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

import gen
import oracle
from run import import_cli


def solve(cli, prob: dict, workdir: Path) -> dict:
    src, dst = workdir / "in.json", workdir / "out.json"
    src.write_text(json.dumps(prob["doc"]))
    rc = cli.main(prob["argv"] + ["--input", str(src), "--output", str(dst)])
    if rc != 0:
        sys.exit(f"selftest: the CLI failed on the self-test problem (exit {rc})")
    return json.loads(dst.read_text())


def swap_diagonal(matrix: list) -> list:
    """Swap the first two diagonal entries that differ."""
    out = copy.deepcopy(matrix)
    n = len(out)
    i, j = next(
        (i, j) for i in range(n) for j in range(i + 1, n) if out[i][i] != out[j][j]
    )
    out[i][i], out[j][j] = out[j][j], out[i][i]
    return out


def exact_cases(prob: dict, out: dict):
    bumped = copy.deepcopy(out)
    bumped["matrix"][0][1] = gen.q(Fraction(bumped["matrix"][0][1]) + Fraction(1, 7))
    moved = dict(prob, reals=[prob["reals"][0], prob["reals"][1] + Fraction(1, 7)]
                 + prob["reals"][2:])
    rng = random.Random(0)
    yield "exact: untampered", True, oracle.check(prob, out, rng)
    yield "exact: entry + 1/7", False, oracle.check(prob, bumped, rng)
    yield "exact: diagonal swap", False, oracle.check(
        prob, dict(out, matrix=swap_diagonal(out["matrix"])), rng)
    yield "exact: eigenvalue moved", False, oracle.check(moved, out, rng)


def float_cases(prob: dict, out: dict):
    bumped = copy.deepcopy(out)
    bumped["matrix"][0][1] += 1 / 7
    spec = np.linalg.eigvals(np.array(prob["A"]))
    spec[0] += 1 / 7
    yield "float: untampered", True, oracle.check_similar(prob, out)
    yield "float: entry + 1/7", False, oracle.check_similar(prob, bumped)
    yield "float: diagonal swap", False, oracle.check_similar(
        prob, dict(out, matrix=swap_diagonal(out["matrix"])))
    yield "float: eigenvalue moved", False, oracle.check_similar(prob, out, spec_a=spec)


def main() -> int:
    cli = import_cli()
    rng = random.Random("selftest")
    # n = 8 with at least one tail real, so an eigenvalue can be moved
    exact = next(p for p in (gen.wedge_problem(rng, 8) for _ in range(100))
                 if len(p["reals"]) > 1)
    similar = gen.similar_float_problem(rng, 12)
    ok = True
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        cases = list(exact_cases(exact, solve(cli, exact, Path(tmp))))
        cases += float_cases(similar, solve(cli, similar, Path(tmp)))
    for name, should_pass, bad in cases:
        good = (not bad) == should_pass
        ok &= good
        verdict = "accepted" if not bad else "rejected (" + ", ".join(bad) + ")"
        print(f"{'ok  ' if good else 'FAIL'} {name}: {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
