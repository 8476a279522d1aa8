"""Exact char-poly time against n and coefficient size.

    python3 perfbench/charpoly_scan.py

Times ``diagforge.eigen.char_poly`` (median of three calls) on two kinds
of exact matrix: a dense integer matrix with entries in -9..9, as in the
similar-int workload, and the realized matrix of a wedge-exact problem.
Prints a markdown table with the largest coefficient's size in bits
(numerator plus denominator).  Reference figures are in README.md.
"""

import json
import random
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import gen
from run import import_cli

SIZES = (4, 8, 12, 16, 20, 24, 32)


def bits(c) -> int:
    parts = (c.re, c.im) if hasattr(c, "re") else (Fraction(c),)
    return max(p.numerator.bit_length() + p.denominator.bit_length() for p in parts)


def timed(char_poly, A):
    times = []
    for _ in range(3):
        t = time.process_time()
        coeffs = char_poly(A)
        times.append(time.process_time() - t)
    return statistics.median(times), max(bits(c) for c in coeffs)


def main() -> int:
    cli = import_cli()
    from diagforge.eigen import char_poly
    from diagforge.matrix import DenseMatrix

    rng = random.Random("charpoly-scan")
    print("| n | integer: ms | integer: bits | wedge: ms | wedge: bits |")
    print("| --- | --- | --- | --- | --- |")
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        src, dst = Path(tmp) / "in.json", Path(tmp) / "out.json"
        for n in SIZES:
            A = DenseMatrix(gen.similar_int_problem(rng, n)["doc"]["matrix"])
            int_s, int_bits = timed(char_poly, A)
            wedge = "| - | -"
            if n <= 24:
                # realized only to get a matrix; a failed realization
                # (see README, known faults) leaves the wedge cells empty
                prob = gen.wedge_problem(rng, n)
                src.write_text(json.dumps(prob["doc"]))
                try:
                    rc = cli.main(prob["argv"] + ["--input", str(src), "--output", str(dst)])
                except RuntimeError:  # ConvergenceError
                    rc = None
                if rc == 0:
                    rows = json.loads(dst.read_text())["matrix"]
                    B = DenseMatrix([[Fraction(v) for v in row] for row in rows])
                    w_s, w_bits = timed(char_poly, B)
                    wedge = f"| {1e3 * w_s:.1f} | {w_bits}"
            print(f"| {n} | {1e3 * int_s:.1f} | {int_bits} {wedge} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
