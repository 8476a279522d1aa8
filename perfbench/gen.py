"""Seeded problem generators for the four benchmark workloads.

Each workload is one *round*: a fixed list of problem slots whose sizes
do not depend on the seed, so every run attempts whole rounds of the
same shape and its medians compare across seeds.  The seed only chooses
the numbers inside each slot.  Rounds are short (a few seconds), so a run
repeats every problem several times, spread over the run.

A problem is a dict with the CLI arguments (``argv``), the JSON document
written to the input file (``doc``) and what the independent checker
needs to judge the output (``kind`` plus exact or float reference data).
"""

from __future__ import annotations

import random
from fractions import Fraction as F

WORKLOADS = ("wedge-exact", "chain-exact", "similar-int", "similar-float")

# wedge-exact: sizes 2..15 come from --seed.  Larger exact char polys can
# defeat the root finder (eigen.poly_roots), and whether they do depends
# on the instance, so sizes 16..24 are a fixed band drawn from its own
# stream, and WEDGE_FAULTS adds three instances that fail every time, one
# per symptom.  Keeping every possibly failing problem independent of
# --seed keeps the failed share of every run identical.
WEDGE_SEEDED_SIZES = tuple(range(2, 16)) * 4
WEDGE_FIXED_SIZES = tuple(range(16, 25))
# (draw, n) in the stream "wedge-exact:faults", drawn as
# `for draw in count(): for n in 21..24`: exit 4 (a correct matrix is
# rejected), exit 2 (NaN roots), ConvergenceError out of cli.main
WEDGE_FAULTS = ((2, 23), (5, 24), (8, 24))

# chain-exact: (wide-wedge pairs, F-tail reals, F-tail pairs) per slot;
# n = 1 + 2 * pairs + reals + 2 * F pairs, 5..18.
CHAIN_SHAPES = (
    (2, 0, 0), (2, 2, 0), (2, 1, 1),
    (3, 0, 0), (3, 2, 0), (3, 1, 1),
    (4, 0, 0), (4, 2, 0), (4, 1, 1),
    (5, 0, 0), (5, 1, 1),
    (6, 0, 0), (6, 3, 1), (6, 3, 1), (6, 3, 1),
) * 6

# Equal counts below and above the middle size put the median latency
# inside one group of like problems.
SIMILAR_INT_SIZES = (8,) * 5 + (12,) * 5 + (16,) * 20 + (20,) * 4 + (24,) * 4 + (32,) * 2
SIMILAR_FLOAT_SIZES = (16,) * 5 + (24,) * 5 + (32,) * 20 + (48,) * 4 + (64,) * 4 + (96, 128)


def q(x: F):
    """JSON encoding of an exact rational: int, or a "p/q" string."""
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _diagonal(rng: random.Random, total: F, n: int) -> list:
    weights = [rng.randint(0, 9) for _ in range(n)]
    if sum(weights) == 0:
        return [total] + [F(0)] * (n - 1)
    return [total * F(w, sum(weights)) for w in weights]


def _nonneg_problem(lam1: F, reals: list, pairs: list, gammas: list,
                    argv: list) -> dict:
    """Package a realization problem: spectrum = lam1, reals, -x +- iy pairs."""
    spectrum = [q(lam1)] + [q(r) for r in reals]
    for x, y in pairs:
        if y == 0:
            spectrum += [q(-x), q(-x)]
        else:
            spectrum += [[q(-x), q(y)], [q(-x), q(-y)]]
    return {
        "kind": "realize-exact",
        "n": len(gammas),
        "argv": argv,
        "doc": {"spectrum": spectrum, "diagonal": [q(g) for g in gammas]},
        "perron": lam1,
        "reals": [lam1] + list(reals),
        "pairs": list(pairs),
        "gammas": gammas,
    }


def wedge_problem(rng: random.Random, n: int) -> dict:
    """Suleimanova-type spectrum (narrow wedge |Im| <= |Re|) of size n."""
    n_pair = rng.randint(0, (n - 1) // 2)
    n_real = n - 1 - 2 * n_pair
    reals = [-F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(n_real)]
    pairs = []
    for _ in range(n_pair):
        x = F(rng.randint(1, 8), rng.randint(1, 4))
        pairs.append((x, x * F(rng.randint(0, 10), 10)))
    extra = F(rng.randint(0, 16), rng.randint(1, 4))
    lam1 = -sum(reals, F(0)) + sum((2 * x + y for x, y in pairs), F(0)) + extra
    total = lam1 + sum(reals, F(0)) - sum((2 * x for x, _ in pairs), F(0))
    return _nonneg_problem(lam1, reals, pairs, _diagonal(rng, total, n),
                           ["realize", "--exact"])


def chain_problem(rng: random.Random, g_pair: int, f_real: int,
                  f_pair: int) -> dict:
    """Smigoc-type (wide-wedge pairs) or mixed spectrum, as in criterion 6."""
    reals = [-F(rng.randint(1, 6), 2) for _ in range(f_real)]
    pairs = []
    for _ in range(f_pair):
        x = F(rng.randint(1, 5), 2)
        pairs.append((x, x * F(rng.randint(0, 10), 10)))
    for _ in range(g_pair):
        x = F(rng.randint(1, 5), 2)
        pairs.append((x, x * F(rng.randint(11, 17), 10)))
    extra = F(rng.randint(0, 12), 2)
    lam1 = -sum(reals, F(0)) + sum((2 * x for x, _ in pairs), F(0)) + extra
    n = 1 + f_real + 2 * len(pairs)
    total = lam1 + sum(reals, F(0)) - sum((2 * x for x, _ in pairs), F(0))
    prob = _nonneg_problem(lam1, reals, pairs, _diagonal(rng, total, n),
                           ["realize", "--exact", "--order", "auto"])
    prob["wide_pairs"] = g_pair
    return prob


def similar_int_problem(rng: random.Random, n: int) -> dict:
    """Dense integer matrix, entries -9..9, integer target diagonal."""
    A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    gammas = [rng.randint(-9, 9) for _ in range(n - 1)]
    gammas.append(sum(A[i][i] for i in range(n)) - sum(gammas))
    return {
        "kind": "similar-float-out",
        "n": n,
        "argv": ["similar"],
        "doc": {"matrix": A, "diagonal": gammas},
        "A": A,
        "gammas": [float(g) for g in gammas],
    }


def similar_float_problem(rng: random.Random, n: int) -> dict:
    """Dense float matrix, entries uniform in [-9, 9], float target diagonal."""
    A = [[rng.uniform(-9.0, 9.0) for _ in range(n)] for _ in range(n)]
    gammas = [rng.uniform(-9.0, 9.0) for _ in range(n - 1)]
    gammas.append(sum(A[i][i] for i in range(n)) - sum(gammas))
    return {
        "kind": "similar-float-out",
        "n": n,
        "argv": ["similar"],
        "doc": {"matrix": A, "diagonal": gammas},
        "A": A,
        "gammas": gammas,
    }


def wedge_faults() -> list:
    stream = random.Random("wedge-exact:faults")
    wanted = set(WEDGE_FAULTS)
    found = {}
    for draw in range(max(d for d, _ in wanted) + 1):
        for n in range(21, 25):
            prob = wedge_problem(stream, n)
            if (draw, n) in wanted:
                found[draw, n] = prob
    return [found[key] for key in WEDGE_FAULTS]


def make_round(workload: str, seed: int) -> list:
    """The problems of one round of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "wedge-exact":
        fixed = random.Random(f"{workload}:fixed")
        return ([wedge_problem(rng, n) for n in WEDGE_SEEDED_SIZES]
                + [wedge_problem(fixed, n) for n in WEDGE_FIXED_SIZES]
                + wedge_faults())
    if workload == "chain-exact":
        return [chain_problem(rng, *shape) for shape in CHAIN_SHAPES]
    if workload == "similar-int":
        return [similar_int_problem(rng, n) for n in SIMILAR_INT_SIZES]
    if workload == "similar-float":
        return [similar_float_problem(rng, n) for n in SIMILAR_FLOAT_SIZES]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
