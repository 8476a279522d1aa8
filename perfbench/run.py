"""End-to-end and per-layer benchmark of the diagforge CLI.

    python3 perfbench/run.py --workload wedge-exact --seed 1 --seconds 30 --trace 0

One process, one thread, a closed loop with one caller: the process
imports ``diagforge.cli`` from the checkout's ``src`` once, writes the
workload's problem files (made from ``--seed``), then calls
``diagforge.cli.main([... "--input", f, "--output", g])`` on them in
whole rounds for at most ``--seconds`` of wall time (or one round, if
longer).  Every output is judged by ``oracle`` (which never imports
diagforge); a non-zero exit, an exception out of ``cli.main`` or a wrong
output counts the problem as failed.

Times are the process's CPU time (``time.process_time``).  The program
is single-threaded and never waits, so on an idle machine CPU time is
its wall time; on a shared virtual machine it leaves out the time the
host takes the CPU away, which otherwise dominates the run-to-run spread.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``spans`` with ``--trace 1``.
Details (failures, per-size latencies, recorded spans) go to
``perfbench/results/``.  See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# one thread for numpy's BLAS, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# every run compiles the package from source, so set-up time does not
# depend on bytecode an earlier run left behind
sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_cli():
    """Import diagforge.cli from the checkout's src, and nowhere else."""
    if not (SRC / "diagforge" / "cli.py").is_file():
        sys.exit(f"run.py: no diagforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import diagforge.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "diagforge":
        sys.exit(f"run.py: diagforge.cli imported from {cli.__file__}, not {SRC}")
    return cli


class Loop:
    """Runs problems through cli.main and keeps the loop's tallies."""

    def __init__(self, cli, oracle, out_path: Path, check_rng):
        self.cli = cli
        self.oracle = oracle
        self.check_rng = check_rng
        self.out_path = out_path
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.samples = []  # (n, CPU seconds in cli.main)
        self.wall_s = 0.0
        self.failures = []

    def call(self, prob: dict, in_path: Path):
        """One timed cli.main call: (exit code or None, error, CPU seconds)."""
        self.out_path.unlink(missing_ok=True)
        argv = prob["argv"] + ["--input", str(in_path), "--output", str(self.out_path)]
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            rc, err = self.cli.main(argv), None
        except Exception as exc:  # an escaping exception is a failed problem
            rc, err = None, f"{type(exc).__name__}: {exc}"
        cpu = time.process_time() - cpu
        self.wall_s += time.perf_counter() - wall
        return rc, err, cpu

    def run(self, index: int, prob: dict, in_path: Path) -> None:
        rc, err, dt = self.call(prob, in_path)
        self.attempted += 1
        self.samples.append((prob["n"], dt))
        if rc == 0:
            try:
                out = json.loads(self.out_path.read_text())
                bad = self.oracle.check(prob, out, self.check_rng)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                bad = [f"unreadable ({type(exc).__name__}: {exc})"]
            if not bad:
                return
            self.wrong += 1
            err = "wrong output: " + ", ".join(bad)
        elif err is None:
            doc = json.loads(self.out_path.read_text()) if self.out_path.exists() else {}
            err = f"exit {rc}: {doc.get('status')}: {doc.get('error') or doc.get('reason')}"
        self.failed += 1
        self.failures.append({"index": index, "n": prob["n"], "error": err[:300]})

    def round(self, problems: list, paths: list) -> float:
        """Runs every problem once; returns the round's CPU seconds in cli.main."""
        for k, (prob, path) in enumerate(zip(problems, paths)):
            self.run(k, prob, path)
        return sum(dt for _, dt in self.samples[-len(problems):])


def end_to_end(loop: Loop, setup_s: float) -> dict:
    times = [dt for _, dt in loop.samples]
    top = max(n for n, _ in loop.samples)
    return {
        "setup_s": (setup_s, "s"),
        "problems_per_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(times), "ms"),
        "largest_n_latency_ms": (
            1e3 * statistics.median(dt for n, dt in loop.samples if n == top), "ms"
        ),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
        ),
    }


def per_layer(tracer, problems: int, wide_pairs: int, overhead_s: float) -> dict:
    s, c = tracer.self_s, tracer.calls
    blocks = c["nonneg.construct_3x3"]
    return {
        "cli.parse_s": (s["cli.parse"] / problems, "s"),
        "cli.emit_s": (s["cli.emit"] / problems, "s"),
        "nonneg.realize_self_s": (s["nonneg.realize"] / problems, "s"),
        "nonneg.construct_3x3_calls": (blocks / problems, "count"),
        "nonneg.blocks_per_pair": (blocks / wide_pairs if wide_pairs else 0.0, "ratio"),
        "nonneg.glue_s": (s["nonneg.glue"] / problems, "s"),
        "similarity.similar_self_s": (s["similarity.similar"] / problems, "s"),
        "similarity.eigvec_s": (s["similarity.eigvec"] / problems, "s"),
        "eigen.char_poly_s": (s["eigen.char_poly"] / problems, "s"),
        "eigen.char_poly_calls": (c["eigen.char_poly"] / problems, "count"),
        "eigen.exact_roots_s": (s["eigen.exact_roots"] / problems, "s"),
        "eigen.qr_s": (s["eigen.qr"] / problems, "s"),
        "eigen.match_s": (s["eigen.match"] / problems, "s"),
        "eigen.eigenvalues_calls": (
            (c["eigen.exact_roots"] + c["eigen.qr"]) / problems, "count"
        ),
        "eigen.nonfinite_spectra": (tracer.nonfinite_spectra / problems, "count"),
        "certify.calls": (c["certify"] / problems, "count"),
        "certify.self_s": (s["certify"] / problems, "s"),
        "matrix.dense_init_s": (s["matrix.dense_init"] / problems, "s"),
        "matrix.dense_init_calls": (c["matrix.dense_init"] / problems, "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    # CPU time since the process started: interpreter, numpy and diagforge;
    # the benchmark's own modules load after this reading
    cpu_import = time.process_time()

    import random

    import gen
    import oracle
    import spans

    if args.workload not in gen.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; one of {gen.WORKLOADS}")
    problems = gen.make_round(args.workload, args.seed)
    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    results = BENCH / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results.mkdir(exist_ok=True)
    try:
        paths = []
        for k, prob in enumerate(problems):
            path = workdir / f"p{k:03d}.json"
            path.write_text(json.dumps(prob["doc"]))
            paths.append(path)
        loop = Loop(cli, oracle, workdir / "out.json", random.Random(f"check:{args.seed}"))

        # warm-up: the round's first problem, outside the tallies
        setup_s = cpu_import + loop.call(problems[0], paths[0])[2]

        tracer = spans.Tracer() if args.trace else None
        rounds, traced_rounds = [], []
        start = time.perf_counter()
        # whole rounds only: the next one starts if, at the pace so far,
        # it ends within --seconds (the first round always runs)
        while True:
            t = time.perf_counter()
            rounds.append(loop.round(problems, paths))
            if tracer is not None:
                # traced rounds alternate with untraced ones, whose times
                # give the tracing overhead
                tracer.install()
                try:
                    traced_rounds.append(loop.round(problems, paths))
                finally:
                    tracer.uninstall()
            now = time.perf_counter()
            if now + (now - t) - start > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        traced = len(traced_rounds) * len(problems)
        wide = len(traced_rounds) * sum(p.get("wide_pairs", 0) for p in problems)
        overhead = (statistics.mean(traced_rounds) - statistics.mean(rounds)) / len(problems)
        metrics = per_layer(tracer, traced, wide, overhead)
    else:
        metrics = end_to_end(loop, setup_s)

    by_size = {}
    for n, dt in loop.samples:
        by_size.setdefault(n, []).append(dt)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "round_size": len(problems),
        "round_cpu_s": rounds,
        "traced_round_cpu_s": traced_rounds,
        "wall_s_in_cli": loop.wall_s,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "wrong_outputs": loop.wrong,
        "failures": loop.failures,
        "median_ms_by_n": {
            n: 1e3 * statistics.median(v) for n, v in sorted(by_size.items())
        },
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start", "end"], "spans": tracer.spans}
        ))
    for f in loop.failures[: len(problems)]:
        print(f"failed: problem {f['index']} n={f['n']}: {f['error']}", file=sys.stderr)

    print(json.dumps({
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
