"""Benchmark for the active_ht package: end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--workload`` is ``sweep``, ``bounds-corpus``, ``oracle-check`` or ``all``
(the three in one process).  The package is imported from ``src/`` next to
this directory, never from an installed copy.

With ``--trace 0`` the timed rounds run untraced and the report gives the
end-to-end metrics.  With ``--trace 1`` half of ``--seconds`` runs untraced
rounds and half traced passes (set-up plus one round, with every layer call
wrapped by ``tracing.Tracer``); the report gives the per-layer metrics and
the spans of the last traced pass go to ``perfbench/out/``.

Output: one ``metric <name> <value> <unit> n=<samples>`` line per metric, a
``digest`` line per workload, problems of failed ops on stderr, and as the
last line a JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# Times `import active_ht` in a fresh interpreter; argv[1] is the src directory.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import active_ht; print(time.perf_counter() - t0)"
)

# The metrics every workload reports with --trace 0, by name and unit.  The
# workload-specific ones (trials_per_s, bounds_p50_ms, ...) and fail_frac are
# printed as report lines too; see README.md for why they are not here.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _repeat(one, budget_s: float) -> list:
    """Run one() at least once, and again while another run still fits the budget."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(one())
        now = time.perf_counter()
        if now - start + (now - t0) > budget_s:
            return out


def _peak_rss_mb() -> float:
    # Own peak only (ru_maxrss, KiB on Linux).  The children's figure is the
    # largest child's peak, which the import probes, not the pool workers
    # (forks of this process), would set.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    def __init__(self, seed: int, seconds: float, size: str, workers: int):
        from perfbench import tracing, workloads

        self.tracing, self.workloads = tracing, workloads
        self.seed, self.seconds, self.size = seed, seconds, size
        self.workers = workers

    def _setup(self, wl):
        """Set up SETUP_REPEATS times: a fresh interpreter's import plus wl.setup()."""
        times = []
        for _ in range(SETUP_REPEATS):
            import_s = float(subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                check=True, capture_output=True, text=True, timeout=120,
            ).stdout)
            t0 = time.perf_counter()
            state = wl.setup()
            times.append(import_s + time.perf_counter() - t0)
        return state, statistics.median(times), len(times)

    def _round(self, wl, state, workers):
        rnd = self.workloads.Round()
        t0 = time.perf_counter()
        wl.run_round(state, rnd, workers)
        rnd.wall = time.perf_counter() - t0
        return rnd

    def _traced_pass(self, wl, workers):
        tracer = self.tracing.Tracer()
        with tracer.installed():
            with tracer.op_span("setup"):
                state = wl.setup()
            rnd = self.workloads.Round(tracer=tracer)
            t0 = time.perf_counter()
            wl.run_round(state, rnd, workers)
            t1 = time.perf_counter()
        rnd.wall, rnd.window = t1 - t0, (t0, t1)
        return rnd

    def run(self, name: str, trace: bool):
        wl = self.workloads.WORKLOADS[name](self.seed, self.size)
        workers = self.workers if wl.uses_workers else 1
        state, setup_s, n_setup = self._setup(wl)
        budget = self.seconds / 2 if trace else self.seconds
        rounds = _repeat(lambda: self._round(wl, state, workers), budget)
        traced = _repeat(lambda: self._traced_pass(wl, workers), budget) if trace else []
        single = [self._traced_pass(wl, 1)] if trace and wl.uses_workers else []
        every = rounds + traced + single

        print(f"# perfbench {name} seed={self.seed} trace={int(trace)} size={self.size} "
              f"workers={workers} rounds={len(rounds)} traced={len(traced) + len(single)}")
        attempted = sum(len(r.ops) for r in every) + 1  # + the digest check
        failed = 0
        for r in every:
            for op in r.ops:
                for problem in op.problems:
                    print(f"FAIL {name} {op.name}: {problem}", file=sys.stderr)
                failed += bool(op.problems)
        digests = sorted({r.digest for r in every})
        if len(digests) != 1:
            print(f"FAIL {name} digest: rounds disagree {digests}", file=sys.stderr)
            failed += 1
        print(f"digest {name} {digests[0]} rounds={len(every)}")

        if trace:
            metrics = self._layer_metrics(rounds, traced, single)
            n = len(traced)
            self._write_spans(name, traced[-1])
        else:
            metrics = {
                "setup_s": (setup_s, "s", n_setup),
                "wall_s": (statistics.median(r.wall for r in rounds), "s", len(rounds)),
                "peak_rss_mb": (_peak_rss_mb(), "MB", 1),
                "fail_frac": (failed / attempted, "ratio", attempted),
                **wl.summarize(rounds),
            }
            n = None
        for key, (value, unit, count) in metrics.items():
            print(f"metric {key} {value!r} {unit} n={count if n is None else n}")
        wanted = self.tracing.PER_LAYER if trace else END_TO_END
        result = {key: {"value": metrics[key][0], "unit": unit} for key, unit in wanted.items()}
        return failed == 0, attempted, failed, result

    def _layer_metrics(self, rounds, traced, single):
        per_pass = [self.tracing.layer_metrics(r.tracer) for r in traced]
        merged = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        traced_wall = statistics.median(r.wall for r in traced)
        merged["simulator.scaling_eff"] = single[0].wall / (2.0 * traced_wall) if single else 0.0
        merged["trace.overhead_frac"] = traced_wall / statistics.median(r.wall for r in rounds) - 1.0
        merged["trace.uncovered_frac"] = statistics.median(
            self.tracing.uncovered_share(r.tracer.spans, *r.window) for r in traced
        )
        return {key: (merged[key], unit, None) for key, unit in self.tracing.PER_LAYER.items()}

    def _write_spans(self, name: str, rnd) -> None:
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        spans = [vars(s) for s in rnd.tracer.spans]
        path = out / f"spans-{name}-seed{self.seed}.json"
        path.write_text(json.dumps({"spans": spans, "counts": dict(rnd.tracer.counts)}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "bounds-corpus", "oracle-check", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import active_ht

    if not Path(active_ht.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"active_ht imported from {active_ht.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.seed, args.seconds, args.size, min(2, os.cpu_count() or 1))

    names = ["sweep", "bounds-corpus", "oracle-check"] if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n_att, n_fail, m = runner.run(name, bool(args.trace))
        correct &= ok
        attempted += n_att
        failed += n_fail
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}.{key}": v for key, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
