"""hamdec benchmark: one workload per run, from the root of a checkout.

    python3 bench/run.py --workload rotational --seed 0 --seconds 20 --trace 0

Workloads are listed and explained in workloads.py.  A run builds its
inputs and reference values several times (set-up), then runs passes over
all items of the workload, single-threaded, until about --seconds have
gone.  Only the calls into hamdec are timed; every output is checked
against references that do not come from hamdec.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones (no wrapper installed):

    wall_s       median over passes of the summed item times of one pass
    item_s.p50   median time of one item over all passes; within a pass an
                 item is called again until its calls take SHORT_ITEM_S
                 and its time is their median
    k_over_reg   sum k / sum reg over the certificates a pass produces or
                 accepts (on counting: the decompositions the sandwich
                 constructs)
    pass_rate    items that passed their check / items attempted
    setup_s      hamdec import plus the median set-up time
    peak_rss_mb  peak resident memory of this process

The three times are in reference seconds: measured seconds corrected for
the speed of the shared host while they were measured (speed.py).  The
line before the last also gives the median pass in measured seconds.

With --trace 1 half the time runs untraced and half with every public
function wrapped (spans.py); the metrics are the per-layer ones plus
trace.overhead_s, the traced minus the untraced median pass time in
reference seconds.  Span times are measured seconds, less the time of the
speed probes taken inside a span.  The spans are written to .bench_out/.
The line before the last records the environment (Python, cpus, git sha,
src/ line count) and every item.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SHORT_ITEM_S = 1.0
MAX_CALLS = 100


def timed(fn, sampler):
    """(result, section) of one call of fn; see section()."""
    t0, spent = time.perf_counter(), sampler.spent
    result = fn()
    return result, section(t0, spent, sampler)


def section(t0: float, spent: float, sampler=None) -> tuple[float, float, float]:
    """(start, end, seconds) of a section that began at t0, when the
    sampler had spent ``spent`` seconds; its probes are not counted."""
    t1 = time.perf_counter()
    return t0, t1, t1 - t0 - (sampler.spent - spent if sampler else 0.0)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


class Measurement:
    """Timings and outcomes of the passes over one workload's items."""

    def __init__(self) -> None:
        self.passes: list[list[tuple[str, list[tuple]]]] = []   # (item, sections)
        self.failures: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.k = 0
        self.reg = 0
        self.stages: list[dict] = []

    def run(self, items, seconds: float, check_failed, tracer=None, sampler=None,
            repeat_short: bool = False) -> None:
        """Passes over the items until about ``seconds`` have gone.  With
        repeat_short, an item is called again within a pass, up to
        MAX_CALLS calls, until its calls have taken SHORT_ITEM_S."""
        start = time.perf_counter()
        while True:
            gc.collect()
            self.passes.append([])
            for item in items:
                if tracer is not None:
                    tracer.item = item.name
                calls = []
                while True:
                    calls.append(self.call(item, check_failed, sampler, first=not calls))
                    if (not repeat_short or len(calls) == MAX_CALLS
                            or sum(sec[2] for sec in calls) >= SHORT_ITEM_S):
                        break
                self.passes[-1].append((item.name, calls))
            elapsed = time.perf_counter() - start
            # stop where the next pass would end further from the target
            if elapsed + 0.5 * elapsed / len(self.passes) >= seconds:
                break
        if tracer is not None:
            tracer.item = None

    def call(self, item, check_failed, sampler, first: bool) -> tuple[float, float, float]:
        """Section of one checked call of an item; k, reg and the stage
        records are taken from an item's first call in a pass."""
        self.attempted += 1
        t0, spent = time.perf_counter(), sampler.spent if sampler else 0.0
        try:
            out = item.call()
        except Exception as exc:  # the item fails; the run goes on
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        else:
            error = None
        sec = section(t0, spent, sampler)
        if error is None:
            try:
                outcome = item.check(out)
            except check_failed as exc:
                error = str(exc)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            else:
                if first:
                    self.k += outcome.k
                    self.reg += outcome.reg
                    self.stages.extend(outcome.stages)
        if error is not None:
            self.failures[item.name] = error
            self.failed += 1
        return sec

    def times(self, seconds=lambda section: section[2]):
        """(time of each pass, times of each item), each section's time
        given by ``seconds``; an item called more than once in a pass
        takes the median of its calls."""
        walls, items = [], {}
        for calls in self.passes:
            walls.append(0.0)
            for name, sections in calls:
                dt = statistics.median(seconds(sec) for sec in sections)
                walls[-1] += dt
                items.setdefault(name, []).append(dt)
        return walls, items


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("rotational", "random", "verify", "counting"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hamdec" / "__init__.py").is_file():
        print(f"bench: no hamdec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # the checkers' numpy starts no thread pool
    import checks  # noqa: F401  (numpy and scipy load outside the import timing)
    import speed

    with speed.Sampler() as sampler:
        hamdec, import_section = timed(lambda: importlib.import_module("hamdec"), sampler)
        if Path(hamdec.__file__).resolve().parent != (SRC / "hamdec").resolve():
            print(f"bench: imported hamdec from {hamdec.__file__}, not {SRC}", file=sys.stderr)
            return 2
        import spans
        import workloads

        # spans are timed without the probes taken inside them
        tracer = spans.Tracer(sampler.clock) if args.trace else None
        setup_sections = []
        for _ in range(1 if tracer else SETUP_REPEATS):
            gc.collect()
            if tracer:
                tracer.install()
            items, sec = timed(lambda: workloads.build(args.workload, args.seed), sampler)
            setup_sections.append(sec)
            if tracer:
                tracer.uninstall()

        plain = Measurement()
        # short items are called repeatedly only untraced, so that the
        # traced counts repeat exactly
        plain.run(items, args.seconds / 2 if tracer else args.seconds,
                  workloads.CheckFailed, sampler=sampler, repeat_short=not tracer)
        runs = [plain]
        if tracer:
            traced = Measurement()
            tracer.install()
            try:
                traced.run(items, args.seconds / 2, workloads.CheckFailed, tracer, sampler)
            finally:
                tracer.uninstall()
            runs.append(traced)

    seconds = sampler.reference_seconds
    raw_walls, _ = plain.times()
    walls, item_times = plain.times(seconds)
    if tracer:
        traced_walls, _ = traced.times(seconds)
        metrics = spans.layer_metrics(tracer.spans, len(traced.passes), traced.stages)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(tracer.to_json(), fh)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "item_s.p50": statistics.median(t for ts in item_times.values() for t in ts),
            "k_over_reg": plain.k / plain.reg if plain.reg else 0.0,
            "pass_rate": 1.0 - plain.failed / plain.attempted,
            "setup_s": seconds(import_section)
            + statistics.median(seconds(sec) for sec in setup_sections),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if tracer else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"bench: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "passes": [len(m.passes) for m in runs],
        "raw_wall_s": statistics.median(raw_walls),
        "probes": {"count": len(sampler.lengths), "median_s": statistics.median(sampler.lengths)},
        "items": {name: statistics.median(ts) for name, ts in item_times.items()},
        "failures": {k: v for m in runs for k, v in m.failures.items()},
    }))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
