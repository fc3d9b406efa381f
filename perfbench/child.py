"""One benchmark child process: ``python3 perfbench/child.py JOB.json``.

The parent writes the job file and starts this script with ``PYTHONPATH``
pointing at the checkout's ``src``.  The child sets up (imports trishift and
loads the spec), stamps the monotonic clock, and then, by the job's mode:

* ``setup``: exits at once; the parent only wants the set-up time;
* ``work``: warms up, times units until the job's seconds are spent, and
  checks every output; with ``trace`` it first runs one unit under the
  tracer, so that the layers' peak-RSS marks start from the warmed-up child;
* ``selftest``: runs two traced units and compares every counter.

It prints one JSON line on standard output as its last line.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS


def _checked(wl, fn) -> tuple[float, list[str]]:
    """Run one unit, timing only the unit itself, then check its output."""
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception:
        return time.perf_counter() - t0, ["unit raised:\n" + traceback.format_exc()]
    wall = time.perf_counter() - t0
    try:
        return wall, wl.check(result)
    except Exception:
        return wall, ["check raised:\n" + traceback.format_exc()]


def _traced(wl) -> tuple[Tracer, float, list[str]]:
    tracer = Tracer()
    tracer.install()
    try:
        wall, errors = _checked(wl, lambda: tracer.run_root(wl.unit))
    finally:
        tracer.uninstall()
    return tracer, wall, errors


def _invariant_counts(tracer: Tracer) -> dict:
    """Every counter of a traced unit that must repeat exactly."""
    counts = {k: v for k, v in tracer.counts.items() if not k.endswith("_s")}
    counts.update({f"spans:{k}": v for k, v in tracer.span_counts().items()})
    return counts


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    work = Path(job["work"])
    wl = WORKLOADS[job["workload"]]()
    wl.setup(work)
    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    out: dict = {"t_ready": t_ready}
    if job["mode"] == "setup":
        print(json.dumps(out), flush=True)
        return 0

    wl.warmup()
    units = []
    if job["mode"] == "work":
        if job["trace"]:
            # first, so that each layer's ru_maxrss high-water mark is its own
            tracer, wall, errors = _traced(wl)
            traced = {"wall": wall, "errors": errors, "traced": True}
            Path(job["spans_path"]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
        # a traced run needs the untraced median only for the tracing
        # overhead, so it spends half the time on it
        seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
        t_start = time.perf_counter()
        while True:
            wall, errors = _checked(wl, wl.unit)
            units.append({"wall": wall, "errors": errors})
            if errors:
                break
            typical = statistics.median(u["wall"] for u in units)
            if time.perf_counter() - t_start + typical > seconds:
                break
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if job["trace"]:
            median = statistics.median(u["wall"] for u in units)
            out["layers"] = {k: list(v) for k, v in tracer.layer_metrics(median).items()}
            units.append(traced)
    else:  # selftest
        counts = []
        for _ in range(2):
            tracer, wall, errors = _traced(wl)
            units.append({"wall": wall, "errors": errors, "traced": True})
            counts.append(_invariant_counts(tracer))
        keys = sorted(set(counts[0]) | set(counts[1]))
        out["counters"] = {k: [counts[0].get(k), counts[1].get(k)] for k in keys}
        out["counters_repeat"] = counts[0] == counts[1]
    out["units"] = units
    out["format_defects"] = wl.format_defects
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
