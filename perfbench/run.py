"""trishift benchmark: the command that runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from a checkout that holds ``src/trishift``.  One run makes its inputs
from the seed, starts fresh child processes with ``PYTHONPATH`` set to the
checkout's ``src`` and BLAS threads set to ``nproc``, and collects:

* ``--trace 0``: the end-to-end metrics.  Six set-up-only children, half
  before and half after the working child, and the working child give seven
  set-up times (child spawn until trishift is imported and the spec loaded);
  ``setup_s`` is their median.  The working child times units for the given
  seconds and reports its peak RSS.  ``wall_s`` is the median unit wall
  time; the highest percentile with ten samples beyond it and the sample
  count are printed and recorded;
* ``--trace 1``: the per-layer metrics.  The working child first runs one
  unit under the tracer (see ``tracer.py``), then times units for half the
  given seconds; the tracing overhead is the traced unit's wall time minus
  their median.

Every unit's output is checked.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record, with samples and the environment, is written under
``.bench_out/`` in the checkout.  The exit code is 0 when every output was
correct, 1 when a check failed, and 2 when the checkout has no sources.

``--workload all`` runs every workload untraced and prints ``wall_s``,
``peak_rss_mb``, ``setup_s`` and ``error_share`` for each; it exits 1 if any
correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

SETUP_CHILDREN = 6  # set-up-only children per untraced run
HARD_LIMIT_S = 170.0  # a run ends well inside 180 s whatever a child does
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class ChildError(RuntimeError):
    pass


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(argv: list[str], work: Path, env: dict, deadline: float | None,
              tag: str) -> tuple[dict, float]:
    """Run one child to completion; return its last stdout line, parsed as
    JSON, and the monotonic time at which it was spawned."""
    err_path = work / f"child-{tag}.stderr"
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    with open(err_path, "w", encoding="utf-8") as err:
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env,
                                cwd=ROOT, text=True)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise ChildError(f"child {tag} exited with {proc.returncode}:\n{tail}")
    return json.loads(lines[-1]), t_spawn


def _spawn(job: dict, work: Path, env: dict, deadline: float, tag: str) -> tuple[dict, float]:
    """Run one benchmark child on ``job``."""
    job_path = work / f"job-{tag}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    return run_child([sys.executable, str(HERE / "child.py"), str(job_path)],
                     work, env, deadline, tag)


def wall_tail(walls: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    ordered = sorted(walls)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return {"percentile": p, "value": ordered[math.ceil(p / 100.0 * n) - 1], "samples": n}
    return {"percentile": None, "value": None, "samples": n}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record."""
    from envinfo import environment, nproc
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    work = OUT / f"{stem}.work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    threads = nproc()
    env = _child_env(threads)
    deadline = time.monotonic() + HARD_LIMIT_S
    record: dict = {
        "workload": name, "why": wl.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": environment(seed, threads),
    }
    errors: list[str] = []
    setups: list[float] = []
    units: list[dict] = []
    res: dict = {}
    try:
        wl.prepare(work, seed)
        job = {"workload": name, "work": str(work), "seconds": seconds,
               "trace": bool(trace),
               "spans_path": str(OUT / f"{stem}.spans.json")}
        # set-up-only children before and after the working child, so that
        # the set-up samples do not all fall into one slow spell of the machine
        setup_tags = [f"setup{k}" for k in range(0 if trace else SETUP_CHILDREN)]
        half = len(setup_tags) // 2
        for tag in setup_tags[:half]:
            got, t0 = _spawn(dict(job, mode="setup"), work, env, deadline, tag)
            setups.append(got["t_ready"] - t0)
        res, t0 = _spawn(dict(job, mode="work"), work, env, deadline, "work")
        setups.append(res["t_ready"] - t0)
        units = res["units"]
        for tag in setup_tags[half:]:
            got, t0 = _spawn(dict(job, mode="setup"), work, env, deadline, tag)
            setups.append(got["t_ready"] - t0)
    except (ChildError, subprocess.TimeoutExpired, OSError, AssertionError) as err:
        errors.append(f"{type(err).__name__}: {err}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [u["wall"] for u in units if not u.get("traced")]
    attempted = max(1, len(units))
    failed = sum(1 for u in units if u["errors"]) if units else attempted
    errors.extend(e for u in units for e in u["errors"])
    metrics: dict = {}
    if not errors and trace:
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in res["layers"].items()}
    elif not errors:
        metrics = {
            "wall_s": {"value": statistics.median(timed), "unit": "s"},
            "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    record.update({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_share": failed / attempted,
        "metrics": metrics,
        "wall_samples": timed,
        "wall_s": statistics.median(timed) if timed else None,
        "wall_tail": wall_tail(timed),
        "setup_samples": setups,
        "errors": errors,
        "format_defects": res.get("format_defects", []),
    })
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def _print_record(rec: dict) -> None:
    for k, m in rec["metrics"].items():
        print(f"{rec['workload']} {k} {m['value']!r} {m['unit']}")
    tail = rec["wall_tail"]
    if rec["trace"] and rec["wall_s"] is not None:
        print(f"{rec['workload']} untraced wall_s {rec['wall_s']!r} s")
    if tail["percentile"] is not None:
        print(f"{rec['workload']} wall_p{tail['percentile']:g} {tail['value']!r} s")
    print(f"{rec['workload']} wall_samples {len(rec['wall_samples'])} count")
    print(f"{rec['workload']} error_share {rec['error_share']!r} ratio")
    for defect in rec["format_defects"]:
        print(f"{rec['workload']} format defect (not gated): {defect}", file=sys.stderr)
    for err in rec["errors"]:
        print(f"{rec['workload']} check failed: {err}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trishift" / "__init__.py").is_file():
        print(f"run.py: no trishift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        records = [run_workload(name, args.seed, args.seconds, False) for name in WORKLOADS]
        for rec in records:
            _print_record(rec)
        print(json.dumps({r["workload"]: {"correct": r["correct"], "metrics": r["metrics"]}
                          for r in records}))
        return 0 if all(r["correct"] for r in records) else 1
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_record(rec)
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
