"""One-shot order sweep behind the ROADMAP Baseline table; not gated.

    python3 perfbench/sweep.py

For each order N in ``ORDERS`` and each of ``decompose`` and ``profile`` on
the baseline family (default pad, 64 at these orders), a fresh child runs the
command once and reports its wall time (around ``trishift.cli.main``) and
peak RSS.  Before each order after the first, the peak RSS is estimated as N²
from the largest order measured for that command; an order whose estimate
exceeds the machine's available memory is recorded as "not run: exceeds
memory" rather than attempted (N = 8192 on an 8 GB machine).  The record,
with the environment, goes to ``.bench_out/sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from envinfo import environment, meminfo_mb, nproc
from run import OUT, ROOT, _child_env, run_child
from workloads import BASELINE_FAMILY

COMMANDS = ("decompose", "profile")
ORDERS = (512, 1024, 2048, 4096, 8192)


def _one(command: str, order: int, work: Path) -> int:
    """Child side: run one command once and print wall time and peak RSS."""
    from trishift.cli import main as cli_main

    spec = work / "spec.json"
    t0 = time.perf_counter()
    code = cli_main([command, "--spec", str(spec), "--order", str(order),
                     "--tol", "1e-2", "--out", str(work / f"{command}-{order}")])
    wall = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"wall_s": wall, "peak_rss_mb": rss, "exit_code": code}))
    return 0


def _estimate_mb(rows: list[dict], command: str, order: int) -> float | None:
    """Peak RSS at ``order``, scaled as N² from the largest order measured."""
    measured = [r for r in rows if r["command"] == command and "peak_rss_mb" in r]
    if not measured:
        return None
    top = max(measured, key=lambda r: r["N"])
    return top["peak_rss_mb"] * (order / top["N"]) ** 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--one", nargs=3, metavar=("COMMAND", "ORDER", "WORK"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        return _one(args.one[0], int(args.one[1]), Path(args.one[2]))

    threads = nproc()
    env = _child_env(threads)
    work = OUT / "sweep.work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "spec.json").write_text(json.dumps(BASELINE_FAMILY), encoding="utf-8")
    rows = []
    try:
        for order in ORDERS:
            for command in COMMANDS:
                estimate = _estimate_mb(rows, command, order)
                available = meminfo_mb("MemAvailable")
                if estimate is not None and (available is None or estimate > available):
                    status = ("not run: exceeds memory" if available is not None
                              else "not run: available memory unknown")
                    rows.append({"N": order, "command": command, "status": status,
                                 "estimated_peak_rss_mb": estimate,
                                 "mem_available_mb": available})
                    print(f"N={order} {command} {status} (estimated peak RSS "
                          f"{estimate:.0f} MB)", flush=True)
                    continue
                res, _ = run_child(
                    [sys.executable, str(Path(__file__).resolve()), "--one", command,
                     str(order), str(work)], work, env, None, f"{command}-{order}")
                rows.append({"N": order, "command": command, **res})
                print(f"N={order} {command} wall_s {res['wall_s']:.3f} "
                      f"peak_rss_mb {res['peak_rss_mb']:.1f} exit {res['exit_code']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = OUT / "sweep.json"
    out.write_text(json.dumps({"environment": environment(None, threads),
                               "family": BASELINE_FAMILY, "rows": rows}, indent=1),
                   encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
