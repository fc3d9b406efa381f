"""Self-test of the traced run's counters.

    python3 perfbench/selftest.py [--workload NAME] [--seed N]

For each workload (all by default), one fresh child runs two traced units.
Every counter must repeat exactly: span counts per name, factorizations and
their flop estimates, sections, dense bytes, certified columns, kernel pairs
and terms, expression evaluations and bytes written.  Times and RSS are not
compared.  Exits 1 if a counter differs or an output check fails.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time

from envinfo import nproc
from run import HARD_LIMIT_S, OUT, ROOT, ChildError, _child_env, _spawn
from workloads import WORKLOADS


def selftest(name: str, seed: int) -> bool:
    work = OUT / f"{name}-seed{seed}-selftest.work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        WORKLOADS[name]().prepare(work, seed)
        job = {"workload": name, "work": str(work), "mode": "selftest", "trace": True}
        res, _ = _spawn(job, work, _child_env(nproc()), time.monotonic() + HARD_LIMIT_S, "selftest")
    except ChildError as err:
        print(f"{name}: {err}", file=sys.stderr)
        return False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = res["counters_repeat"]
    for key, (first, second) in res["counters"].items():
        mark = "" if first == second else "  DIFFERS"
        print(f"{name} {key} {first!r} {second!r}{mark}")
    for unit in res["units"]:
        for err in unit["errors"]:
            print(f"{name} check failed: {err}", file=sys.stderr)
            ok = False
    print(f"{name} counters {'repeat' if res['counters_repeat'] else 'DIFFER'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = [selftest(name, args.seed) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
