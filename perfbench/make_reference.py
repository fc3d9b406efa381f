"""Write the stored reference that the profile-2048 correctness check uses.

    python3 perfbench/make_reference.py

Runs ``trishift profile`` on the baseline family at N = 2048 and stores the
remainder column norms (``column_decay``).  Regenerate it only when a change
is meant to alter those numbers, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
RTOL = 1e-8  # relative agreement required of every column


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from trishift.cli import main as cli_main
    from workloads import BASELINE_FAMILY, REFERENCE_DIR, ProfileWorkload

    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(BASELINE_FAMILY), encoding="utf-8")
        code = cli_main(["profile", "--spec", str(spec), "--order", str(ProfileWorkload.order),
                         "--tol", "1e-2", "--out", tmp])
        if code != 0:
            print(f"make_reference.py: profile exited with {code}", file=sys.stderr)
            return 1
        report = json.loads((Path(tmp) / "profile_report.json").read_text(encoding="utf-8"))
    doc = {
        "family": BASELINE_FAMILY,
        "order": ProfileWorkload.order,
        "rtol": RTOL,
        "column_decay": report["decomposition"]["column_decay"],
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{ProfileWorkload.name}.json"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
