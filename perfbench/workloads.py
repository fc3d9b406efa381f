"""The benchmark's workloads.

Each workload has two sides.  The parent process calls ``prepare`` once per
run to write the inputs, made from the seed, into the run's work directory.
A fresh child process then calls ``setup`` (import trishift and load the
spec; this is what ``setup_s`` measures), ``warmup`` (untimed), and ``unit``
repeatedly, checking every result with ``check``, which returns a list of
error strings (empty when the output is correct).

trishift is imported only inside ``setup``, so that the parent never pays for
it and the child's import is part of its measured set-up.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# The ROADMAP Baseline family.
BASELINE_FAMILY = {"label": "baseline", "a": "sqrt(n+1)", "b": "0.5"}


def _write_json(path: Path, doc: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _float_cell(text: str) -> float:
    """Parse a CSV number cell; empty cells are non-finite values.

    trishift writes some cells as ``np.float64(x)``; the value is taken from
    inside, and ``format_defects`` reports that the cell was malformed.
    """
    if text == "":
        return math.inf
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


class Workload:
    name = ""
    why = ""

    def prepare(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def unit(self):
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError

    # defects in output format that the numeric checks do not gate on
    format_defects: list[str]


class _CliWorkload(Workload):
    """A workload whose unit is one ``trishift.cli.main`` call on one spec."""

    def prepare(self, work: Path, seed: int) -> None:
        _write_json(work / "spec.json", BASELINE_FAMILY)

    def setup(self, work: Path) -> None:
        import trishift.cli
        from trishift import sequences

        self.work = work
        self.cli = trishift.cli
        self.sequences = sequences
        self.format_defects = []
        self.load_specs()

    def load_specs(self) -> None:
        self.spec_path = self.work / "spec.json"
        self.spec = self.sequences.load_spec_file(self.spec_path)

    def _main(self, args: list[str]) -> int:
        # looked up on the module at call time so the tracer's wrapper applies
        return self.cli.main([str(a) for a in args])


class ProfileWorkload(_CliWorkload):
    name = "profile-2048"
    why = ("profile at N=2048, pad 64: dense eigh/SVD and Gram products do most "
           "of the work; the ROADMAP Baseline row")
    order = 2048

    def _args(self, order: int, out: Path) -> list:
        return ["profile", "--spec", self.spec_path, "--order", order,
                "--tol", "1e-2", "--out", out]

    def setup(self, work: Path) -> None:
        super().setup(work)
        self.out = work / "profile"
        ref = json.loads((REFERENCE_DIR / f"{self.name}.json").read_text(encoding="utf-8"))
        self.reference = np.array(ref["column_decay"], dtype=float)
        self.rtol = float(ref["rtol"])

    def warmup(self) -> None:
        self._main(self._args(64, self.work / "warmup"))

    def unit(self) -> int:
        return self._main(self._args(self.order, self.out))

    def check(self, code: int) -> list[str]:
        errors = []
        if code != 0:
            errors.append(f"exit code {code}, expected 0")
        report = json.loads((self.out / "profile_report.json").read_text(encoding="utf-8"))
        verdict = report["criterion"]["verdict"]
        if verdict != "holds":
            errors.append(f"verdict {verdict!r}, expected 'holds'")
        if report["index"] != -1:
            errors.append(f"index {report['index']}, expected -1")
        defect = report["decomposition"]["isometry_defect"]
        if defect is None or not defect <= 1e-12:
            errors.append(f"isometry_defect {defect}, expected <= 1e-12")
        decay = np.array(report["decomposition"]["column_decay"], dtype=float)
        if decay.shape != self.reference.shape:
            errors.append(f"column_decay has shape {decay.shape}, reference {self.reference.shape}")
        else:
            dev = np.abs(decay - self.reference)
            if not np.all(dev <= self.rtol * np.abs(self.reference)):
                worst = int(np.argmax(dev / np.maximum(np.abs(self.reference), 1e-300)))
                errors.append(
                    f"column_decay[{worst}] = {float(decay[worst])!r} differs from the "
                    f"reference {float(self.reference[worst])!r} by more than rtol {self.rtol}"
                )
        return errors


class KernelWorkload(_CliWorkload):
    name = "kernel-sweep"
    why = ("kernel at N=1024 on a 32-point grid of radius 0.98: the Python kernel "
           "loop and the adjoint residual grid; analysis is bypassed")
    order = 1024
    grid = "0.98:32"

    def _args(self, order: int, grid: str, out: Path) -> list:
        return ["kernel", "--spec", self.spec_path, "--order", order,
                "--grid", grid, "--tol", "1e-10", "--out", out]

    def setup(self, work: Path) -> None:
        super().setup(work)
        self.out = work / "kernel"

    def warmup(self) -> None:
        self._main(self._args(64, "0.5:4", self.work / "warmup"))

    def unit(self) -> int:
        return self._main(self._args(self.order, self.grid, self.out))

    def check(self, code: int) -> list[str]:
        errors = []
        if code != 0:
            errors.append(f"exit code {code}, expected 0")
        report = json.loads((self.out / "kernel_report.json").read_text(encoding="utf-8"))
        count = int(self.grid.split(":")[1])
        want = count * count
        if not report["pairs_converged"] == report["pairs_total"] == want:
            errors.append(
                f"pairs converged {report['pairs_converged']}/{report['pairs_total']}, "
                f"expected {want}/{want}"
            )
        least = report["gram_least_eigenvalue"]
        if least is None or not least > 0.0:
            errors.append(f"Gram least eigenvalue {least}, expected > 0")
        with open(self.out / "kernel_residuals.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != count:
            errors.append(f"{len(rows)} residual rows, expected {count}")
        for i, row in enumerate(rows):
            if row["certificate"].startswith("np.float64("):
                defect = "kernel_residuals.csv writes certificates as 'np.float64(...)'"
                if defect not in self.format_defects:
                    self.format_defects.append(defect)
            residual = _float_cell(row["residual"])
            cert = _float_cell(row["certificate"])
            if not math.isfinite(cert):
                errors.append(f"residual row {i}: certificate is not finite")
            elif not residual <= cert:
                errors.append(f"residual row {i}: {residual!r} exceeds certificate {cert!r}")
        return errors


def discarded_column_mass(a: np.ndarray, b: np.ndarray, starts: np.ndarray,
                          first_rows: np.ndarray, cut: int) -> np.ndarray:
    """Squared mass in rows ``cut..H`` of columns whose entries are
    ``start * prod_{k=f}^{i-1} (-b_k / a_{k+1})`` at rows ``i >= f``.

    Evaluated in the log domain (prefix sums of log-ratios and a suffix
    log-sum-exp), independently of trishift's running products.  ``b`` must
    not vanish.
    """
    H = a.size - 1
    log_r = np.log(np.abs(b[:-1] / a[1:]))
    lam = np.concatenate(([0.0], np.cumsum(log_r)))  # lam[i] = sum_{k<i} log r_k
    suffix = np.logaddexp.accumulate((2.0 * lam)[::-1])[::-1]  # log sum_{i>=m} e^{2 lam_i}
    first = np.maximum(first_rows, cut)
    with np.errstate(divide="ignore"):
        log_mass = 2.0 * np.log(np.abs(starts)) - 2.0 * lam[first_rows] + suffix[np.minimum(first, H)]
    mass = np.exp(log_mass)
    mass[first > H] = 0.0
    return mass


class SectionsWorkload(Workload):
    name = "sections-4096"
    why = ("Python API: materialize, then shift, left-inverse, adjoint and block "
           "sections at N=4096 with certified tail bounds; operators does the work")
    order = 4096
    pad = 64
    # Each bound must reach the root of the true squared column mass, less a
    # relative slack for rounding between trishift's running products and
    # the log-domain reference.
    rtol = 1e-9
    # Where squares are subnormal, trishift's sum of squares rounds each of
    # its terms (the pad + 1 discarded entries and one geometric remainder)
    # by up to half the subnormal spacing ``math.ulp(0.0)``.  That is a known
    # defect of its bounds, and this slack admits it and nothing more: it is
    # about 1.6e-322, so a bound of zero still fails wherever the squared
    # mass exceeds that.
    subnormal_slack = (pad + 2) * math.ulp(0.0) / 2

    def prepare(self, work: Path, seed: int) -> None:
        _write_json(work / "spec.json", BASELINE_FAMILY)

    def setup(self, work: Path) -> None:
        from trishift import operators, sequences

        self.ops = operators
        self.seqs = sequences
        self.spec = sequences.load_spec_file(work / "spec.json")
        self.format_defects = []

    def warmup(self) -> None:
        self._build(64)
        # reference: the discarded mass measured on a horizon twice as long
        N = self.order
        long = self.seqs.materialize(self.spec, 2 * (N + self.pad))
        a, b = long.a, long.b
        n = np.arange(N)
        c = (a[:-2] / a[2:]) * (b[:-2] / a[:-2] - b[1:-1] / a[1:-1])  # c_n
        shift = discarded_column_mass(a, b, c[:N], n + 2, N)
        shift[N - 1] += abs(a[N - 1] / a[N]) ** 2  # the cut subdiagonal entry
        j = np.arange(1, N)
        d = b[j] / a[j] - b[j - 1] / a[j - 1]  # d_j, the left-inverse diagonal
        linv = np.zeros(N)
        linv[1:] = discarded_column_mass(a, b, d, j, N)
        self.true_mass = {"build_shift": shift, "build_left_inverse": linv}

    def _build(self, N: int) -> dict:
        # the module attributes are looked up at call time so the tracer applies
        seq = self.seqs.materialize(self.spec, N + self.pad)
        out = {}
        for name in ("build_shift", "build_left_inverse", "build_adjoint"):
            op = getattr(self.ops, name)(seq, N)
            out[name] = (op.entries.shape, op.tail_bound)
            del op  # keep one dense section alive at a time
        blocks = self.ops.build_blocks(seq, N)
        out["build_blocks"] = tuple(
            getattr(blocks, k).entries.shape for k in ("b1", "b2", "b3", "u")
        )
        return out

    def unit(self) -> dict:
        return self._build(self.order)

    def check(self, result: dict) -> list[str]:
        errors = []
        N = self.order
        for name in ("build_shift", "build_left_inverse", "build_adjoint"):
            shape, tail = result[name]
            if tuple(shape) != (N, N):
                errors.append(f"{name}: shape {shape}, expected {(N, N)}")
            if tail is None:
                errors.append(f"{name}: no tail bound")
                continue
            mass = self.true_mass.get(name, np.zeros(N))
            # compared in the norm domain, where tail * tail would itself round
            need = np.sqrt(np.maximum(mass * (1.0 - self.rtol) - self.subnormal_slack, 0.0))
            short = np.flatnonzero(tail < need)
            if short.size:
                k = int(short[0])
                errors.append(
                    f"{name}: tail bound {float(tail[k])!r} at column {k} is below the "
                    f"discarded mass {math.sqrt(mass[k])!r} ({short.size} columns)"
                )
        if result["build_blocks"] != ((N - 1, N - 1),) * 4:
            errors.append(f"build_blocks: shapes {result['build_blocks']}")
        return errors


def _criterion_devs(a: np.ndarray, b: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Trailing-window deviations, from the criterion's definition."""
    ratio = np.abs(np.abs(a[:-1] / a[1:]) - 1.0)
    diff = np.abs(b[:-1] / a[:-1] - b[1:] / a[1:])
    return ratio[-window:], diff[-window:]


def _as_pairs(z: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in z]


class CheckBatchWorkload(_CliWorkload):
    name = "check-batch"
    why = ("check --batch at N=8192 over the 20 corpus families, seeded explicit-list "
           "families and rescaled twins: per-index materialize, no dense matrix")
    order = 8192
    tol = 1e-2
    twins = ("bergman-const-b", "alt-b-half")  # rescaled by 2, exactly representable
    generated = 4  # seeded explicit-list families per run

    def prepare(self, work: Path, seed: int) -> None:
        sys.path.insert(0, str(ROOT / "tests"))
        try:
            from corpus_families import CORPUS
        finally:
            sys.path.pop(0)
        members = []  # (name, spec document, expected verdict, twin-of)
        for fam in CORPUS:
            members.append((fam.name, {"label": fam.name, "a": fam.a, "b": fam.b},
                            fam.expected, None))
        members.extend(self._generated(seed))
        by_name = {fam.name: fam for fam in CORPUS}
        for name in self.twins:
            fam = by_name[name]
            doc = {"label": fam.name, "a": f"2*({fam.a})", "b": f"2*({fam.b})"}
            members.append((f"{name}-x2", doc, fam.expected, name))
        entries, expected = [], []
        for i, (name, doc, verdict, twin_of) in enumerate(members):
            spec = work / "specs" / f"{i:02d}-{name}.json"
            _write_json(spec, doc)
            out = work / "reports" / f"{i:02d}-{name}"
            entries.append({"spec": str(spec), "out": str(out)})
            expected.append({"name": name, "out": str(out), "verdict": verdict,
                             "twin_of": twin_of})
        _write_json(work / "batch.json", entries)
        _write_json(work / "expected.json", expected)

    def _generated(self, seed: int) -> list:
        """Explicit-list families whose verdict follows from their construction,
        confirmed with a wide margin from the criterion's definition."""
        rng = np.random.default_rng(seed)
        n = np.arange(self.order + 1)
        window = self.order // 4
        out = []
        for k in range(self.generated):
            alpha = rng.uniform(0.5, 2.0)
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            gamma = rng.uniform(0.0, 0.8)
            jitter = 1.0 + rng.uniform(-1e-6, 1e-6, n.size)
            if k % 2 == 0:  # holds: slowly varying a, nearly constant b/a
                a = alpha * (1.0 + rng.uniform(-0.5, 0.5) / (n + 1.0)) * jitter
                b = alpha * gamma * phase * (1.0 + rng.uniform(-1e-6, 1e-6, n.size))
                verdict = "holds"
            elif k % 4 == 1:  # fails: alternating a
                a = alpha * rng.uniform(1.5, 3.0) ** ((-1.0) ** n) * jitter
                b = alpha * gamma * phase * np.ones(n.size)
                verdict = "fails"
            else:  # fails: alternating b
                a = alpha * jitter
                b = alpha * phase * (gamma + rng.uniform(0.15, 0.4) * (-1.0) ** n)
                verdict = "fails"
            a = a.astype(complex)
            ratio, diff = _criterion_devs(a, b, window)
            margin_holds = max(ratio.max(), diff.max()) < self.tol / 10.0
            margin_fails = max(ratio.min(), diff.min()) >= 20.0 * self.tol
            if (verdict == "holds") != margin_holds or (verdict == "fails") != margin_fails:
                raise AssertionError(f"generated family {k} lacks a clear verdict")
            doc = {"label": f"gen-{seed}-{k}", "a": _as_pairs(a), "b": _as_pairs(b)}
            out.append((f"gen-{k}-{verdict}", doc, verdict, None))
        return out

    def load_specs(self) -> None:
        self.batch = self.work / "batch.json"
        self.expected = json.loads((self.work / "expected.json").read_text(encoding="utf-8"))
        specs = json.loads(self.batch.read_text(encoding="utf-8"))
        # loading every member's spec is part of the measured set-up
        self.specs = [self.sequences.load_spec_file(e["spec"]) for e in specs]
        self.first_bytes: dict[str, bytes] | None = None

    def warmup(self) -> None:
        first = json.loads(self.batch.read_text(encoding="utf-8"))[0]["spec"]
        self._main(["check", "--spec", first, "--order", 64, "--tol", self.tol,
                    "--out", self.work / "warmup"])

    def unit(self) -> int:
        return self._main(["check", "--batch", self.batch, "--order", self.order,
                           "--tol", self.tol])

    def check(self, code: int) -> list[str]:
        errors = []
        exit_of = {"holds": 0, "fails": 1, "inconclusive": 2}
        want_code = max(exit_of[m["verdict"]] for m in self.expected)
        if code != want_code:
            errors.append(f"exit code {code}, expected {want_code}")
        data = {}
        for m in self.expected:
            raw = (Path(m["out"]) / "check_report.json").read_bytes()
            data[m["name"]] = raw
            verdict = json.loads(raw)["criterion"]["verdict"]
            if verdict != m["verdict"]:
                errors.append(f"{m['name']}: verdict {verdict!r}, expected {m['verdict']!r}")
            if m["twin_of"] is not None and raw != data.get(m["twin_of"]):
                errors.append(f"{m['name']}: report differs from {m['twin_of']} under rescaling")
        if self.first_bytes is None:
            self.first_bytes = data
        else:
            changed = [k for k, v in data.items() if self.first_bytes[k] != v]
            if changed:
                errors.append(f"reports changed between repeated runs: {changed}")
        return errors


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (CheckBatchWorkload, KernelWorkload, SectionsWorkload, ProfileWorkload)
}
