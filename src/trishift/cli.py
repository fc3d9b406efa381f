"""Command-line front end: validate a sequence family, decide the criterion,
emit decomposition and profile reports, and sweep kernels.

Exit codes: 0 = criterion holds, 1 = fails, 2 = inconclusive; 64 = I/O error,
65 = validation error, 66 = near-singular section, 70 = unexpected failure.
Reports and CSVs go to files under --out; warnings go to stderr.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    BoundUnavailableError,
    NearSingularError,
    VERDICT_FAILS,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    check_main_criterion,
    column_norm_profile,
    compact_isometry_split,
    equivalence_diagnostics,
    neumann_error_curve,
    _ShiftSection,
)
from .expr import EvalError, ExprSyntaxError
from .kernels import PointSet, _hermitian, adjoint_residual_grid, eval_kernel
from .reporting import (
    check_report,
    decompose_report,
    full_report,
    write_csv,
    write_report,
)
from .sequences import (
    CoefficientSpec,
    SequencePair,
    SequenceSpecError,
    load_spec_file,
    materialize,
    validate_assumptions,
)

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_IO = 64
EXIT_VALIDATION = 65
EXIT_NEAR_SINGULAR = 66
EXIT_SOFTWARE = 70

DEFAULTS: dict[str, object] = {
    "order": 512,
    "tol": 1e-3,
    "window": None,  # resolved to order // 4
    "r_target": 0.95,
    "pad": None,  # resolved to min(64, order // 4)
    "out": ".",
    "format": "json",
    "grid": None,
}

NEUMANN_M_MAX = 40
NEUMANN_MAX_BLOCK = 256  # cap on the tail-block order for the error curve

_VERDICT_EXIT = {
    VERDICT_HOLDS: EXIT_HOLDS,
    VERDICT_FAILS: EXIT_FAILS,
    VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class ConfigError(ValueError):
    """A run configuration violates its invariants."""


@dataclass
class RunConfig:
    spec_path: Path
    order: int
    tol: float
    window: int | None
    r_target: float
    pad: int
    out: Path
    fmt: str
    grid: str | None

    def validate(self) -> None:
        if not 8 <= self.order <= 8192:
            raise ConfigError(f"order must lie in [8, 8192], got {self.order}")
        if not 0.0 < self.tol < 1.0:
            raise ConfigError(f"tol must lie in (0, 1), got {self.tol}")
        if not 0 <= self.pad < self.order:
            raise ConfigError(
                f"pad must satisfy 0 <= pad < order, got pad={self.pad}, order={self.order}"
            )
        if self.window is not None and not 1 <= self.window <= self.order // 2:
            raise ConfigError(
                f"window must lie in [1, order/2], got {self.window}"
            )
        if not 0.0 < self.r_target < 1.0:
            raise ConfigError(f"r-target must lie in (0, 1), got {self.r_target}")
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.fmt!r}")


def _warn(message: str) -> None:
    print(f"trishift: warning: {message}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trishift",
        description=(
            "Finite-section analysis of shifts on tridiagonal "
            "reproducing-kernel spaces"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("check", "decide the compact-plus-isometry criterion"),
        ("decompose", "polar split into isometry plus remainder"),
        ("profile", "full tail-profile and bound report"),
        ("kernel", "kernel sweep, Gram positivity, adjoint residuals"),
    ]
    for name, help_text in specs:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--spec", type=Path, default=None, help="sequence-spec JSON file")
        sp.add_argument("--order", type=int, default=None, help="section order N (default 512)")
        sp.add_argument("--tol", type=float, default=None, help="criterion tolerance (default 1e-3)")
        sp.add_argument("--window", type=int, default=None, help="trailing window (default N/4)")
        sp.add_argument("--r-target", dest="r_target", type=float, default=None,
                        help="tail-ratio target (default 0.95)")
        sp.add_argument("--pad", type=int, default=None, help="evaluation padding rows (default 64)")
        sp.add_argument("--out", type=Path, default=None, help="output directory (default .)")
        sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None,
                        help="report format (default json)")
        sp.add_argument("--batch", type=Path, default=None,
                        help="JSON array of run configurations")
        if name == "kernel":
            sp.add_argument("--grid", type=str, default=None,
                            help="polar grid 'radius:count'")
    return parser


_ENTRY_KEYS = {"spec", "order", "tol", "window", "r_target", "pad", "out", "format", "grid"}


def _merge_config(entry: dict, flags: dict) -> RunConfig:
    unknown = set(entry) - _ENTRY_KEYS
    if unknown:
        raise ConfigError(f"unknown batch entry keys: {sorted(unknown)}")
    merged = dict(DEFAULTS)
    merged.update(entry)
    merged.update({k: v for k, v in flags.items() if v is not None})
    spec = merged.get("spec")
    if spec is None:
        raise ConfigError("a sequence spec path is required (--spec or batch entry)")
    order = int(merged["order"])
    pad = merged["pad"]
    if pad is None:  # unspecified: a quarter of the window, capped at 64
        pad = min(64, order // 4)
    cfg = RunConfig(
        spec_path=Path(spec),
        order=order,
        tol=float(merged["tol"]),
        window=None if merged["window"] is None else int(merged["window"]),
        r_target=float(merged["r_target"]),
        pad=int(pad),
        out=Path(merged["out"]),
        fmt=str(merged["format"]),
        grid=None if merged["grid"] is None else str(merged["grid"]),
    )
    cfg.validate()
    return cfg


def _resolve_configs(args: argparse.Namespace) -> list[RunConfig]:
    flags = {
        "spec": args.spec,
        "order": args.order,
        "tol": args.tol,
        "window": args.window,
        "r_target": args.r_target,
        "pad": args.pad,
        "out": args.out,
        "format": args.fmt,
        "grid": getattr(args, "grid", None),
    }
    if args.batch is not None:
        text = args.batch.read_text(encoding="utf-8")
        try:
            entries = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"malformed batch JSON in {args.batch}: {err}") from err
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ConfigError("batch file must hold a JSON array of objects")
        if not entries:
            raise ConfigError("batch file holds no entries")
        return [_merge_config(entry, flags) for entry in entries]
    return [_merge_config({}, flags)]


def _materialize_padded(cfg: RunConfig, spec: CoefficientSpec) -> SequencePair:
    want = cfg.order + cfg.pad
    avail = spec.available_horizon()
    eff = want if avail is None else min(want, avail)
    if eff < cfg.order:
        raise SequenceSpecError(
            f"explicit lists end at index {avail}; order {cfg.order} is out of reach"
        )
    if eff < want:
        _warn(
            f"padding reduced to {eff - cfg.order} rows "
            f"(explicit lists end at index {avail})"
        )
    return materialize(spec, eff)


def _report_path(cfg: RunConfig, stem: str) -> Path:
    cfg.out.mkdir(parents=True, exist_ok=True)
    return cfg.out / f"{stem}.{cfg.fmt}"


def _run_check(cfg: RunConfig) -> int:
    spec = load_spec_file(cfg.spec_path)
    seq = materialize(spec, cfg.order)
    assumptions = validate_assumptions(seq, cfg.r_target)
    crit = check_main_criterion(seq, cfg.tol, cfg.window)
    report = check_report(spec.label, cfg.order, assumptions, crit)
    write_report(report, _report_path(cfg, "check_report"), cfg.fmt)
    return _VERDICT_EXIT[crit.verdict]


def _run_decompose(cfg: RunConfig) -> int:
    spec = load_spec_file(cfg.spec_path)
    seq_full = _materialize_padded(cfg, spec)
    seq_rep = seq_full.trimmed(cfg.order)
    assumptions = validate_assumptions(seq_rep, cfg.r_target)
    deco = compact_isometry_split(seq_full, cfg.order, margin=cfg.pad)
    report = decompose_report(spec.label, cfg.order, assumptions, deco)
    write_report(report, _report_path(cfg, "decompose_report"), cfg.fmt)
    write_csv(
        cfg.out / "column_decay.csv",
        ["n", "value"],
        [(n, float(v)) for n, v in enumerate(deco.column_decay)],
    )
    return 0


def _run_profile(cfg: RunConfig) -> int:
    spec = load_spec_file(cfg.spec_path)
    seq_full = _materialize_padded(cfg, spec)
    seq_rep = seq_full.trimmed(cfg.order)
    assumptions = validate_assumptions(seq_rep, cfg.r_target)
    crit = check_main_criterion(seq_rep, cfg.tol, cfg.window)
    # one horizon section, factored once, serves all three analyses
    section = _ShiftSection(seq_full, cfg.order)
    profile, lower_sq = column_norm_profile(seq_full, cfg.order, _section=section)
    diag = equivalence_diagnostics(seq_full, cfg.order, _section=section)
    deco = compact_isometry_split(
        seq_full, cfg.order, margin=cfg.pad, _section=section
    )
    report = full_report(
        spec.label, cfg.order, assumptions, crit, profile, diag, deco
    )
    write_report(report, _report_path(cfg, "profile_report"), cfg.fmt)
    write_csv(
        cfg.out / "l_minus_mstar.csv",
        ["n", "value", "lower_bound"],
        [
            (n, float(profile[n]), math.sqrt(float(lower_sq[n])))
            for n in range(cfg.order)
        ],
    )
    write_csv(
        cfg.out / "i_minus_tstar_t.csv",
        ["n", "value"],
        [(n, float(v)) for n, v in enumerate(diag.tails_itt)],
    )
    write_csv(
        cfg.out / "i_minus_t_tstar.csv",
        ["n", "value"],
        [(n, float(v)) for n, v in enumerate(diag.tails_ittstar)],
    )
    write_csv(
        cfg.out / "column_decay.csv",
        ["n", "value"],
        [(n, float(v)) for n, v in enumerate(deco.column_decay)],
    )
    _emit_neumann_curve(cfg, seq_full, assumptions)
    return 0


def _emit_neumann_curve(cfg: RunConfig, seq: SequencePair, assumptions) -> None:
    if not assumptions.tail_ratio_below_target:
        _warn("tail ratio never drops below r-target; Neumann curve not emitted")
        return
    n0 = assumptions.n0_hat
    block_order = min(cfg.order, n0 + 2 + NEUMANN_MAX_BLOCK)
    if n0 + 2 >= block_order:
        _warn("horizon too small for tail blocks; Neumann curve not emitted")
        return
    try:
        curve = neumann_error_curve(seq, n0, block_order, NEUMANN_M_MAX)
    except BoundUnavailableError as err:
        _warn(f"{err}; Neumann curve not emitted")
        return
    write_csv(cfg.out / "neumann_error.csv", ["m", "error", "bound"], curve)


def _run_kernel(cfg: RunConfig) -> int:
    if cfg.grid is None:
        raise ConfigError("kernel requires --grid 'radius:count'")
    radius, count = _parse_grid(cfg.grid)
    spec = load_spec_file(cfg.spec_path)
    seq = materialize(spec, cfg.order)
    points = PointSet(
        tuple(radius * cmath.exp(2j * math.pi * j / count) for j in range(count))
    )
    pts = list(points)
    # k(w, z) = conj(k(z, w)) term by term; 0.0 - imag keeps a zero unsigned
    pairs = {
        (i, j): eval_kernel(seq, pts[i], pts[j], cfg.tol)
        for i in range(count)
        for j in range(i, count)
    }
    sweep_rows = []
    converged_pairs = 0
    for i, zi in enumerate(pts):
        for j, wj in enumerate(pts):
            kv = pairs[(min(i, j), max(i, j))]
            im_k = kv.value.imag if i <= j else 0.0 - kv.value.imag
            sweep_rows.append(
                (
                    zi.real, zi.imag, wj.real, wj.imag,
                    kv.value.real, im_k,
                    kv.terms_used, kv.tail_estimate, int(kv.converged),
                )
            )
            if kv.converged:
                converged_pairs += 1
            else:
                _warn(
                    f"kernel tail not certified at pair ({i}, {j}); "
                    f"estimate {kv.tail_estimate:.3e}"
                )
    cfg.out.mkdir(parents=True, exist_ok=True)
    write_csv(
        cfg.out / "kernel_sweep.csv",
        ["re_z", "im_z", "re_w", "im_w", "re_k", "im_k",
         "terms_used", "tail_estimate", "converged"],
        sweep_rows,
    )
    least_eig: float | None = None
    if converged_pairs == len(pts) ** 2:
        G = _hermitian({ij: kv.value for ij, kv in pairs.items()}, count)
        least_eig = float(np.linalg.eigvalsh(G)[0])
    else:
        _warn("Gram least eigenvalue omitted (some pairs did not converge)")
    residuals = adjoint_residual_grid(seq, points, cfg.order)
    write_csv(
        cfg.out / "kernel_residuals.csv",
        ["re_w", "im_w", "residual", "certificate"],
        [
            (w.real, w.imag, r, cert)
            for w, (r, cert) in zip(pts, residuals)
        ],
    )
    report = {
        "label": spec.label,
        "N": cfg.order,
        "grid": {"radius": radius, "count": count},
        "gram_least_eigenvalue": least_eig,
        "pairs_converged": converged_pairs,
        "pairs_total": len(pts) ** 2,
        "max_terms_used": max(kv.terms_used for kv in pairs.values()),
        "max_residual": max(r for r, _ in residuals),
    }
    write_report(report, _report_path(cfg, "kernel_report"), cfg.fmt)
    return 0


def _parse_grid(text: str) -> tuple[float, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"grid must be 'radius:count', got {text!r}")
    try:
        radius = float(parts[0])
        count = int(parts[1])
    except ValueError as err:
        raise ConfigError(f"grid must be 'radius:count', got {text!r}") from err
    if not 0.0 < radius < 1.0:
        raise ConfigError(f"grid radius must lie in (0, 1), got {radius}")
    if count < 1:
        raise ConfigError(f"grid count must be positive, got {count}")
    return radius, count


_HANDLERS = {
    "check": _run_check,
    "decompose": _run_decompose,
    "profile": _run_profile,
    "kernel": _run_kernel,
}


def _execute(command: str, cfg: RunConfig) -> int:
    try:
        return _HANDLERS[command](cfg)
    except NearSingularError as err:
        print(f"trishift: error: {err}", file=sys.stderr)
        return EXIT_NEAR_SINGULAR
    except (ExprSyntaxError, EvalError, ValueError) as err:
        # covers ConfigError, SequenceSpecError, ZeroCoefficientError, HorizonError
        print(f"trishift: error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"trishift: error: {err}", file=sys.stderr)
        return EXIT_IO
    except Exception as err:  # pragma: no cover - defensive
        print(f"trishift: internal error: {err}", file=sys.stderr)
        return EXIT_SOFTWARE


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        configs = _resolve_configs(args)
    except ConfigError as err:
        print(f"trishift: error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"trishift: error: {err}", file=sys.stderr)
        return EXIT_IO
    code = 0
    for cfg in configs:
        code = max(code, _execute(args.command, cfg))
    return code


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


__all__ = [
    "ConfigError",
    "DEFAULTS",
    "EXIT_FAILS",
    "EXIT_HOLDS",
    "EXIT_INCONCLUSIVE",
    "EXIT_IO",
    "EXIT_NEAR_SINGULAR",
    "EXIT_SOFTWARE",
    "EXIT_VALIDATION",
    "RunConfig",
    "main",
]
