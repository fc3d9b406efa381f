"""Command-line front end: validate a sequence family, decide the criterion,
emit decomposition and profile reports, and sweep kernels.

Exit codes: 0 = criterion holds, 1 = fails, 2 = inconclusive; 64 = I/O error,
65 = validation or usage error, 66 = near-singular section, 70 = unexpected
failure.
Reports and CSVs go to files under --out; warnings go to stderr.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import make_dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    BoundUnavailableError,
    NearSingularError,
    VERDICT_FAILS,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    check_main_criterion,
    compact_isometry_split,
    equivalence_diagnostics,
    neumann_error_curve,
)
from .expr import EvalError, ExprSyntaxError
from .kernels import PointSet, adjoint_residual_grid, kernel_sweep
from .reporting import (
    check_report,
    decompose_report,
    full_report,
    kernel_report,
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

# Each run option, declared once: (key, type, default, help).  The key names
# the batch-entry key, the RunConfig field and, with "-" for "_", the flag.
# A default of None means unset: window and pad are then resolved per run, as
# their help says, while spec (and grid, for kernel) must be given.
_OPTIONS: tuple[tuple[str, type, object, str], ...] = (
    ("spec", Path, None, "sequence-spec JSON file"),
    ("order", int, 512, "section order N"),
    ("tol", float, 1e-3, "criterion tolerance"),
    ("window", int, None, "trailing window (default N/4)"),
    ("r_target", float, 0.95, "tail-ratio target"),
    ("pad", int, None, "evaluation padding rows (default min(64, N/4))"),
    ("out", Path, ".", "output directory"),
    ("format", str, "json", "report format, json or csv"),
    ("grid", str, None, "polar grid 'radius:count'"),
)

DEFAULTS: dict[str, object] = {key: default for key, _, default, _ in _OPTIONS}

NEUMANN_M_MAX = 40
NEUMANN_MAX_BLOCK = 256  # cap on the tail-block order for the error curve

_VERDICT_EXIT = {
    VERDICT_HOLDS: EXIT_HOLDS,
    VERDICT_FAILS: EXIT_FAILS,
    VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class ConfigError(ValueError):
    """A run configuration violates its invariants."""


def _validate(cfg) -> None:
    if not 8 <= cfg.order <= 8192:
        raise ConfigError(f"order must lie in [8, 8192], got {cfg.order}")
    if not 0.0 < cfg.tol < 1.0:
        raise ConfigError(f"tol must lie in (0, 1), got {cfg.tol}")
    if not 0 <= cfg.pad < cfg.order:
        raise ConfigError(
            f"pad must satisfy 0 <= pad < order, got pad={cfg.pad}, order={cfg.order}"
        )
    if cfg.window is not None and not 1 <= cfg.window <= cfg.order // 2:
        raise ConfigError(
            f"window must lie in [1, order/2], got {cfg.window}"
        )
    if not 0.0 < cfg.r_target < 1.0:
        raise ConfigError(f"r-target must lie in (0, 1), got {cfg.r_target}")
    if cfg.format not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {cfg.format!r}")
    if cfg.grid is not None:
        _parse_grid(cfg.grid)


RunConfig = make_dataclass(
    "RunConfig",
    [(key, kind) for key, kind, _, _ in _OPTIONS],
    namespace={
        "__doc__": "One run: a field per option, window and grid None when "
                   "unset, pad resolved.",
        "__module__": __name__,
        "validate": _validate,
    },
)


def _warn(message: str) -> None:
    print(f"trishift: warning: {message}", file=sys.stderr)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so that it exits with
    EXIT_VALIDATION rather than argparse's 2, the inconclusive code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
        for key, _, default, option_help in _OPTIONS:
            if key == "grid" and name != "kernel":
                continue  # a batch entry may carry a grid; only kernel reads it
            if default is not None:
                option_help = f"{option_help} (default {default})"
            # every value arrives as text and is converted with batch values
            sp.add_argument("--" + key.replace("_", "-"), dest=key, help=option_help)
        sp.add_argument("--batch", type=Path, default=None,
                        help="JSON array of run configurations")
    return parser


def _entry_value(merged: dict, key: str, kind: type):
    """``merged[key]`` as ``kind``; a boolean, a value ``kind`` does not take,
    or a non-integral number for an integer raises ConfigError naming ``key``."""
    value = merged[key]
    try:
        converted = kind(value)
        if isinstance(value, bool) or (isinstance(value, float) and converted != value):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        what = {int: "an integer", float: "a number", str: "a string"}.get(kind, "a path")
        raise ConfigError(f"{key} must be {what}, got {value!r}") from None
    return converted


def _merge_config(entry: dict, flags: dict) -> RunConfig:
    unknown = set(entry) - DEFAULTS.keys()
    if unknown:
        raise ConfigError(f"unknown batch entry keys: {sorted(unknown)}")
    merged = dict(DEFAULTS)
    merged.update(entry)
    merged.update({k: v for k, v in flags.items() if v is not None})
    if merged["spec"] is None:
        raise ConfigError("a sequence spec path is required (--spec or batch entry)")
    values = {
        key: None if merged[key] is None and default is None
        else _entry_value(merged, key, kind)
        for key, kind, default, _ in _OPTIONS
    }
    if values["pad"] is None:  # unspecified: a quarter of the window, capped at 64
        values["pad"] = min(64, values["order"] // 4)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _resolve_configs(args: argparse.Namespace) -> list[RunConfig]:
    flags = {key: getattr(args, key, None) for key in DEFAULTS}
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
    return cfg.out / f"{stem}.{cfg.format}"


def _run_check(cfg: RunConfig) -> int:
    spec = load_spec_file(cfg.spec)
    seq = materialize(spec, cfg.order)
    assumptions = validate_assumptions(seq, cfg.r_target)
    crit = check_main_criterion(seq, cfg.tol, cfg.window)
    report = check_report(spec.label, cfg.order, assumptions, crit)
    write_report(report, _report_path(cfg, "check_report"), cfg.format)
    return _VERDICT_EXIT[crit.verdict]


def _run_decompose(cfg: RunConfig) -> int:
    spec = load_spec_file(cfg.spec)
    seq_full = _materialize_padded(cfg, spec)
    seq_rep = seq_full.trimmed(cfg.order)
    assumptions = validate_assumptions(seq_rep, cfg.r_target)
    deco = compact_isometry_split(seq_full, cfg.order)
    report = decompose_report(
        spec.label, cfg.order, seq_full.horizon - cfg.order, assumptions, deco
    )
    write_report(report, _report_path(cfg, "decompose_report"), cfg.format)
    _write_series(cfg.out / "column_decay.csv", deco.column_decay)
    return 0


def _run_profile(cfg: RunConfig) -> int:
    spec = load_spec_file(cfg.spec)
    seq_full = _materialize_padded(cfg, spec)
    seq_rep = seq_full.trimmed(cfg.order)
    assumptions = validate_assumptions(seq_rep, cfg.r_target)
    crit = check_main_criterion(seq_rep, cfg.tol, cfg.window)
    diag = equivalence_diagnostics(seq_full, cfg.order)
    report = full_report(
        spec.label, cfg.order, seq_full.horizon - cfg.order, assumptions, crit, diag
    )
    write_report(report, _report_path(cfg, "profile_report"), cfg.format)
    _write_series(cfg.out / "l_minus_mstar.csv", diag.tails_ltstar, diag.ltstar_lower_sq)
    _write_series(cfg.out / "i_minus_tstar_t.csv", diag.tails_itt)
    _write_series(cfg.out / "i_minus_t_tstar.csv", diag.tails_ittstar)
    _write_series(cfg.out / "column_decay.csv", diag.decomposition.column_decay)
    _emit_neumann_curve(cfg, seq_full, assumptions)
    return 0


def _write_series(path: Path, values: np.ndarray, lower_sq: np.ndarray | None = None) -> None:
    """``n,value`` rows of the array ``values``, with a ``lower_bound``
    column, the root of the squared floor ``lower_sq``, when one is given."""
    header, columns = ["n", "value"], [np.arange(len(values)), values]
    if lower_sq is not None:
        header.append("lower_bound")
        columns.append(np.sqrt(lower_sq))
    write_csv(path, header, zip(*(c.tolist() for c in columns)))


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
    spec = load_spec_file(cfg.spec)
    # the pad serves the residual certificate; the sweep keeps the order as
    # its horizon, on which its stopping indices depend
    seq_full = _materialize_padded(cfg, spec)
    seq = seq_full.trimmed(cfg.order)
    points = PointSet(
        tuple(radius * cmath.exp(2j * math.pi * j / count) for j in range(count))
    )
    G, terms, tails, converged = kernel_sweep(seq, points, cfg.tol)
    for i, j in np.argwhere(~converged):
        _warn(
            f"kernel tail not certified at pair ({i}, {j}); "
            f"estimate {tails[i, j]:.3e}"
        )
    z = np.array(points.points)
    zs = np.broadcast_to(z[:, None], G.shape)  # row i is z_i; its transpose, w_j
    cfg.out.mkdir(parents=True, exist_ok=True)
    write_csv(
        cfg.out / "kernel_sweep.csv",
        ["re_z", "im_z", "re_w", "im_w", "re_k", "im_k",
         "terms_used", "tail_estimate", "converged"],
        zip(*(c.ravel().tolist() for c in
              (zs.real, zs.imag, zs.T.real, zs.T.imag, G.real, G.imag,
               terms, tails, converged))),
    )
    least_eig: float | None = None
    if converged.all():
        least_eig = np.linalg.eigvalsh(G)[0]
    else:
        _warn("Gram least eigenvalue omitted (some pairs did not converge)")
    residuals = adjoint_residual_grid(seq_full, points, cfg.order)
    write_csv(
        cfg.out / "kernel_residuals.csv",
        ["re_w", "im_w", "residual", "certificate"],
        ((w.real, w.imag, r, cert) for w, (r, cert) in zip(points, residuals)),
    )
    report = kernel_report(
        spec.label, cfg.order, seq_full.horizon - cfg.order, (radius, count),
        least_eig, terms, converged, residuals,
    )
    write_report(report, _report_path(cfg, "kernel_report"), cfg.format)
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
    try:
        args = _build_parser().parse_args(argv)
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


if __name__ == "__main__":
    entrypoint()
