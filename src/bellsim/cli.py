"""Command-line front end: single runs, curve sweeps, control-geometry checks.

Configuration files are flat INI-style key/value text with one section per
concern ([strategy], [settings], [detector], [engine], [output]). The CLI
emits CSV only; plotting is left to external tools.

Exit codes: 0 success, 2 validation/configuration error, 3 runtime or
statistical error.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import functools
import math
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import analytic
from .core import (
    CHSH_ORDER,
    Angle,
    DoubleClickPolicy,
    MeasurementSettings,
    RunSummary,
    SettingPair,
    SimulationError,
    ValidationError,
)
from .detector import DetectorModel, StepThreshold, TwoThreshold, read_response_csv
from .engine import _SEED_LIMIT, RunConfig, run
from .inequalities import gm_bound
from .strategies import (
    CONTROL_ROWS,
    ExistingModelSpec,
    ImprovedModelSpec,
    PerfectMode,
    PerfectModelSpec,
    QuantumSpec,
    StrategySpec,
    ControlRow,
    bell_phi_plus,
    control_geometry,
    control_row_probabilities,
)

__all__ = ["main", "ConfigError", "load_config", "build_run_config", "write_summary_csv"]

_STRATEGY_KINDS = ("existing", "improved", "perfect", "quantum")
_REQUIRED = object()


class ConfigError(ValidationError):
    """A configuration file could not be parsed or validated."""


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def load_config(path: str | Path) -> configparser.ConfigParser:
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        with path.open(encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return parser


def _get(
    cp: configparser.ConfigParser,
    section: str,
    key: str,
    cast: Callable[[str], Any],
    default: Any = _REQUIRED,
) -> Any:
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    raw = cp.get(section, key).strip()
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} ({exc})") from exc


def _parse_path(raw: str) -> str:
    if "\0" in raw:
        raise ValueError("a path cannot hold a NUL byte")
    return raw


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def parse_settings(cp: configparser.ConfigParser) -> MeasurementSettings:
    if not cp.has_section("settings"):
        raise ConfigError("missing [settings] section")
    return MeasurementSettings.from_degrees(
        _get(cp, "settings", "alpha0", float),
        _get(cp, "settings", "alpha1", float),
        _get(cp, "settings", "beta0", float),
        _get(cp, "settings", "beta1", float),
    )


def parse_detector(cp: configparser.ConfigParser) -> DetectorModel:
    if not cp.has_section("detector"):
        return StepThreshold()
    model = _get(cp, "detector", "model", str, "step").lower()
    if model == "step":
        return StepThreshold(_get(cp, "detector", "i_th", float, 1.0))
    if model == "two_threshold":
        return TwoThreshold(
            i_never=_get(cp, "detector", "i_never", float),
            i_always=_get(cp, "detector", "i_always", float),
        )
    if model == "empirical":
        curve_file = _get(cp, "detector", "curve_file", _parse_path)
        return read_response_csv(curve_file)
    raise ConfigError(
        f"[detector] model: unknown model {model!r}; valid models: step, two_threshold, empirical"
    )


def _parse_perfect_mode(cp: configparser.ConfigParser) -> PerfectMode:
    mode_raw = _get(cp, "strategy", "mode", str, "analytic").lower()
    try:
        return PerfectMode(mode_raw)
    except ValueError:
        raise ConfigError(
            f"[strategy] mode: unknown mode {mode_raw!r}; valid modes: analytic, physical"
        ) from None


def _parse_policy(cp: configparser.ConfigParser) -> DoubleClickPolicy:
    policy_raw = _get(cp, "engine", "double_click_policy", str, "discard").lower()
    try:
        return DoubleClickPolicy(policy_raw)
    except ValueError:
        raise ConfigError(
            f"[engine] double_click_policy: unknown policy {policy_raw!r}; "
            "valid policies: discard, randomize, flag"
        ) from None


def parse_strategy(cp: configparser.ConfigParser, settings: MeasurementSettings) -> StrategySpec:
    kind = _get(cp, "strategy", "kind", str).lower()
    if kind == "existing":
        return ExistingModelSpec(e_target=_get(cp, "strategy", "e_target", float))
    if kind == "improved":
        return ImprovedModelSpec.for_settings(
            p2=_get(cp, "strategy", "p2", float),
            settings=settings,
            trigger_intensity=_get(cp, "strategy", "trigger_intensity", float, None),
        )
    if kind == "perfect":
        return PerfectModelSpec(
            a=_get(cp, "strategy", "a", float),
            b=_get(cp, "strategy", "b", float),
            mode=_parse_perfect_mode(cp),
            role_reversal=_get(cp, "strategy", "role_reversal", _parse_bool, True),
        )
    if kind == "quantum":
        state_name = _get(cp, "strategy", "state", str, "phi_plus").lower()
        if state_name != "phi_plus":
            raise ConfigError(
                f"[strategy] state: unknown state {state_name!r}; valid states: phi_plus"
            )
        state = bell_phi_plus().rotated(
            _get(cp, "strategy", "rotate_a", float, 0.0),
            _get(cp, "strategy", "rotate_b", float, 0.0),
        )
        return QuantumSpec(state=state, eta_true=_get(cp, "strategy", "eta_true", float, 1.0))
    raise ConfigError(
        f"[strategy] kind: unknown strategy {kind!r}; valid kinds: {', '.join(_STRATEGY_KINDS)}"
    )


def build_run_config(
    cp: configparser.ConfigParser,
    seed_override: int | None = None,
    trials_override: int | None = None,
) -> RunConfig:
    if not cp.has_section("strategy"):
        raise ConfigError("missing [strategy] section")
    settings = parse_settings(cp)
    strategy = parse_strategy(cp, settings)
    detector = parse_detector(cp)
    policy = _parse_policy(cp)
    n_trials = trials_override if trials_override is not None else _get(cp, "engine", "trials", int, 100_000)
    seed = seed_override if seed_override is not None else _get(cp, "engine", "seed", int, 0)
    return RunConfig(
        strategy=strategy,
        settings=settings,
        n_trials=n_trials,
        seed=seed,
        double_click_policy=policy,
        detector_model=detector,
    )


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

SUMMARY_COLUMNS = (
    "setting", "n_pp", "n_pm", "n_mp", "n_mm",
    "n_singles_a", "n_singles_b", "n_neither", "n_double", "E",
)


def write_summary_csv(summary: RunSummary, path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        doubles = dict(zip(SettingPair, summary.counts.doubles))
        for pair in CHSH_ORDER:
            t = summary.joint_counts[pair]
            writer.writerow([
                pair.label,
                t[0, 0], t[0, 1], t[1, 0], t[1, 1],
                t[0, 2] + t[1, 2], t[2, 0] + t[2, 1], t[2, 2],
                doubles[pair],
                _fmt(summary.correlations[pair]),
            ])
        writer.writerow(["S", _fmt(summary.s_value)])
        writer.writerow(["eta_alice", _fmt(summary.eta_alice)])
        writer.writerow(["eta_bob", _fmt(summary.eta_bob)])
        writer.writerow(["eta_symmetric", _fmt(summary.eta_symmetric)])
        writer.writerow(["seed", "" if summary.seed is None else summary.seed])


def print_summary(summary: RunSummary, out=None) -> None:
    out = out or sys.stdout
    print(f"strategy: {summary.strategy_label}", file=out)
    s = summary.settings
    print(
        f"settings: alpha0={s.alpha0} alpha1={s.alpha1} beta0={s.beta0} beta1={s.beta1}",
        file=out,
    )
    seed = "-" if summary.seed is None else summary.seed
    print(
        f"trials: {summary.n_trials}  seed: {seed}  "
        f"policy: {summary.double_click_policy.value}",
        file=out,
    )
    print("setting       E  coincidences  doubles", file=out)
    doubles = dict(zip(SettingPair, summary.counts.doubles))
    for pair in CHSH_ORDER:
        print(
            f"{pair.label:>7}  {summary.correlations[pair]:+.6f}  "
            f"{summary.joint_counts[pair][:2, :2].sum():>12}  {doubles[pair]:>7}",
            file=out,
        )
    print(f"S = {summary.s_value:.6f} (SE {summary.se_s:.6f})", file=out)
    print(
        f"eta_alice = {summary.eta_alice:.6f}  eta_bob = {summary.eta_bob:.6f}  "
        f"eta_symmetric = {summary.eta_symmetric:.6f} (SE {summary.se_eta_symmetric:.6f})",
        file=out,
    )
    print(f"double-click trials: {summary.total_double_events}", file=out)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    cp = load_config(args.config)
    config = build_run_config(cp, seed_override=args.seed, trials_override=args.trials)
    summary = run(config, workers=args.workers)
    print_summary(summary)
    out_path = args.out
    if out_path is None and cp.has_section("output"):
        out_path = _get(cp, "output", "summary_csv", _parse_path, None)
    if out_path:
        write_summary_csv(summary, out_path)
        print(f"summary written to {out_path}")
    return 0


_SWEEP_FAMILY = {"p2": "improved", "eta": "perfect", "etarget": "existing"}

#: Most grid points one sweep may ask for.
_MAX_SWEEP_STEPS = 1_000_000


def _sweep_points(
    var: str, cp: configparser.ConfigParser, settings: MeasurementSettings
) -> Callable[[float], tuple[StrategySpec, Any]]:
    """The function from a grid value to its spec and closed-form prediction."""
    if var == "p2":
        trigger = _get(cp, "strategy", "trigger_intensity", float, None)
        return lambda x: (ImprovedModelSpec.for_settings(x, settings, trigger), analytic.improved_predict(x))
    if var == "etarget":
        return lambda x: (ExistingModelSpec(e_target=x), analytic.existing_predict(x))
    mode = _parse_perfect_mode(cp)
    role_reversal = _get(cp, "strategy", "role_reversal", _parse_bool, True)

    def point(x: float) -> tuple[StrategySpec, Any]:
        a, b, _ = analytic.ab_from_eta(x)
        return PerfectModelSpec(a, b, mode, role_reversal), analytic.perfect_predict(a, b)

    return point


def cmd_sweep(args: argparse.Namespace) -> int:
    cp = load_config(args.config)
    settings = parse_settings(cp)
    if not 2 <= args.steps <= _MAX_SWEEP_STEPS:
        raise ConfigError(f"--steps must lie in [2, {_MAX_SWEEP_STEPS}], got {args.steps}")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise ConfigError(f"--from and --to must be finite, got {args.start!r} and {args.stop!r}")
    if not args.start < args.stop:
        raise ConfigError(f"need --from < --to, got {args.start!r} >= {args.stop!r}")
    kind = _get(cp, "strategy", "kind", str).lower()
    family = _SWEEP_FAMILY[args.var]
    if kind != family:
        raise ConfigError(
            f"sweeping {args.var!r} requires [strategy] kind = {family}, config has {kind!r}"
        )
    detector = parse_detector(cp)
    policy = _parse_policy(cp)
    trials = args.trials if args.trials is not None else _get(cp, "engine", "trials", int, 100_000)
    base_seed = args.seed if args.seed is not None else _get(cp, "engine", "seed", int, 0)
    if args.mc and not 0 <= base_seed <= _SEED_LIMIT - args.steps:
        raise ConfigError(f"--seed {base_seed}, --steps {args.steps}: seeds seed + i must lie in [0, 2**64)")
    sweep_point = _sweep_points(args.var, cp, settings)

    rows = []
    for i, x in enumerate(np.linspace(args.start, args.stop, args.steps).tolist()):
        spec, prediction = sweep_point(x)
        row = [
            _fmt(x), _fmt(prediction.eta), _fmt(prediction.s), _fmt(gm_bound(prediction.eta)),
        ]
        if args.mc:
            summary = run(
                RunConfig(
                    strategy=spec, settings=settings, n_trials=trials,
                    seed=base_seed + i, double_click_policy=policy, detector_model=detector,
                ),
                workers=args.workers,
            )
            row += [_fmt(summary.eta_symmetric), _fmt(summary.s_value), _fmt(summary.se_s)]
        else:
            row += ["", "", ""]
        rows.append(row)

    with Path(args.out).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "eta_analytic", "s_analytic", "gm_bound", "eta_mc", "s_mc", "se_s"])
        writer.writerows(rows)
    print(f"{len(rows)} sweep points written to {args.out}")
    return 0


def cmd_check_feasibility(args: argparse.Namespace) -> int:
    cp = load_config(args.config)
    settings = parse_settings(cp)
    kind = _get(cp, "strategy", "kind", str, "perfect").lower()
    if kind != "perfect":
        raise ConfigError(f"check-feasibility needs [strategy] kind = perfect, config has {kind!r}")
    a = _get(cp, "strategy", "a", float)
    b = _get(cp, "strategy", "b", float)
    probs = control_row_probabilities(a, b)
    geometry = control_geometry(settings)
    blocked = {(side, k) for side, k, _ in geometry.infeasible}

    for side, (name, angle0, angle1) in enumerate((
        ("alice", settings.alpha0, settings.alpha1),
        ("bob", settings.beta0, settings.beta1),
    )):
        phi0, phi1 = geometry.phi[side]
        print(f"{name} side: phi0={phi0:.6g} deg, phi1={phi1:.6g} deg")
        head0 = f"pol (source {angle0})"
        head1 = f"pol (source {angle1})"
        print(f"  {'row':<15}{'probability':<13}{'window':<22}{'intensity':<11}"
              f"{head0:<20}{head1}")
        for k, (row, prob) in enumerate(zip(CONTROL_ROWS, probs)):
            if row is ControlRow.VACUUM:
                window_text, intensity_text = "any", "0"
                pol0 = pol1 = "vacuum"
            elif (side, k) in blocked:
                window_text, intensity_text, pol0, pol1 = "INFEASIBLE", "-", "-", "-"
            else:
                lo, hi = geometry.windows[side][k]
                window_text = f"[{lo:.6g}, {hi:.6g})"
                intensity_text = f"{geometry.intensity[side, 0, k]:.6g}"
                pol0, pol1 = (str(Angle(p)) for p in geometry.pol[side, :, k])
            print(f"  {row.value:<15}{prob:<13.6g}{window_text:<22}{intensity_text:<11}"
                  f"{pol0:<20}{pol1}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Simulate detector-control strategies against CHSH Bell tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="Run one experiment from a config file.")
    p_run.add_argument("config", help="Path to the INI config file")
    p_run.add_argument("--seed", type=int, default=None, help="Override [engine] seed")
    p_run.add_argument("--trials", type=int, default=None, help="Override [engine] trials")
    p_run.add_argument("--workers", type=int, default=1, help="Worker threads (result-invariant)")
    p_run.add_argument("--out", default=None, help="Write the summary CSV here")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="Sweep one strategy parameter and write a CSV curve.")
    p_sweep.add_argument("config", help="Path to the INI config file")
    p_sweep.add_argument("--var", required=True, choices=sorted(_SWEEP_FAMILY),
                         help="Which parameter to sweep")
    p_sweep.add_argument("--from", dest="start", type=float, required=True, help="First grid value")
    p_sweep.add_argument("--to", dest="stop", type=float, required=True, help="Last grid value")
    p_sweep.add_argument("--steps", type=int, required=True,
                         help=f"Number of grid points, 2 to {_MAX_SWEEP_STEPS}")
    p_sweep.add_argument("--out", required=True, help="Output CSV path")
    p_sweep.add_argument("--mc", action=argparse.BooleanOptionalAction, default=True,
                         help="Also run Monte Carlo at each grid point")
    p_sweep.add_argument("--seed", type=int, default=None, help="Override [engine] seed")
    p_sweep.add_argument("--trials", type=int, default=None, help="Override [engine] trials")
    p_sweep.add_argument("--workers", type=int, default=1, help="Worker threads (result-invariant)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser(
        "check-feasibility",
        help="Show the control pulses the physical perfect model sends for the configured geometry.",
    )
    p_check.add_argument("config", help="Path to the INI config file")
    p_check.set_defaults(func=cmd_check_feasibility)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def cli_entry() -> None:
    sys.exit(main())
