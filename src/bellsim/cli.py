"""Command-line front end: single runs, curve sweeps, control-geometry checks.

Configuration files are INI text, with the sections and keys that
:data:`CONFIG_KEYS` lists. The CLI emits CSV only; plotting is left to external tools.

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
from .engine import _SEED_LIMIT, RunConfig, _check_workers, run
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
    except configparser.Error as exc:  # whose message may span lines; an error prints on one
        raise ConfigError(f"cannot parse config {path}: {' '.join(str(exc).split())}") from exc
    return parser


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


#: Every config key: section -> key -> (parser, default). A parser is a function
#: of the value's text or a tuple of the names the value may take. A key that
#: picks a variant ([strategy] kind, [detector] model) has a dict instead, from
#: each name to the keys that variant adds.
CONFIG_KEYS: dict[str, dict[str, tuple[Any, Any]]] = {
    "strategy": {"kind": ({
        "existing": {"e_target": (float, _REQUIRED)},
        "improved": {"p2": (float, _REQUIRED), "trigger_intensity": (float, None)},
        "perfect": {
            **dict.fromkeys(("a", "b"), (float, _REQUIRED)),
            "mode": (tuple(m.value for m in PerfectMode), "analytic"),
            "role_reversal": (_parse_bool, True),
        },
        "quantum": {
            "state": (("phi_plus",), "phi_plus"),
            "eta_true": (float, 1.0),
            **dict.fromkeys(("rotate_a", "rotate_b"), (float, 0.0)),
        },
    }, _REQUIRED)},
    "settings": dict.fromkeys(("alpha0", "alpha1", "beta0", "beta1"), (float, _REQUIRED)),
    "detector": {"model": ({
        "step": {"i_th": (float, 1.0)},
        "two_threshold": {"i_never": (float, _REQUIRED), "i_always": (float, _REQUIRED)},
        "empirical": {"curve_file": (_parse_path, _REQUIRED)},
    }, "step")},
    "engine": {
        "trials": (int, 100_000),
        "seed": (int, 0),
        "double_click_policy": (tuple(p.value for p in DoubleClickPolicy), "discard"),
    },
    "output": {"summary_csv": (_parse_path, None)},
}

#: What an unknown name of a choice key is called, and the list of valid names, where not "<key>", "<key>s".
_CHOICE_NOUNS = {"kind": ("strategy", "kinds"), "double_click_policy": ("policy", "policies")}


def _homes():
    """Each config key with where it is read: ``[engine]``, ``[strategy] kind = improved``, ..."""
    for section, table in CONFIG_KEYS.items():
        for key, (parser, _) in table.items():
            yield key, f"[{section}]"
            if isinstance(parser, dict):
                for name, keys in parser.items():
                    yield from ((k, f"[{section}] {key} = {name}") for k in keys)


def _unknown(what: str, name: str, known: list[str]) -> ConfigError:
    import difflib  # only on this error path, so a valid config does not pay for it

    close = difflib.get_close_matches(name.lower(), known, n=1)
    hint = f"did you mean {close[0]}?" if close else f"valid: {', '.join(known)}"
    return ConfigError(f"unknown {what}; {hint}")


def _value(section: str, key: str, parser: Any, default: Any, given: dict[str, str]) -> Any:
    where = f"[{section}] {key}"
    if key not in given:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {where}")
        return default
    raw = given[key].strip()
    if not callable(parser):  # a choice of names
        if raw.lower() in parser:
            return raw.lower()
        noun, nouns = _CHOICE_NOUNS.get(key, (key, f"{key}s"))
        raise ConfigError(f"{where}: unknown {noun} {raw.lower()!r}; valid {nouns}: {', '.join(parser)}")
    try:
        return parser(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} ({exc})") from exc


def parse_config(
    cp: configparser.ConfigParser, defaults: dict[str, Any] | None = None, **flags: Any
) -> dict[str, Any]:
    """Every config key by name, parsed against :data:`CONFIG_KEYS`; a section or key it lacks is an error.

    ``defaults`` replace the table's defaults, and ``flags`` that are not None replace the file's values.
    """
    defaults = defaults or {}
    for section in cp.sections() + ([cp.default_section] if cp.defaults() else []):
        if section not in CONFIG_KEYS:
            raise _unknown(f"section [{section}]", section, list(CONFIG_KEYS))
    values: dict[str, Any] = {}
    for section, table in CONFIG_KEYS.items():
        given = dict(cp.items(section)) if cp.has_section(section) else {}
        keys = dict(table)
        for key, (parser, default) in table.items():
            if isinstance(parser, dict):  # the chosen variant's keys join the section's
                values[key] = _value(section, key, tuple(parser), defaults.get(key, default), given)
                keys.update(parser[values[key]])
        for key in given:
            if key not in keys:
                home = dict(_homes()).get(key)
                if home:
                    raise ConfigError(f"[{section}] {key}: only {home} takes this key")
                raise _unknown(f"key [{section}] {key}", key, list(keys))
        for key, (parser, default) in keys.items():
            if key not in values:
                values[key] = _value(section, key, parser, defaults.get(key, default), given)
    return values | {key: flag for key, flag in flags.items() if flag is not None}


def _read_curve(path: str) -> DetectorModel:
    try:
        return read_response_csv(path)
    except OSError as exc:  # a missing file or a directory is a configuration error, not an i/o failure
        raise ConfigError(f"cannot read [detector] curve_file: {exc}") from exc


#: How each [strategy] kind and [detector] model is built from the parsed config.
_STRATEGIES: dict[str, Callable[[dict[str, Any], MeasurementSettings], StrategySpec]] = {
    "existing": lambda v, s: ExistingModelSpec(v["e_target"]),
    "improved": lambda v, s: ImprovedModelSpec.for_settings(v["p2"], s, v["trigger_intensity"]),
    "perfect": lambda v, s: PerfectModelSpec(v["a"], v["b"], PerfectMode(v["mode"]), v["role_reversal"]),
    "quantum": lambda v, s: QuantumSpec(bell_phi_plus().rotated(v["rotate_a"], v["rotate_b"]), v["eta_true"]),
}
_DETECTORS: dict[str, Callable[[dict[str, Any]], DetectorModel]] = {
    "step": lambda v: StepThreshold(v["i_th"]),
    "two_threshold": lambda v: TwoThreshold(i_never=v["i_never"], i_always=v["i_always"]),
    "empirical": lambda v: _read_curve(v["curve_file"]),
}


def _settings(v: dict[str, Any]) -> MeasurementSettings:
    return MeasurementSettings.from_degrees(*(v[key] for key in CONFIG_KEYS["settings"]))


def _run_config(v: dict[str, Any]) -> RunConfig:
    """The run a parsed config describes."""
    settings = _settings(v)
    return RunConfig(
        strategy=_STRATEGIES[v["kind"]](v, settings),
        settings=settings,
        n_trials=v["trials"],
        seed=v["seed"],
        double_click_policy=DoubleClickPolicy(v["double_click_policy"]),
        detector_model=_DETECTORS[v["model"]](v),
    )


def build_run_config(
    cp: configparser.ConfigParser,
    seed_override: int | None = None,
    trials_override: int | None = None,
) -> RunConfig:
    return _run_config(parse_config(cp, seed=seed_override, trials=trials_override))


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


def print_summary(summary: RunSummary) -> None:
    print(f"strategy: {summary.strategy_label}")
    s = summary.settings
    print(f"settings: alpha0={s.alpha0} alpha1={s.alpha1} beta0={s.beta0} beta1={s.beta1}")
    seed = "-" if summary.seed is None else summary.seed
    print(
        f"trials: {summary.n_trials}  seed: {seed}  "
        f"policy: {summary.double_click_policy.value}"
    )
    print("setting       E  coincidences  doubles")
    doubles = dict(zip(SettingPair, summary.counts.doubles))
    for pair in CHSH_ORDER:
        print(
            f"{pair.label:>7}  {summary.correlations[pair]:+.6f}  "
            f"{summary.joint_counts[pair][:2, :2].sum():>12}  {doubles[pair]:>7}"
        )
    print(f"S = {summary.s_value:.6f} (SE {summary.se_s:.6f})")
    print(
        f"eta_alice = {summary.eta_alice:.6f}  eta_bob = {summary.eta_bob:.6f}  "
        f"eta_symmetric = {summary.eta_symmetric:.6f} (SE {summary.se_eta_symmetric:.6f})"
    )
    print(f"double-click trials: {summary.total_double_events}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _check_out_path(path: str) -> None:
    """Refuse, before any trial is drawn, a path that cannot become a file."""
    if "\0" in path or Path(path).is_dir() or not Path(path).parent.is_dir():
        raise ConfigError(f"cannot write {path!r}: not a file name in an existing directory")


def cmd_run(args: argparse.Namespace) -> int:
    v = parse_config(load_config(args.config), seed=args.seed, trials=args.trials, summary_csv=args.out)
    config = _run_config(v)
    out_path = v["summary_csv"]
    if out_path:
        _check_out_path(out_path)
    summary = run(config, workers=args.workers)
    print_summary(summary)
    if out_path:
        write_summary_csv(summary, out_path)
        print(f"summary written to {out_path}")
    return 0


#: Each --var: the [strategy] kind it sweeps, and the keys it replaces.
_SWEEP_FAMILY = {"p2": ("improved", "p2"), "eta": ("perfect", "a", "b"), "etarget": ("existing", "e_target")}

#: Most grid points one sweep may ask for.
_MAX_SWEEP_STEPS = 1_000_000


def _sweep_points(
    var: str, v: dict[str, Any], settings: MeasurementSettings
) -> Callable[[float], tuple[StrategySpec, Any]]:
    """The function from a grid value to its spec and closed-form prediction."""
    if var == "p2":
        # Resolve and check the trigger once; the points differ only in p2.
        trigger = ImprovedModelSpec.for_settings(0.0, settings, v["trigger_intensity"]).trigger_intensity
        return lambda x: (ImprovedModelSpec(p2=x, trigger_intensity=trigger), analytic.improved_predict(x))
    if var == "etarget":
        return lambda x: (ExistingModelSpec(e_target=x), analytic.existing_predict(x))
    mode = PerfectMode(v["mode"])
    role_reversal = v["role_reversal"]

    def point(x: float) -> tuple[StrategySpec, Any]:
        a, b, _ = analytic.ab_from_eta(x)
        return PerfectModelSpec(a, b, mode, role_reversal), analytic.perfect_predict(a, b)

    return point


def cmd_sweep(args: argparse.Namespace) -> int:
    family, *swept = _SWEEP_FAMILY[args.var]
    v = parse_config(load_config(args.config), dict.fromkeys(swept), seed=args.seed, trials=args.trials)
    settings = _settings(v)
    if not 2 <= args.steps <= _MAX_SWEEP_STEPS:
        raise ConfigError(f"--steps must lie in [2, {_MAX_SWEEP_STEPS}], got {args.steps}")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise ConfigError(f"--from and --to must be finite, got {args.start!r} and {args.stop!r}")
    if not args.start < args.stop:
        raise ConfigError(f"need --from < --to, got {args.start!r} >= {args.stop!r}")
    if v["kind"] != family:
        raise ConfigError(
            f"sweeping {args.var!r} requires [strategy] kind = {family}, config has {v['kind']!r}"
        )
    _check_workers(args.workers)
    _check_out_path(args.out)
    if not 0 <= v["seed"] <= _SEED_LIMIT - args.steps:
        raise ConfigError(f"--seed {v['seed']}, --steps {args.steps}: seeds seed + i must lie in [0, 2**64)")
    sweep_point = _sweep_points(args.var, v, settings)
    detector = _DETECTORS[v["model"]](v)
    policy = DoubleClickPolicy(v["double_click_policy"])

    rows = []
    for i, x in enumerate(np.linspace(args.start, args.stop, args.steps).tolist()):
        spec, prediction = sweep_point(x)
        # Built whether or not --mc is given, so a bad trial count fails at point 0, before any output.
        config = RunConfig(
            strategy=spec, settings=settings, n_trials=v["trials"],
            seed=v["seed"] + i, double_click_policy=policy, detector_model=detector,
        )
        row = [
            _fmt(x), _fmt(prediction.eta), _fmt(prediction.s), _fmt(gm_bound(prediction.eta)),
        ]
        if args.mc:
            summary = run(config, workers=args.workers)
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
    v = parse_config(load_config(args.config), {"kind": "perfect"})
    settings = _settings(v)
    if v["kind"] != "perfect":
        raise ConfigError(f"check-feasibility needs [strategy] kind = perfect, config has {v['kind']!r}")
    probs = control_row_probabilities(v["a"], v["b"])
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


_WORKERS_HELP = "Validated (a positive integer) but has no effect: batches run in index order in one thread"


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
    p_run.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
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
    p_sweep.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
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
