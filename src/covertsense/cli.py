"""Experiment runner: deterministic figure-style sweeps emitted as CSV or
JSON with a self-describing `#` header (resolved config, version, seed).

Config precedence: command-line ``--set`` overrides > ``--config`` file >
per-command defaults.  Unknown keys are rejected up front; identical
(config, seed) reruns produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import asdict
from typing import Any, Callable

import click
import numpy as np
import yaml

from . import __version__
from .adversary import covertness_report, solve_ns_for_epsilon, sqrt_law_schedule
from .metrology import qfi_phase
from .montecarlo import DEFAULT_SHOTS, simulate
from .protocol import ProtocolVariant, SensingScenario
from .receivers import ReceiverStats, stacked_receiver_stats

_SCENARIO_DEFAULTS = asdict(SensingScenario())

_COMMON_DEFAULTS: dict[str, Any] = {
    "scenario": dict(_SCENARIO_DEFAULTS),
    "shots": DEFAULT_SHOTS,
    "seed": 0,
    "variants": ["entangled", "classical_thermal"],
    "compute_qcrb": True,
}

_COMMAND_DEFAULTS: dict[str, dict[str, Any]] = {
    "fig3": {
        "theta_grid": [round(f * math.pi, 12) for f in np.linspace(0.1, 0.9, 13)],
    },
    "fig4": {
        "nb_grid": [40.0, 80.0, 160.0, 320.0, 640.0, 1280.0],
        "epsilon": 2e-4,
        "regimes": ["fixed_covertness", "fixed_power"],
        "fixed_power_ns": 8e-4,
    },
    "fig5": {
        "scenario": dict(
            _SCENARIO_DEFAULTS, kappa_T=1.0, kappa_E=0.5, N_B=1280.0
        ),
        "t_grid": [float(t) for t in np.geomspace(0.0625, 4.0, 6)],
        "sqrt_law_constant": 200.0,
        "violate_ratio": 6.25e-5,
        "compute_qcrb": False,
    },
    "qcrb": {"grid": {}},
    "covertness": {"grid": {}},
    "sweep": {"grid": {}},
}


class ConfigError(click.ClickException):
    exit_code = 2


# the ranges of the --seed and --shots flags, which the config keys share
_INT_RANGES: dict[str, tuple[int, int | None]] = {"seed": (0, 2**64 - 1), "shots": (2, None)}


def _as_float(val: Any, message: str) -> float:
    """float(val), or a ConfigError saying message.  YAML 1.1 loads
    exponent forms without a dot, like 1e-3 or 8.0e3, as strings."""
    try:
        return float(val)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{message}, got {val!r}") from exc


def _checked_value(where: str, default: Any, val: Any) -> Any:
    """val for a key whose default is default, in the default's type: a
    bool takes a bool; seed and shots take an int in their flag's range; a
    float takes an int or a float unchanged, or a numeric string as its
    float; a list or a mapping takes one of the same shape."""
    if isinstance(default, bool):
        if not isinstance(val, bool):
            raise ConfigError(f"{where} must be true or false, got {val!r}")
    elif isinstance(default, int):
        lo, hi = _INT_RANGES[where]
        if isinstance(val, bool) or not isinstance(val, int) or val < lo or (
            hi is not None and val > hi
        ):
            bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ConfigError(f"{where} must be an integer {bounds}, got {val!r}")
    elif isinstance(default, float):
        if isinstance(val, str):
            return _as_float(val, f"{where} must be a number")
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{where} must be a number, got {val!r}")
    else:
        for shape, name in ((list, "a list"), (dict, "a mapping")):
            if isinstance(default, shape) and not isinstance(val, shape):
                raise ConfigError(f"{where} must be {name}")
    return val


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    """Merge override into base, rejecting keys absent from base and values
    whose type does not fit the default (the defaults tree doubles as the
    schema; see _checked_value).  A grid replaces its default whole: its
    keys are checked when the grid is expanded."""
    out = dict(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        val = _checked_value(where, base[key], val)
        if isinstance(base[key], dict) and key != "grid":
            out[key] = _deep_merge(base[key], val, where)
        else:
            out[key] = val
    return out


def _parse_sets(pairs: tuple[str, ...]) -> dict:
    """Turn repeated --set a.b=val flags into a nested override dict."""
    tree: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set needs KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        node = tree
        parts = key.strip().split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = yaml.safe_load(raw)
    return tree


def _resolve_config(
    command: str,
    config_path: str | None,
    sets: tuple[str, ...],
    seed: int | None,
    shots: int | None,
) -> dict:
    merged = {**_COMMON_DEFAULTS, **_COMMAND_DEFAULTS[command]}
    if config_path is not None:
        with open(config_path) as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a mapping")
        merged = _deep_merge(merged, loaded)
    merged = _deep_merge(merged, _parse_sets(sets))
    if seed is not None:
        merged["seed"] = seed
    if shots is not None:
        merged["shots"] = shots
    _scenario_of(merged)  # validate eagerly
    return merged


def _scenario_of(config: dict, **overrides) -> SensingScenario:
    try:
        return SensingScenario(**{**config["scenario"], **overrides})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc


def _variants_of(config: dict) -> list[ProtocolVariant]:
    try:
        return [ProtocolVariant(v) for v in config["variants"]]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _run_points(
    points: list[tuple[str, Callable[[], dict]]]
) -> tuple[list[dict], list[tuple[str, str]]]:
    """Evaluate labelled point thunks in order; a point that raises is
    recorded as a failure and the rest still run."""
    rows: list[dict] = []
    failures: list[tuple[str, str]] = []
    for label, thunk in points:
        try:
            rows.append(thunk())
        except Exception as exc:  # noqa: BLE001 - enumerate, don't abort the sweep
            failures.append((label, str(exc) or type(exc).__name__))
    return rows, failures


def _write_output(
    command: str, config: dict, rows: list[dict], out: str, fmt: str
) -> None:
    with click.open_file(out, "w") as fh:
        if fmt == "json":
            json.dump(
                {
                    "tool": "covertsense",
                    "version": __version__,
                    "command": command,
                    "config": config,
                    "rows": rows,
                },
                fh,
                sort_keys=True,
                indent=2,
            )
            fh.write("\n")
            return
        fh.write(f"# covertsense {__version__} {command}\n")
        fh.write(f"# seed: {config['seed']}\n")
        fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
        if not rows:
            return
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _finish(command: str, config: dict, points: list, out: str, fmt: str) -> None:
    """Run the points, write the rows that succeeded, report the rest on
    stderr and exit 1 if any point failed."""
    rows, failures = _run_points(points)
    _write_output(command, config, rows, out, fmt)
    if failures:
        for label, err in failures:
            click.echo(f"FAILED {label}: {err}", err=True)
        sys.exit(1)


def _mc_row(config: dict, case: tuple[SensingScenario, dict] | Exception,
            stats: ReceiverStats | Exception, variant: ProtocolVariant,
            point_index: int) -> dict:
    if isinstance(case, Exception):
        raise case
    scenario, extra = case
    if isinstance(stats, Exception):
        raise stats
    res = simulate(stats, shots=config["shots"], seed=config["seed"], point_index=point_index)
    return {
        **extra,
        "variant": variant.value,
        "theta": scenario.theta,
        "N_S": scenario.N_S,
        "N_B": scenario.N_B,
        "M": scenario.M,
        "mse_cos": res.mse_cos,
        "mse_theta": res.mse_theta,
        "theory_mse_cos": stats.var_cos,
        "theory_mse": stats.var_theta,
        "qcrb": qfi_phase(scenario, variant).qcrb_var if config["compute_qcrb"] else math.nan,
        "seed": config["seed"],
        "rms_cos": math.sqrt(res.mse_cos),
        "rms_theta": math.sqrt(res.mse_theta),
        "stderr": res.stderr,
    }


def _mc_points(
    config: dict, cases: list[tuple[str, Callable[[], tuple[SensingScenario, dict]]]]
) -> list[tuple[str, Callable[[], dict]]]:
    """One Monte Carlo point per (case, variant), in that order.  A case is
    (label, build), where build() returns the scenario and the row's extra
    columns.  Every case is built first; then one stacked call per variant
    gives the receiver statistics of every built case.  A case whose build
    raises fails only its own points, each with that error, and a point
    whose statistics fail fails alone with theirs.  A point's position is
    its point index, which keys its RNG stream."""
    variants = _variants_of(config)
    built: list[tuple[SensingScenario, dict] | Exception] = []
    for _, build in cases:
        try:
            built.append(build())
        except Exception as exc:  # noqa: BLE001 - raised again by each of the case's points
            built.append(exc)
    scenarios = [case[0] for case in built if not isinstance(case, Exception)]
    stats = [iter(stacked_receiver_stats(scenarios, variant)) for variant in variants]
    points = []
    for (label, _), case in zip(cases, built):
        for variant, variant_stats in zip(variants, stats):
            # a case that failed to build has no statistics: its error stands in
            point_stats = case if isinstance(case, Exception) else next(variant_stats)
            i = len(points)
            points.append((f"{label} variant={variant.value}",
                           lambda case=case, s=point_stats, v=variant, i=i:
                           _mc_row(config, case, s, v, i)))
    return points


_common_options = [
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="YAML config file."),
    click.option("--set", "sets", multiple=True, metavar="KEY=VAL", help="Override a config key (repeatable, dotted paths)."),
    click.option("--seed", type=click.IntRange(*_INT_RANGES["seed"]), default=None, help="RNG seed."),
    click.option("--shots", type=click.IntRange(*_INT_RANGES["shots"]), default=None, help="Monte Carlo shots per point."),
    click.option("--out", default="-", show_default=True, help="Output path ('-' for stdout)."),
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True),
]


def _with_common(fn):
    for opt in reversed(_common_options):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Covert-sensing experiment runner (deterministic, seeded)."""


@main.command()
@_with_common
def fig3(config_path, sets, seed, shots, out, fmt) -> None:
    """Phase estimation vs theta for both protocol variants."""
    config = _resolve_config("fig3", config_path, sets, seed, shots)
    cases = [
        (f"theta={theta:g}", lambda sc=_scenario_of(config, theta=float(theta)): (sc, {}))
        for theta in config["theta_grid"]
    ]
    _finish("fig3", config, _mc_points(config, cases), out, fmt)


@main.command()
@_with_common
def fig4(config_path, sets, seed, shots, out, fmt) -> None:
    """MSE vs background brightness in fixed-covertness and fixed-power regimes."""
    config = _resolve_config("fig4", config_path, sets, seed, shots)
    cases = []
    for regime in config["regimes"]:
        if regime not in ("fixed_covertness", "fixed_power"):
            raise ConfigError(f"unknown regime {regime!r}")
        for n_b in config["nb_grid"]:
            def build(base=_scenario_of(config, N_B=float(n_b)), regime=regime):
                if regime == "fixed_covertness":
                    n_s = solve_ns_for_epsilon(config["epsilon"], base)
                else:
                    n_s = config["fixed_power_ns"]
                sc = base.with_(N_S=float(n_s))
                rep = covertness_report(sc)
                return sc, {"regime": regime, "epsilon": rep.epsilon, "pe_exact": rep.pe_exact}
            cases.append((f"regime={regime} N_B={n_b:g}", build))
    _finish("fig4", config, _mc_points(config, cases), out, fmt)


@main.command()
@_with_common
def fig5(config_path, sets, seed, shots, out, fmt) -> None:
    """Square-root-law test: adversary error probability and MSE vs time."""
    config = _resolve_config("fig5", config_path, sets, seed, shots)
    base = _scenario_of(config)
    t_grid = [float(t) for t in config["t_grid"]]
    obey = sqrt_law_schedule(config["sqrt_law_constant"], t_grid, base)
    violate_ns = config["violate_ratio"] * base.N_B / base.kappa
    violate = [base.with_(T=t, N_S=violate_ns) for t in t_grid]
    cases = []
    for schedule, scenarios in (("obey", obey), ("violate", violate)):
        for sc in scenarios:
            def build(sc=sc, schedule=schedule):
                rep = covertness_report(sc)
                return sc, {
                    "schedule": schedule,
                    "T": sc.T,
                    "epsilon": rep.epsilon,
                    "pe_lower": rep.pe_lower,
                    "pe_exact": rep.pe_exact,
                    "method": rep.method,
                }
            cases.append((f"schedule={schedule} T={sc.T:g}", build))
    _finish("fig5", config, _mc_points(config, cases), out, fmt)


def _grid_scenarios(config: dict) -> list[tuple[str, SensingScenario]]:
    """Cartesian product over scenario-field value lists in config['grid']."""
    grid: dict = config["grid"]
    for key in grid:
        if key not in _SCENARIO_DEFAULTS:
            raise ConfigError(f"grid key {key!r} is not a scenario field")
    items = [
        (k, [_as_float(v, "grid values must be numbers")
             for v in (v if isinstance(v, (list, tuple)) else [v])])
        for k, v in sorted(grid.items())
    ]
    combos: list[dict] = [{}]
    for key, values in items:
        combos = [{**c, key: v} for c in combos for v in values]
    out = []
    for combo in combos:
        label = " ".join(f"{k}={v:g}" for k, v in combo.items()) or "default"
        out.append((label, _scenario_of(config, **combo)))
    return out


@main.command()
@_with_common
def qcrb(config_path, sets, seed, shots, out, fmt) -> None:
    """Quantum Fisher information and Cramer-Rao bound over a scenario grid."""
    config = _resolve_config("qcrb", config_path, sets, seed, shots)
    variants = _variants_of(config)
    points = []
    for label, sc in _grid_scenarios(config):
        for variant in variants:
            def thunk(sc=sc, v=variant):
                res = qfi_phase(sc, v)
                return {
                    "variant": v.value,
                    "theta": sc.theta,
                    "N_S": sc.N_S,
                    "N_B": sc.N_B,
                    "M": sc.M,
                    "J": res.J,
                    "qcrb": res.qcrb_var,
                    "richardson_error": res.richardson_error,
                }
            points.append((f"{label} variant={variant.value}", thunk))
    _finish("qcrb", config, points, out, fmt)


@main.command()
@_with_common
def covertness(config_path, sets, seed, shots, out, fmt) -> None:
    """Adversary detection bounds over a scenario grid."""
    config = _resolve_config("covertness", config_path, sets, seed, shots)
    # vars(): the fields in order, without asdict's deep copy (1/6 of a report's cost)
    points = [
        (label, (lambda sc=sc: vars(covertness_report(sc))))
        for label, sc in _grid_scenarios(config)
    ]
    _finish("covertness", config, points, out, fmt)


@main.command()
@_with_common
def sweep(config_path, sets, seed, shots, out, fmt) -> None:
    """Monte Carlo estimation sweep over an arbitrary scenario grid."""
    config = _resolve_config("sweep", config_path, sets, seed, shots)
    cases = []
    for label, sc in _grid_scenarios(config):
        def build(sc=sc):
            rep = covertness_report(sc)
            return sc, {"epsilon": rep.epsilon, "pe_exact": rep.pe_exact}
        cases.append((label, build))
    _finish("sweep", config, _mc_points(config, cases), out, fmt)


if __name__ == "__main__":
    main()
