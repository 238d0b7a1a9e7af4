"""Seeded workload generation.

Each workload is a list of jobs, one fresh covertsense child each, run one
after another by a single closed-loop driver.  Grid values are drawn from
the workload seed by stratified sampling (one uniform draw inside each of
n equal strata of a range), so every seed covers each range evenly and the
mix of code paths, and therefore the amount of work, barely moves with the
seed.  The program only ever sees the generated config files and flags.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

FIG_ROWS = {"fig3": 13 * 2, "fig4": 2 * 6 * 2, "fig5": 2 * 6 * 2}
W = 1e9  # SensingScenario default bandwidth; M = round(W * T)


@dataclass(frozen=True)
class Job:
    """One child process: a CLI command or one oracle pass."""

    name: str
    mode: str  # "cli" or "oracle"
    args: tuple[str, ...]  # child arguments before the output path
    points: int  # grid or oracle points attempted
    required: frozenset[str] = frozenset()  # columns every row must have
    nan_ok: frozenset[str] = frozenset()  # columns expected to be NaN


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # module whose import ends set-up
    jobs: tuple[Job, ...]
    digest: str
    files: dict[str, str]  # input file name -> text

    @property
    def points(self) -> int:
        return sum(job.points for job in self.jobs)


def strata(rng: random.Random, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """n values, one drawn uniformly inside each of n equal strata of
    [lo, hi] (of log10 [lo, hi] when log is set), in increasing order."""
    a, b = (math.log10(lo), math.log10(hi)) if log else (lo, hi)
    out = [a + (i + rng.random()) / n * (b - a) for i in range(n)]
    return [10.0**x if log else x for x in out]


def _cli_job(name, command, config_name, cli_seed, points, required, nan_ok=()):
    args = [command]
    if config_name is not None:
        args += ["--config", config_name]
    args += ["--seed", str(cli_seed), "--shots", "2000", "--format", "csv"]
    return Job(name, "cli", tuple(args), points, frozenset(required), frozenset(nan_ok))


def _figures(rng, files):
    cli_seed = rng.getrandbits(32)
    return (
        _cli_job("fig3", "fig3", None, cli_seed, FIG_ROWS["fig3"], {"theory_mse", "qcrb"}),
        _cli_job("fig4", "fig4", None, cli_seed, FIG_ROWS["fig4"],
                 {"epsilon", "pe_exact", "theory_mse", "qcrb"}),
        _cli_job("fig5", "fig5", None, cli_seed, FIG_ROWS["fig5"],
                 {"epsilon", "pe_lower", "pe_exact"}, {"qcrb"}),
    )


def _design_sweep(rng, files, chunks=2):
    cli_seed = rng.getrandbits(32)
    n_b = strata(rng, 4 * chunks, 20.0, 1280.0, log=True)
    grid = {
        "N_S": strata(rng, 4, 1e-4, 1e-2, log=True),
        "theta": [f * math.pi for f in strata(rng, 4, 0.1, 0.9)],
        "G_pc": strata(rng, 2, 1.02, 1.3),
        "kappa_I": strata(rng, 2, 0.5, 1.0),
    }
    jobs = []
    for k in range(chunks):
        part = dict(grid, N_B=n_b[4 * k: 4 * k + 4])
        name = f"sweep{k}.yaml"
        files[name] = yaml.safe_dump({"compute_qcrb": False, "grid": part})
        points = math.prod(len(v) for v in part.values()) * 2  # two variants
        jobs.append(_cli_job(f"sweep{k}", "sweep", name, cli_seed, points,
                             {"epsilon", "pe_exact", "mse_cos", "theory_mse"}, {"qcrb"}))
    return tuple(jobs)


def _bounds_scan(rng, files, chunks=3):
    cli_seed = rng.getrandbits(32)
    n_s = strata(rng, 16 * chunks, 1e-5, 1e-1, log=True)
    grid = {
        "T": [m / W for m in strata(rng, 16, 1e3, 4e9, log=True)],
        "N_B": strata(rng, 16, 0.1, 1280.0, log=True),
    }
    jobs = []
    for k in range(chunks):
        part = dict(grid, N_S=n_s[16 * k: 16 * k + 16])
        name = f"covertness{k}.yaml"
        files[name] = yaml.safe_dump({"grid": part})
        points = math.prod(len(v) for v in part.values())
        jobs.append(_cli_job(f"covertness{k}", "covertness", name, cli_seed, points,
                             {"epsilon", "pe_lower", "pe_exact"}))
    return tuple(jobs)


def _oracle_points(rng):
    """Desk-scale points in the ranges criterion 7 validates, one fixed mix
    of kinds per seed (the seed moves values, never the mix)."""
    u = rng.uniform
    pcr = {"kind": "pcr", "cutoffs": [18, 10, 12], "scenario": {
        "N_S": u(0.02, 0.12), "N_B": u(0.1, 0.4), "kappa_T": 1.0, "kappa_E": u(0.4, 0.9),
        "kappa_I": u(0.7, 1.0), "theta": u(0.3, 2.8), "G_pc": u(1.05, 1.15)}}
    hr = {"kind": "hr", "cutoffs": [26, 26], "scenario": {
        "N_S": u(0.02, 0.12), "N_B": u(0.1, 0.5), "kappa_T": 1.0, "kappa_E": u(0.4, 0.9),
        "kappa_I": u(0.7, 1.0), "theta": u(0.3, 2.8), "N_R": u(0.5, 1.0)}}
    qfi = {"kind": "qfi", "cutoffs": [20, 14], "steps": [2e-2, 1e-2], "scenario": {
        "N_S": u(0.1, 0.2), "N_B": u(0.15, 0.3), "kappa_T": 1.0, "kappa_E": u(0.6, 0.8),
        "kappa_I": u(0.85, 0.95), "theta": u(0.6, 1.2)}}
    fid_tmsv = {"kind": "fid_tmsv", "cutoffs": [20, 20], "n_s": u(0.05, 0.3), "phase": u(0.1, 1.0)}
    fid_thermal = {"kind": "fid_thermal", "cutoffs": [45], "n_a": u(0.05, 1.0), "n_b": u(0.05, 1.0)}
    loss = {"kind": "thermal_loss", "cutoffs": [30], "n": u(0.05, 1.2), "kappa": u(0.3, 0.95),
            "n_b": u(0.0, 0.5)}
    rel = {"kind": "rel_entropy", "cutoffs": [60], "n_a": u(0.1, 1.2), "n_b": u(0.1, 1.2)}
    return [pcr, qfi, loss, rel], [hr, fid_tmsv, fid_thermal]


def _oracle_check(rng, files):
    jobs = []
    for k, points in enumerate(_oracle_points(rng)):
        name = f"oracle{k}.json"
        files[name] = json.dumps(points, sort_keys=True, indent=1)
        jobs.append(Job(f"oracle{k}", "oracle", (name,), len(points)))
    return tuple(jobs)


BUILDERS = {
    "figures": ("covertsense.cli", _figures),
    "design_sweep": ("covertsense.cli", _design_sweep),
    "bounds_scan": ("covertsense.cli", _bounds_scan),
    "oracle_check": ("covertsense.fock", _oracle_check),
}


def build(name: str, seed: int) -> Workload:
    """The workload's jobs and input files, a pure function of (name, seed)."""
    entry, builder = BUILDERS[name]
    rng = random.Random(f"covertsense-bench/{name}/{seed}")
    files: dict[str, str] = {}
    jobs = builder(rng, files)
    blob = json.dumps(
        {"workload": name, "jobs": [job.args for job in jobs], "files": files},
        sort_keys=True,
    )
    digest = hashlib.sha256(blob.encode()).hexdigest()
    return Workload(name, entry, jobs, digest, files)


def write_inputs(workload: Workload, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in workload.files.items():
        (directory / name).write_text(text)
