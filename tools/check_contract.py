"""Check that two source trees write byte-identical benchmark outputs.

    python3 tools/check_contract.py PARENT_TREE CHANGE_TREE

Every job of the ``figures``, ``design_sweep``, ``bounds_scan`` and
``oracle_check`` workloads, at seeds 1 and 7, is run once from each tree
through that tree's own ``bench/child.py``, with ``PYTHONPATH`` set to the
tree's ``src``.  The jobs and input files come from each tree's
``bench/workloads.py`` (``workloads.build(name, seed).jobs``).  One line
per output file says SAME or DIFF.

A fixed list of CLI invocations (``EDGE_INVOCATIONS``: a zero
background; a zero background over T = 1 s, once with M n1 ~ 2.3e4 on
Willie's exact count and once at N_S = 0.1, M n1 ~ 2.9e6, past its CLT
switch-over; a zero probe; a time grid below one mode; ``qcrb`` at its
defaults; ``qcrb`` over a grid from N_B = 1e-3 to 1280; two ``sweep``
grids whose stacked receiver call fails and is retried one scenario at a
time, one at N_B = 1e308, where the eigensolver fails on a non-finite
slice, and one at kappa_T = kappa_E = 1e-200, where the thermal-loss gate
rejects kappa = 0.0 next to a point with a zero calibration; and a
``sweep`` over theta = 0, pi and 1 written as JSON, where sin(theta) = 0
makes the delta-method ``theory_mse`` infinite; and ``fig4``'s
fixed-covertness regime at epsilon = 0.01 over N_B from 0.1 to 1e5, whose
probe-brightness root search converges at four points and finds the
target unreachable below the N_S cap at two) is also run from each
tree with ``python -m covertsense.cli``.  These may fail by design, so
each gets one SAME or DIFF line over four things: the exit code, the
output file's bytes (or its absence), the ``FAILED ...`` lines on
stderr, and the last stderr line.
Whole tracebacks are not compared, since they hold the tree's paths.

The exit code is 1 if any file or edge invocation differs or any workload
job exits nonzero, and 0 otherwise.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("figures", "design_sweep", "bounds_scan", "oracle_check")
SEEDS = (1, 7)
EDGE_INVOCATIONS = (
    ("covertness", "--set", "grid.N_B=[0,160]"),
    ("sweep", "--set", "grid.N_B=[0,160]"),
    ("covertness", "--set", "scenario.N_B=0", "--set", "scenario.T=1"),
    ("covertness", "--set", "scenario.N_B=0", "--set", "scenario.T=1", "--set", "scenario.N_S=0.1"),
    ("covertness", "--set", "grid.N_S=[0,1e-3]"),
    ("qcrb",),
    ("qcrb", "--set", 'grid={"N_B":[0.001,0.01,40,1280],"theta":[0.3,2.5],"N_S":[1e-4,0.1]}'),
    ("fig5", "--set", "t_grid=[1e-12,0.0625]"),
    ("sweep", "--set", "grid.N_B=[1.0e+308,160]"),
    ("sweep", "--set", "grid.kappa_T=[1e-200,0.5]", "--set", "grid.kappa_E=[1e-200]"),
    ("sweep", "--set", "grid.theta=[0,3.141592653589793,1]", "--format", "json"),
    ("fig4", "--set", "nb_grid=[0.1,2,30,400,5000,100000]", "--set", "epsilon=0.01",
     "--set", "regimes=[fixed_covertness]"),
)
EDGE_PARTS = ("exit code", "output bytes", "FAILED lines", "last stderr line")


def _workloads_module(tree: Path, side: str):
    path = tree / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location(f"workloads_{side}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def run_tree(tree: Path, side: str, workdir: Path) -> tuple[dict[str, bytes | None], list[str]]:
    """Run every contract job from one tree; returns {file key: bytes} and
    a description of each job that exited nonzero."""
    workloads = _workloads_module(tree, side)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    outputs: dict[str, bytes | None] = {}
    errors: list[str] = []
    for name in WORKLOADS:
        for seed in SEEDS:
            wl = workloads.build(name, seed)
            jobdir = workdir / f"{name}-{seed}"
            workloads.write_inputs(wl, jobdir)
            for job in wl.jobs:
                out = jobdir / f"{job.name}.out"
                args = [*job.args, "--out", str(out)] if job.mode == "cli" else [*job.args, str(out)]
                argv = [sys.executable, str(tree / "bench" / "child.py"),
                        str(jobdir / f"{job.name}.report.json"), "0", job.mode, *args]
                proc = subprocess.run(argv, cwd=jobdir, env=env, stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                key = f"{name} seed={seed} {job.name}"
                if proc.returncode != 0:
                    tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
                    errors.append(f"{key}: exit {proc.returncode} {' '.join(tail)}")
                outputs[key] = out.read_bytes() if out.exists() else None
    return outputs, errors


def run_edges(tree: Path, workdir: Path) -> dict[str, tuple]:
    """Run every edge invocation from one tree; returns {invocation: the
    EDGE_PARTS values}."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    workdir.mkdir(parents=True)
    results = {}
    for i, args in enumerate(EDGE_INVOCATIONS):
        out = workdir / f"edge{i}.out"
        proc = subprocess.run([sys.executable, "-m", "covertsense.cli", *args, "--out", str(out)],
                              cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        lines = proc.stderr.decode(errors="replace").splitlines()
        results[" ".join(args)] = (
            proc.returncode,
            out.read_bytes() if out.exists() else None,
            [line for line in lines if line.startswith("FAILED ")],
            lines[-1] if lines else "",
        )
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: check_contract.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as tmp:
        before, errors_before = run_tree(parent, "parent", Path(tmp) / "parent")
        after, errors_after = run_tree(change, "change", Path(tmp) / "change")
        edges_before = run_edges(parent, Path(tmp) / "parent-edges")
        edges_after = run_edges(change, Path(tmp) / "change-edges")
    diff = 0
    for key in sorted(before.keys() | after.keys()):
        a, b = before.get(key), after.get(key)
        same = a is not None and a == b
        diff += not same
        print(f"{'SAME' if same else 'DIFF'} {key}")
    for key, a in edges_before.items():
        differ = [part for part, x, y in zip(EDGE_PARTS, a, edges_after[key]) if x != y]
        diff += bool(differ)
        print(f"DIFF edge {key}: {', '.join(differ)}" if differ else f"SAME edge {key}")
    for side, errors in (("parent", errors_before), ("change", errors_after)):
        for err in errors:
            print(f"ERROR {side} {err}")
    checked = len(before.keys() | after.keys()) + len(edges_before)
    print(f"{checked - diff} SAME, {diff} DIFF, "
          f"{len(errors_before) + len(errors_after)} job errors")
    return 1 if diff or errors_before or errors_after else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
