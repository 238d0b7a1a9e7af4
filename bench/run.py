"""The covertsense benchmark: closed-loop workloads of fresh CLI processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/covertsense`` must exist; the
package is taken from there, never from site-packages).  One driver process
starts one fresh covertsense child at a time and waits for it.  A
repetition runs every job of the workload once; repetitions continue until
S seconds have passed (at least two, so reruns can be compared byte for
byte).  The workload seed generates every grid value and the CLI --seed.

--trace 0 reports the end-to-end metrics, measured untraced.  --trace 1
runs one untraced and one traced repetition plus ``-X importtime`` probes
and reports the per-layer metrics, including the tracing overhead.
``--workload all`` runs every workload in turn.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.  The lines before
it give each timing's median, sample count and tail percentile,
failed_frac and wrong_frac (which are 0 on a correct run, so they are
printed there and carried by ``failed`` and ``correct`` rather than listed
as metrics), the config digest and the environment.

Nothing in covertsense waits on a queue or a lock (one process, one
thread of Python, BLAS at its default thread count), so there are no
wait metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

BUDGET_S = 165.0  # whole run, so it ends well inside 180 s
IMPORTTIME_PROBES = 3
IMPORT_METRICS = {
    "import.covertsense_ms": "covertsense",
    "import.adversary_ms": "covertsense.adversary",
    "import.metrology_ms": "covertsense.metrology",
    "import.scipy_stats_ms": "scipy.stats",
    "import.scipy_optimize_ms": "scipy.optimize",
    "import.mpmath_ms": "mpmath",
}
LAYERS = ("cli", "gaussian", "protocol", "receivers", "adversary", "metrology", "montecarlo", "fock")
END_TO_END = ("setup_s", "run_s", "wall_s", "points_per_s", "peak_rss_mb")


class BenchError(RuntimeError):
    pass


@dataclass
class Child:
    job: workloads.Job
    setup_s: float
    run_s: float
    wall_s: float
    rss_mb: float
    exit_code: int
    failed_lines: int
    output: bytes | None
    trace: dict | None


class Driver:
    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.root, self.workdir, self.deadline = root, workdir, deadline
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.reports = 0
        self.cpus = sorted(os.sched_getaffinity(0))

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        return left

    def child(self, trace: bool, mode: str, args: list[str]) -> tuple[dict | None, subprocess.CompletedProcess, float, float]:
        self.reports += 1
        report = self.workdir / f"report{self.reports}.json"
        argv = [sys.executable, str(HERE / "child.py"), str(report), "1" if trace else "0", mode, *args]
        pin = None
        if mode == "cli" and len(self.cpus) > 1:
            # Left alone, every child lands on the CPU the waiting driver
            # is not on, so runs would sample one CPU's speed drift.  The
            # CLI is single-threaded; alternating its CPU averages both.
            cpu = self.cpus[self.reports % len(self.cpus)]
            pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
        t_spawn = time.monotonic()
        proc = subprocess.run(argv, cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=self._timeout(), preexec_fn=pin)
        t_exit = time.monotonic()
        data = json.loads(report.read_text()) if report.exists() else None
        return data, proc, t_spawn, t_exit

    def run_job(self, job: workloads.Job, rep_dir: Path, trace: bool) -> Child:
        out = rep_dir / f"{job.name}.out"
        args = [*job.args, "--out", str(out)] if job.mode == "cli" else [*job.args, str(out)]
        data, proc, t_spawn, t_exit = self.child(trace, job.mode, args)
        stderr = proc.stderr.decode(errors="replace")
        failed_lines = sum(1 for line in stderr.splitlines() if line.startswith("FAILED"))
        if data is None:
            sys.stderr.write(stderr[-2000:])
            return Child(job, 0.0, 0.0, t_exit - t_spawn, 0.0, proc.returncode or 1,
                         failed_lines, None, None)
        return Child(
            job,
            setup_s=data["t_import"] - t_spawn,
            run_s=data["t_end"] - data["t_run"],
            wall_s=t_exit - t_spawn,
            rss_mb=data["maxrss_kb"] / 1024.0,
            exit_code=proc.returncode,
            failed_lines=failed_lines,
            output=out.read_bytes() if out.exists() else None,
            trace=data["trace"],
        )

    def probe(self) -> dict:
        """Warm-up child (byte-compiles, fills the file cache) that also
        records the environment."""
        data, proc, _, _ = self.child(False, "probe", [])
        if data is None or proc.returncode != 0:
            raise BenchError("covertsense does not import: " + proc.stderr.decode(errors="replace")[-2000:])
        env = data["env"]
        if not Path(env["covertsense_file"]).resolve().is_relative_to(self.root / "src"):
            raise BenchError(f"covertsense imported from {env['covertsense_file']}, not from the checkout")
        del env["covertsense_file"]
        return env

    def importtime(self, entry: str) -> dict[str, float]:
        """Median cumulative import time (ms) per module over fresh probes."""
        samples: dict[str, list[float]] = {k: [] for k in IMPORT_METRICS}
        for _ in range(IMPORTTIME_PROBES):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {entry}"],
                                  cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=self._timeout())
            cumulative = parse_importtime(proc.stderr.decode(errors="replace"))
            for key, module in IMPORT_METRICS.items():
                samples[key].append(cumulative.get(module, 0.0))
        return {k: statistics.median(v) for k, v in samples.items()}


def parse_importtime(text: str) -> dict[str, float]:
    """First cumulative time (ms) of each module in -X importtime output."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out.setdefault(parts[2].strip(), int(parts[1]) / 1000.0)
    return out


# -- statistics ---------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def describe(name: str, unit: str, values: list[float]) -> str:
    med = statistics.median(values)
    t = tail(values)
    tail_txt = f"p{t[0]:.0f}={t[1]:.6g}" if t else "p-tail n/a"
    return f"  {name:<14} {med:<14.6g} {unit:<5} median of n={len(values)}; {tail_txt}"


# -- one workload ---------------------------------------------------------------


def run_rep(driver: Driver, wl: workloads.Workload, rep: int, trace: bool) -> list[Child]:
    rep_dir = driver.workdir / f"rep{rep}"
    rep_dir.mkdir()
    return [driver.run_job(job, rep_dir, trace) for job in wl.jobs]


def evaluate(reps: list[list[Child]]) -> dict:
    """Failures, wrong rows and byte-identity over all repetitions."""
    attempted = failed = checked = wrong = 0
    problems: list[str] = []
    first: dict[str, bytes | None] = {}
    for children in reps:
        for c in children:
            attempted += c.job.points
            if c.exit_code != 0 and c.failed_lines == 0:
                failed += c.job.points
                problems.append(f"{c.job.name}: exit code {c.exit_code}")
                continue
            failed += c.failed_lines
            if c.output is None:
                problems.append(f"{c.job.name}: no output file")
                wrong += c.job.points
                checked += c.job.points
                continue
            n, found = checks.check_output(c.output.decode(), c.job, c.job.points - c.failed_lines)
            checked += n
            wrong += min(len(found), n)
            problems += found
            if c.job.name in first and first[c.job.name] != c.output:
                problems.append(f"{c.job.name}: output differs between repetitions")
                wrong += n
            first.setdefault(c.job.name, c.output)
    return {"attempted": attempted, "failed": failed, "checked": max(checked, 1),
            "wrong": wrong, "problems": problems}


def end_to_end(reps: list[list[Child]]) -> dict[str, list[float]]:
    """Per-sample end-to-end values: set-up per child, the rest per
    repetition."""
    samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
    for children in reps:
        ok = [c for c in children if c.output is not None]
        run_s = sum(c.run_s for c in children)
        samples["setup_s"] += [c.setup_s for c in ok]
        samples["run_s"].append(run_s)
        samples["wall_s"].append(sum(c.wall_s for c in children))
        points = sum(checks.rows_in(c.output.decode(), c.job) for c in ok)
        samples["points_per_s"].append(points / run_s if run_s > 0 else 0.0)
        samples["peak_rss_mb"].append(max((c.rss_mb for c in children), default=0.0))
    return samples


def per_layer(untraced: list[Child], traced: list[Child],
              imports: dict[str, float]) -> tuple[dict[str, float], dict[str, dict[str, int]]]:
    """Per-layer metrics from one traced repetition, and the error counts
    by layer and exception type."""
    spans: dict[str, dict[str, int]] = {}
    by_tag: dict[str, dict[str, list[int]]] = {}
    layer_self: dict[str, int] = {}
    errors: dict[str, dict[str, int]] = {}
    counters: dict[str, float] = {}
    span_count = 0
    for c in traced:
        t = c.trace or {}
        span_count += t.get("span_count", 0)
        for name, agg in t.get("spans", {}).items():
            cell = spans.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            for k in cell:
                cell[k] += agg[k]
        for name, tags in t.get("by_tag", {}).items():
            for tag, (calls, ns) in tags.items():
                cell = by_tag.setdefault(name, {}).setdefault(tag, [0, 0])
                cell[0] += calls
                cell[1] += ns
        for layer, ns in t.get("layer_self_ns", {}).items():
            layer_self[layer] = layer_self.get(layer, 0) + ns
        for layer, types in t.get("errors", {}).items():
            for typ, n in types.items():
                errors.setdefault(layer, {})[typ] = errors.setdefault(layer, {}).get(typ, 0) + n
        for key, val in t.get("counters", {}).items():
            counters[key] = max(counters.get(key, 0.0), val) if key == "fock.max_dim" else counters.get(key, 0.0) + val

    def calls(name):
        return float(spans.get(name, {}).get("calls", 0))

    def ms_per_call(name):
        s = spans.get(name)
        return s["total_ns"] / s["calls"] / 1e6 if s else 0.0

    def tag_ms_per_call(name, tag):
        calls_, ns = by_tag.get(name, {}).get(tag, [0, 0])
        return ns / calls_ / 1e6 if calls_ else 0.0

    def self_ms(layer):
        return layer_self.get(layer, 0) / 1e6

    traced_run_s = sum(c.run_s for c in traced)
    untraced_run_s = sum(c.run_s for c in untraced)
    shots = counters.get("montecarlo.shots", 0.0)
    pe_tests = counters.get("adversary.pe_tests", 0.0)
    cli_children = [c for c in traced if c.job.mode == "cli" and c.output is not None]
    m = dict(imports)
    m.update({
        "metrology.qfi_phase.calls": calls("metrology.qfi_phase"),
        "metrology.qfi_phase.ms_per_call.entangled": tag_ms_per_call("metrology.qfi_phase", "entangled"),
        "metrology.qfi_phase.ms_per_call.classical_thermal": tag_ms_per_call("metrology.qfi_phase", "classical_thermal"),
        "metrology.share": self_ms("metrology") / 1e3 / traced_run_s if traced_run_s else 0.0,
        "metrology.self_ms": self_ms("metrology"),
        "adversary.covertness_report.calls": calls("adversary.covertness_report"),
        "adversary.covertness_report.ms_per_call": ms_per_call("adversary.covertness_report"),
        "adversary.exact_share": counters.get("adversary.pe_tests_exact", 0.0) / pe_tests if pe_tests else 0.0,
        "adversary.solve_ns_for_epsilon.calls": calls("adversary.solve_ns_for_epsilon"),
        "adversary.solve_ns_for_epsilon.ms_per_call": ms_per_call("adversary.solve_ns_for_epsilon"),
        "adversary.self_ms": self_ms("adversary"),
        "montecarlo.simulate.calls": calls("montecarlo.simulate"),
        "montecarlo.simulate.ms_per_call": ms_per_call("montecarlo.simulate"),
        "montecarlo.shots": shots,
        "montecarlo.us_per_shot": self_ms("montecarlo") * 1e3 / shots if shots else 0.0,
        "montecarlo.self_ms": self_ms("montecarlo"),
        "receivers.receiver_stats.calls": calls("receivers.receiver_stats"),
        "receivers.receiver_stats.ms_per_call": ms_per_call("receivers.receiver_stats"),
        "receivers.self_ms": self_ms("receivers"),
        "protocol.build_receiver_input.calls": calls("protocol.build_receiver_input"),
        "protocol.build_receiver_input.ms_per_call": ms_per_call("protocol.build_receiver_input"),
        "protocol.self_ms": self_ms("protocol"),
        "gaussian.states_built": calls("gaussian.GaussianState"),
        "gaussian.self_ms": self_ms("gaussian"),
        "cli.points": float(sum(checks.rows_in(c.output.decode(), c.job) for c in cli_children)),
        "cli.output_bytes": float(sum(len(c.output) for c in cli_children)),
        "cli.write_ms": spans.get("cli._write_output", {}).get("total_ns", 0) / 1e6,
        "cli.self_ms": self_ms("cli"),
        "fock.from_gaussian.calls": calls("fock.from_gaussian"),
        "fock.from_gaussian.ms_per_call": ms_per_call("fock.from_gaussian"),
        "fock.unitary_from_symplectic.ms_per_call": ms_per_call("fock.unitary_from_symplectic"),
        "fock.kraus_ms": spans.get("fock.apply_kraus", {}).get("total_ns", 0) / 1e6,
        "fock.fock_fidelity.ms_per_call": ms_per_call("fock.fock_fidelity"),
        "fock.max_dim": counters.get("fock.max_dim", 0.0),
        "fock.self_ms": self_ms("fock"),
        "bench.self_ms": self_ms("bench"),
    })
    for layer in LAYERS:
        m[f"{layer}.errors"] = float(sum(errors.get(layer, {}).values()))
    m.update({
        "trace.spans": float(span_count),
        "trace.run_s": traced_run_s,
        "trace.untraced_run_s": untraced_run_s,
        "trace.overhead_s": traced_run_s - untraced_run_s,
        "trace.self_sum_s": sum(layer_self.values()) / 1e9,
    })
    return m, errors


def run_workload(driver: Driver, name: str, seed: int, seconds: int, trace: bool,
                 declared: dict[str, str]) -> dict:
    """Run one workload; ``declared`` maps each metric it must report to
    its unit, as listed in BENCHMARK.json."""
    wl = workloads.build(name, seed)
    workloads.write_inputs(wl, driver.workdir)
    env = driver.probe()
    print(f"workload {name} seed {seed} config sha256:{wl.digest} jobs {len(wl.jobs)} "
          f"points/rep {wl.points} trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))

    reps: list[list[Child]] = []
    if trace:
        reps.append(run_rep(driver, wl, 0, False))
        reps.append(run_rep(driver, wl, 1, True))
    else:
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            reps.append(run_rep(driver, wl, len(reps), False))
            now, last = time.monotonic(), time.monotonic() - t0
            if len(reps) >= 2 and (now - start >= seconds or driver.deadline - now < 1.5 * last):
                break
    verdict = evaluate(reps)
    for msg in verdict["problems"][:20]:
        print("WRONG " + msg)
    failed_frac = verdict["failed"] / verdict["attempted"]
    wrong_frac = verdict["wrong"] / verdict["checked"]
    correct = verdict["failed"] == 0 and verdict["wrong"] == 0 and not verdict["problems"]

    if trace:
        metrics, by_type = per_layer(reps[0], reps[1], driver.importtime(wl.entry))
        print("errors by type " + json.dumps(by_type, sort_keys=True))
        for key, val in metrics.items():
            print(f"  {key:<50} {val:<14.6g} {declared.get(key, '?')}")
    else:
        samples = end_to_end(reps)
        print(f"repetitions {len(reps)}")
        for key, values in samples.items():
            print(describe(key, declared.get(key, "?"), values))
        print(f"  {'failed_frac':<14} {failed_frac:<14.6g} {'1':<5} {verdict['failed']}/{verdict['attempted']} points")
        print(f"  {'wrong_frac':<14} {wrong_frac:<14.6g} {'1':<5} {verdict['wrong']}/{verdict['checked']} rows")
        metrics = {k: statistics.median(v) for k, v in samples.items()}
    if set(metrics) != set(declared):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    return {
        "correct": correct,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "covertsense" / "__init__.py").is_file():
        print(f"no covertsense source under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds and kills the child
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if opts.trace else "end_to_end"]}

    names = list(workloads.BUILDERS) if opts.workload == "all" else [opts.workload]
    deadline = time.monotonic() + BUDGET_S * len(names)
    results = {}
    for name in names:
        workdir = root / ".bench_work" / f"{name}-{opts.seed}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            results[name] = run_workload(Driver(root, workdir, deadline), name, opts.seed,
                                         opts.seconds, bool(opts.trace), declared)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
