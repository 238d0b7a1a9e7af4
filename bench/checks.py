"""Correctness checks on the program's outputs.

Columns are read by name, so a row may gain columns (diagnostics) or lose
ones the checks do not use (``method``, ``richardson_error``).  No output
is compared against a stored golden file; every check is a property that
must hold for any correct output:

* the number of rows equals the number of points attempted, less those
  reported as FAILED (which count as failed, not wrong);
* every numeric cell is finite, except columns expected to be NaN;
* the detection-error ladder pe_lower <= pe_exact <= 1/2 and the Pinsker
  guarantee pe_exact >= 1/2 - epsilon;
* theory_mse >= qcrb, because receiver Fisher information <= QFI;
* oracle rows agree with the Gaussian engine within criterion 7's
  tolerances (1e-5 mixed error; 1% on QFI), with trace deficit < 1e-6;
* repeated runs of one (config, seed) give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math

LADDER_TOL = 1e-12
FISHER_RTOL = 1e-9
ORACLE_TOL = {"mixed": 1e-5, "ratio": 1e-2}
DEFICIT_LIMIT = 1e-6


def parse_csv(text: str) -> list[dict[str, str]]:
    """Data rows of a covertsense CSV file (the ``#`` header skipped)."""
    body = "".join(line for line in io.StringIO(text) if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def check_columns(row: dict, required) -> str | None:
    missing = sorted(c for c in required if c not in row)
    return f"missing columns {missing}" if missing else None


def check_finite(row: dict, nan_ok=frozenset()) -> str | None:
    for col, cell in row.items():
        x = _number(cell)
        if x is None:
            continue
        if col in nan_ok:
            if not math.isnan(x):
                return f"{col}={cell} where NaN is expected"
        elif not math.isfinite(x):
            return f"{col}={cell} is not finite"
    return None


def check_ladder(row: dict) -> str | None:
    pe = _number(row.get("pe_exact"))
    if pe is None:
        return None
    if pe > 0.5 + LADDER_TOL:
        return f"pe_exact={pe} > 1/2"
    lower = _number(row.get("pe_lower"))
    if lower is not None and lower > pe + LADDER_TOL:
        return f"pe_lower={lower} > pe_exact={pe}"
    eps = _number(row.get("epsilon"))
    if eps is not None and pe < 0.5 - eps - LADDER_TOL:
        return f"pe_exact={pe} < 1/2 - epsilon={0.5 - eps} (Pinsker)"
    return None


def check_fisher(row: dict) -> str | None:
    mse, qcrb = _number(row.get("theory_mse")), _number(row.get("qcrb"))
    if mse is None or qcrb is None or not math.isfinite(qcrb):
        return None
    if mse < qcrb * (1.0 - FISHER_RTOL):
        return f"theory_mse={mse} < qcrb={qcrb}"
    return None


def oracle_error(row: dict) -> float:
    fock, gauss = row["oracle"], row["gaussian"]
    if row["metric"] == "ratio":
        return abs(gauss / fock - 1.0)
    return abs(gauss - fock) / (1.0 + abs(fock))


def check_oracle(row: dict) -> str | None:
    values = (row["oracle"], row["gaussian"], row["deficit"])
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return f"non-finite oracle row {row}"
    if row["deficit"] >= DEFICIT_LIMIT:
        return f"trace deficit {row['deficit']:.2e} >= {DEFICIT_LIMIT}"
    err, tol = oracle_error(row), ORACLE_TOL[row["metric"]]
    if not err < tol:
        return f"{row['point']} {row['quantity']}: error {err:.2e} >= {tol}"
    return None


def check_csv_rows(rows, job, expected: int | None = None) -> list[str]:
    """One message per wrong row, plus one per missing or extra row;
    ``expected`` rows (default: one per point) excludes reported failures."""
    expected = job.points if expected is None else expected
    problems = []
    for i, row in enumerate(rows):
        for check in (
            lambda r: check_columns(r, job.required),
            lambda r: check_finite(r, job.nan_ok),
            check_ladder,
            check_fisher,
        ):
            msg = check(row)
            if msg:
                problems.append(f"{job.name} row {i}: {msg}")
                break
    if len(rows) != expected:
        problems += [f"{job.name}: {len(rows)} rows, expected {expected}"] * abs(
            len(rows) - expected
        )
    return problems


def check_output(text: str, job, expected: int | None = None) -> tuple[int, list[str]]:
    """(rows checked, problems) for one job's output file, which should
    hold ``expected`` points (default: every point of the job)."""
    expected = job.points if expected is None else expected
    if job.mode == "oracle":
        doc = json.loads(text)
        rows = doc["rows"]
        problems = [f"{job.name}: {m}" for m in map(check_oracle, rows) if m]
        done = len({row["point"] for row in rows})
        if done != expected:
            problems += [f"{job.name}: {done} points, expected {expected}"] * abs(
                done - expected
            )
        return max(len(rows), 1), problems
    rows = parse_csv(text)
    return max(len(rows), expected, 1), check_csv_rows(rows, job, expected)


def rows_in(text: str, job) -> int:
    """Points completed according to one output file."""
    if job.mode == "oracle":
        return len({row["point"] for row in json.loads(text)["rows"]})
    return len(parse_csv(text))
