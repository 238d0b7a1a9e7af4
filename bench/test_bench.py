"""Tests of the benchmark's own machinery: span arithmetic, the tracer's
installation, every correctness check, and seed-to-config determinism.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import math
import sys
import types

import pytest

import checks
import run
import tracer
import workloads


# -- span arithmetic ------------------------------------------------------------


def test_self_time_is_duration_minus_direct_children():
    # root [0, 100] > a [10, 40] > a1 [15, 25];  root > b [50, 90]
    names = ["x.root", "y.a", "z.a1", "y.b"]
    parents = [-1, 0, 1, 0]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    out = tracer.summarize(names, parents, starts, ends)
    assert out["x.root"] == {"calls": 1, "total_ns": 100, "self_ns": 30}
    assert out["y.a"] == {"calls": 1, "total_ns": 30, "self_ns": 20}
    assert out["z.a1"] == {"calls": 1, "total_ns": 10, "self_ns": 10}
    assert out["y.b"] == {"calls": 1, "total_ns": 40, "self_ns": 40}
    assert sum(agg["self_ns"] for agg in out.values()) == 100


def test_self_time_aggregates_repeated_names():
    names = ["m.f", "m.g", "m.g"]
    out = tracer.summarize(names, [-1, 0, 0], [0, 1, 5], [10, 3, 9])
    assert out["m.g"] == {"calls": 2, "total_ns": 6, "self_ns": 6}
    assert out["m.f"]["self_ns"] == 4


@pytest.fixture
def fake_package(monkeypatch):
    """pkg.low defines functions; pkg.high imports one of them by name."""
    pkg = types.ModuleType("pkg")
    low = types.ModuleType("pkg.low")
    high = types.ModuleType("pkg.high")

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    def _private(x):
        return leaf(x)

    def top(x):
        return high.leaf(x) * 2

    leaf.__module__ = _private.__module__ = "pkg.low"
    top.__module__ = "pkg.high"
    low.leaf, low._private = leaf, _private
    high.leaf, high.top = leaf, top
    pkg.leaf = leaf
    for mod in (pkg, low, high):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg, low, high


def test_tracer_wraps_every_imported_name_and_counts_errors_once(fake_package):
    pkg, low, high = fake_package
    t = tracer.Tracer()
    t.install("pkg")
    assert low.leaf is high.leaf is pkg.leaf  # one wrapper under every name
    assert low._private.__name__ == "_private" and low._private is not low.leaf

    assert t.span("cli", "cli.main", high.top, 1) == 4
    with pytest.raises(ValueError):
        high.top(-1)  # escapes leaf, then top: counted once, in leaf's layer
    s = t.summary()
    assert s["spans"]["low.leaf"]["calls"] == 2
    assert s["spans"]["high.top"]["calls"] == 2
    assert "low._private" not in s["spans"]
    assert s["errors"] == {"low": {"ValueError": 1}}
    root = s["spans"]["cli.main"]
    assert sum(s["layer_self_ns"].values()) >= root["total_ns"]
    assert s["layer_self_ns"]["cli"] == root["self_ns"]


# -- correctness checks ---------------------------------------------------------

GOOD = {"variant": "entangled", "method": "exact_threshold", "epsilon": "0.01",
        "pe_lower": "0.45", "pe_exact": "0.49", "theory_mse": "2.0", "qcrb": "1.5",
        "mse_cos": "0.3"}
JOB = workloads.Job("j", "cli", (), 3, frozenset({"epsilon", "pe_lower", "pe_exact"}),
                    frozenset())


def _csv(rows):
    cols = list(rows[0])
    lines = ["# covertsense 0.1.0 covertness", ",".join(cols)]
    lines += [",".join(r[c] for c in cols) for r in rows]
    return "\n".join(lines) + "\n"


def test_clean_rows_pass_and_tolerate_column_changes():
    assert checks.check_csv_rows([GOOD] * 3, JOB) == []
    renamed = {k: v for k, v in GOOD.items() if k != "method"}
    renamed["clamp_fraction"] = "0.0"
    assert checks.check_csv_rows([renamed] * 3, JOB) == []
    assert checks.check_output(_csv([GOOD] * 3), JOB) == (3, [])


@pytest.mark.parametrize("field,value,expect", [
    ("pe_exact", "0.6", "> 1/2"),
    ("pe_lower", "0.495", "pe_lower"),
    ("pe_exact", "0.46", "Pinsker"),
    ("qcrb", "2.5", "theory_mse"),
    ("mse_cos", "nan", "not finite"),
    ("epsilon", "inf", "not finite"),
])
def test_each_check_catches_a_corrupted_row(field, value, expect):
    rows = [dict(GOOD), dict(GOOD, **{field: value}), dict(GOOD)]
    problems = checks.check_csv_rows(rows, JOB)
    assert len(problems) == 1 and "row 1" in problems[0] and expect in problems[0]


def test_missing_column_nan_expectation_and_row_count():
    no_pe = {k: v for k, v in GOOD.items() if k != "pe_lower"}
    assert "missing" in checks.check_csv_rows([GOOD, no_pe, GOOD], JOB)[0]
    job = workloads.Job("j", "cli", (), 3, frozenset(), frozenset({"qcrb"}))
    assert "NaN is expected" in checks.check_csv_rows([GOOD] * 3, job)[0]
    assert checks.check_csv_rows([dict(GOOD, qcrb="nan")] * 3, job) == []
    assert len(checks.check_csv_rows([GOOD] * 2, JOB)) == 1


def test_oracle_rows_checked_against_tolerances():
    row = {"point": "0:pcr", "quantity": "mean_diff", "oracle": 1.0, "gaussian": 1.0 + 1e-6,
           "deficit": 1e-9, "metric": "mixed"}
    assert checks.check_oracle(row) is None
    assert "error" in checks.check_oracle(dict(row, gaussian=1.0 + 1e-4))
    assert "deficit" in checks.check_oracle(dict(row, deficit=1e-5))
    assert "non-finite" in checks.check_oracle(dict(row, oracle=math.nan))
    qfi = dict(row, metric="ratio", oracle=10.0, gaussian=10.05)
    assert checks.check_oracle(qfi) is None
    assert "error" in checks.check_oracle(dict(qfi, gaussian=10.2))


def _child(job, output):
    return run.Child(job, 1.0, 1.0, 2.0, 50.0, 0, 0, output, None)


def test_byte_identity_across_repetitions():
    text = _csv([GOOD] * 3).encode()
    same = run.evaluate([[_child(JOB, text)], [_child(JOB, text)]])
    assert same["wrong"] == 0 and same["problems"] == []
    flipped = text.replace(b",0.3", b",0.4", 1)
    differ = run.evaluate([[_child(JOB, text)], [_child(JOB, flipped)]])
    assert differ["wrong"] == 3 and "differs" in differ["problems"][0]


def test_failed_points_and_crashed_children_count_as_failed():
    text = _csv([GOOD] * 3).encode()
    failing = run.Child(JOB, 1.0, 1.0, 2.0, 50.0, 1, 2, text, None)
    crashed = run.Child(JOB, 0.0, 0.0, 2.0, 0.0, 1, 0, None, None)
    verdict = run.evaluate([[failing, crashed]])
    assert verdict["attempted"] == 6 and verdict["failed"] == 2 + 3
    # two reported failures leave one row expected, not three
    assert verdict["problems"][0] == "j: 3 rows, expected 1"


# -- seeded inputs --------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_seed_to_config_is_deterministic(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a.files == b.files and a.jobs == b.jobs and a.digest == b.digest
    c = workloads.build(name, 8)
    assert c.digest != a.digest
    assert c.points == a.points  # the seed moves values, never the size


def test_strata_cover_the_range_once_each():
    import random

    vals = workloads.strata(random.Random(0), 8, 1e-5, 1e-1, log=True)
    edges = [10.0 ** (-5 + 4 * i / 8) for i in range(9)]
    assert all(edges[i] <= v <= edges[i + 1] for i, v in enumerate(vals))


# -- reporting helpers ----------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail(list(range(10))) is None
    pct, val = run.tail([float(i) for i in range(1, 41)])
    assert val == 30.0 and pct == 75.0


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |   scipy.stats\n"
        "import time:       500 |     971960 | covertsense.adversary\n"
    )
    assert run.parse_importtime(text) == {"scipy.stats": 0.12, "covertsense.adversary": 971.96}
