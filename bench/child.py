"""One fresh covertsense process, started and awaited by run.py.

    python3 child.py REPORT TRACE cli ARGS... --out FILE
    python3 child.py REPORT TRACE oracle POINTS FILE
    python3 child.py REPORT 0 probe

Set-up ends when the entry module is imported; the run then covers the
CLI command (or oracle pass) up to the output file closing.  Timestamps
use the system-wide monotonic clock, so run.py can subtract its own spawn
time.  With TRACE=1 the tracer wraps every loaded covertsense layer after
set-up and the command runs inside a root span.  The report is one JSON
file; stdout and stderr stay the program's own.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _version(dist: str) -> str | None:
    from importlib import metadata

    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _environment() -> dict:
    import ctypes
    import platform

    import covertsense

    blas_threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads,
        "cpu": cpu,
        "covertsense_file": covertsense.__file__,
    }


def _run_cli(args):
    from covertsense import cli

    try:
        cli.main(args=list(args), prog_name="covertsense")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return 0


def main(argv) -> int:
    report_path, trace, mode, *rest = argv
    if mode == "oracle":
        import covertsense.fock  # noqa: F401
    else:
        import covertsense.cli  # noqa: F401
    t_import = time.monotonic()

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if mode == "cli":
        run = lambda: _run_cli(rest)  # noqa: E731
    elif mode == "oracle":
        import oracle

        run = lambda: oracle.run(*rest)  # noqa: E731
    else:
        run = lambda: 0  # noqa: E731
    t_run = time.monotonic()
    if tracer is None:
        code = run()
    else:  # the oracle loop is the benchmark's own code, so its layer is "bench"
        code = tracer.span(*(("cli", "cli.main") if mode == "cli" else ("bench", "bench.oracle")), run)
    t_end = time.monotonic()

    report = {
        "t_import": t_import,
        "t_run": t_run,
        "t_end": t_end,
        "exit_code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer is not None else None,
        "env": _environment() if mode == "probe" else None,
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
