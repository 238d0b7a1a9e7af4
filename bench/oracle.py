"""The oracle pass run inside an ``oracle_check`` child.

Each point is evaluated twice, by the public ``covertsense.fock`` functions
(truncated Fock space) and by the Gaussian engine, and written as rows of
(oracle, gaussian, trace deficit).  The pipelines mirror
``build_receiver_input`` and the two receivers mode by mode.  Functions
are looked up on their modules at call time so that a traced run sees the
wrapped versions.
"""

from __future__ import annotations

import json
import sys

from covertsense import adversary, fock, gaussian, metrology, protocol, receivers

ENT = protocol.ProtocolVariant.ENTANGLED


def _receiver_input(sc, variant, cutoffs):
    if variant is ENT:
        src = protocol.tmsv(sc.N_S, ("ret", "idler"))
    else:
        src = protocol.split_thermal(sc.N_S, sc.N_R, ("ret", "ref"))
    st = fock.from_gaussian(src, cutoffs)
    st = fock.fock_phase(st, 0, sc.theta)
    st = fock.fock_thermal_loss(st, 0, sc.kappa, sc.N_B)
    return fock.fock_thermal_loss(st, 1, sc.kappa_I, 0.0)


def _row(point, quantity, oracle, gauss, deficit, metric="mixed"):
    return {"point": point, "quantity": quantity, "oracle": float(oracle),
            "gaussian": float(gauss), "deficit": float(deficit), "metric": metric}


def _pcr(label, p):
    sc = protocol.SensingScenario(**p["scenario"])
    c = p["cutoffs"]
    st = _receiver_input(sc, ENT, c[:2])
    st = fock.product_fock(st, fock.vacuum_fock((c[2],)))
    st = fock.fock_two_mode_squeeze(st, 2, 0, sc.G_pc)
    st = fock.fock_beamsplitter(st, 2, 1, 0.5)
    mean, var = fock.fock_difference_stats(st, 2, 1)
    ref = receivers.pcr_stats(sc)
    return [_row(label, "mean_diff", mean, ref.mean_diff, st.trace_deficit),
            _row(label, "var_diff", var, ref.var_diff, st.trace_deficit)]


def _hr(label, p):
    sc = protocol.SensingScenario(**p["scenario"])
    st = _receiver_input(sc, protocol.ProtocolVariant.CLASSICAL_THERMAL, p["cutoffs"])
    st = fock.fock_beamsplitter(st, 0, 1, 0.5)
    mean, var = fock.fock_difference_stats(st, 0, 1)
    ref = receivers.hr_stats(sc)
    return [_row(label, "mean_diff", mean, ref.mean_diff, st.trace_deficit),
            _row(label, "var_diff", var, ref.var_diff, st.trace_deficit)]


def _qfi(label, p):
    """Fock-space fidelity finite differences with Richardson
    extrapolation, against the Gaussian engine's qfi_phase."""
    sc = protocol.SensingScenario(**p["scenario"])
    estimates, deficit = [], 0.0
    for h in p["steps"]:
        a = _receiver_input(sc.with_(theta=sc.theta - h / 2), ENT, p["cutoffs"])
        b = _receiver_input(sc.with_(theta=sc.theta + h / 2), ENT, p["cutoffs"])
        deficit = max(deficit, a.trace_deficit, b.trace_deficit)
        estimates.append(8.0 * (1.0 - fock.fock_fidelity(a, b)) / h**2)
    j_oracle = (4.0 * estimates[1] - estimates[0]) / 3.0
    return [_row(label, "J", j_oracle, metrology.qfi_phase(sc, ENT).J, deficit, "ratio")]


def _fid_tmsv(label, p):
    a = protocol.tmsv(p["n_s"])
    b = gaussian.apply_phase(protocol.tmsv(p["n_s"]), "S", p["phase"])
    fa, fb = fock.from_gaussian(a, p["cutoffs"]), fock.from_gaussian(b, p["cutoffs"])
    deficit = max(fa.trace_deficit, fb.trace_deficit)
    return [_row(label, "fidelity", fock.fock_fidelity(fa, fb),
                 metrology.gaussian_fidelity(a, b), deficit)]


def _fid_thermal(label, p):
    a, b = gaussian.thermal(p["n_a"], "a"), gaussian.thermal(p["n_b"], "a")
    fa, fb = fock.from_gaussian(a, p["cutoffs"]), fock.from_gaussian(b, p["cutoffs"])
    deficit = max(fa.trace_deficit, fb.trace_deficit)
    return [_row(label, "fidelity", fock.fock_fidelity(fa, fb),
                 metrology.gaussian_fidelity(a, b), deficit)]


def _thermal_loss(label, p):
    state = gaussian.apply_thermal_loss(gaussian.thermal(p["n"], "a"), "a", p["kappa"], p["n_b"])
    fs = fock.from_gaussian(state, p["cutoffs"])
    return [
        _row(label, "mean", fock.fock_photon_mean(fs, 0), gaussian.photon_mean(state, "a"),
             fs.trace_deficit),
        _row(label, "variance", fock.fock_photon_variance(fs, 0),
             gaussian.photon_variance(state, "a"), fs.trace_deficit),
    ]


def _rel_entropy(label, p):
    (cut,) = p["cutoffs"]
    fa, fb = fock.thermal_fock(p["n_a"], cut), fock.thermal_fock(p["n_b"], cut)
    deficit = max(fa.trace_deficit, fb.trace_deficit)
    return [_row(label, "rel_entropy", fock.fock_rel_entropy(fa, fb),
                 adversary.thermal_rel_entropy(p["n_a"], p["n_b"]), deficit)]


KINDS = {
    "pcr": _pcr, "hr": _hr, "qfi": _qfi, "fid_tmsv": _fid_tmsv,
    "fid_thermal": _fid_thermal, "thermal_loss": _thermal_loss, "rel_entropy": _rel_entropy,
}


def run(points_path: str, out_path: str) -> int:
    """Evaluate every point; a point that raises is reported on stderr as
    FAILED, like a failing CLI grid point, and the pass carries on."""
    with open(points_path) as fh:
        points = json.load(fh)
    rows, failed = [], 0
    for i, p in enumerate(points):
        label = f"{i}:{p['kind']}"
        try:
            rows += KINDS[p["kind"]](label, p)
        except Exception as exc:  # noqa: BLE001 - report the point, keep going
            failed += 1
            print(f"FAILED {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
    with open(out_path, "w") as fh:
        json.dump({"rows": rows}, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 1 if failed else 0
