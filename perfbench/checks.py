"""Correctness checks on each workload's outputs.

Each check takes the program's outputs and a reference made apart from the
program (the benchmark's own numpy and Fraction arithmetic on the seeded
inputs) and returns a list of failure messages; an empty list means the
outputs passed.  None of them compares against a stored copy of earlier
output.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

DRIFT_SLACK = 1e-9
RECOMPUTE_RTOL = 1e-9


def _close(a: float, b: float, rtol: float = RECOMPUTE_RTOL, atol: float = 1e-15) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def read_csv(text: str):
    """(header, rows of floats) of a harness CSV, after its `# meta` line."""
    lines = text.rstrip("\n").split("\n")
    if not lines[0].startswith("# meta "):
        raise ValueError("missing '# meta' line")
    json.loads(lines[0][len("# meta "):])
    return lines[1].split(","), [[float(v) for v in ln.split(",")] for ln in lines[2:]]


def check_train(trace_text: str, summary_text: str, ref: dict) -> list[str]:
    """Trace and summary of one `train` run against the schedule and invariants.

    ref holds eps, R, m and the seeded inputs X, y, W0, b0, a0.
    """
    bad = []
    header, rows = read_csv(trace_text)
    col = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    summary = json.loads(summary_text)
    m, eps, R = ref["m"], ref["eps"], ref["R"]
    T = math.ceil(eps**-2 * R**2)
    eta = eps * m ** (-1.0 / 3.0)
    m_third = m ** (-1.0 / 3.0)
    hp = summary["hp"]
    if hp["T"] != T or len(rows) != T:
        bad.append(f"T: summary {hp['T']}, trace rows {len(rows)}, expected {T}")
    if not _close(hp["eta"], eta, rtol=1e-12):
        bad.append(f"eta {hp['eta']!r} != eps*m^(-1/3) = {eta!r}")
    if not rows:
        return bad + ["empty trace"]
    if col["drift_2inf"][0] != 0.0:
        bad.append(f"row 0 drift {col['drift_2inf'][0]!r} != 0")
    pred = np.maximum(ref["X"] @ ref["W0"] + ref["b0"], 0.0) @ ref["a0"]
    std0 = float(np.mean(np.abs(pred - ref["y"])))
    if abs(col["standard_loss"][0] - std0) > 1e-12:
        bad.append(f"row 0 standard_loss {col['standard_loss'][0]!r} != numpy forward {std0!r}")
    for i, t in enumerate(col["t"]):
        if col["robust_loss"][i] < col["standard_loss"][i] - 1e-12:
            bad.append(f"t={t:g}: robust_loss {col['robust_loss'][i]!r} < standard_loss {col['standard_loss'][i]!r}")
        bound = eta * t * m_third + DRIFT_SLACK
        if col["drift_2inf"][i] > bound:
            bad.append(f"t={t:g}: drift {col['drift_2inf'][i]!r} > bound {bound!r}")
        if col["grad_21"][i] > m ** (2.0 / 3.0) + 1e-9:
            bad.append(f"t={t:g}: grad_21 {col['grad_21'][i]!r} > m^(2/3)")
        if not col["coupling_sample"][i] >= 0.0:
            bad.append(f"t={t:g}: coupling_sample {col['coupling_sample'][i]!r} < 0")
    best_t = summary["best_t"]
    rob = col["robust_loss"]
    if best_t != rob.index(min(rob)) or summary["best_robust_loss"] != min(rob):
        bad.append(f"best_t {best_t}/{summary['best_robust_loss']!r} is not the first column minimum {min(rob)!r}")
    if summary["invariant_violations"]:
        bad.append(f"invariant violations: {summary['invariant_violations']}")
    return bad


def coupling_reference(W0, b0, a0, W, X, Xb, yb) -> dict:
    """Unchunked gap, flip fraction and gradient ratio of one coupling cell.

    f is the network at W, g the pseudo-network (activations frozen at W0),
    both under the absolute loss for the gradient ratio on (Xb, yb).
    """
    dW = W - W0
    pre0 = X @ W0 + b0
    shift = X @ dW
    f = np.maximum(pre0 + shift, 0.0) @ a0
    g = (shift * (pre0 >= 0)) @ a0
    flips = float(np.any(((pre0 + shift) >= 0) != (pre0 >= 0), axis=0).sum()) / len(a0)
    mask = (Xb @ W + b0) >= 0
    mask0 = (Xb @ W0 + b0) >= 0
    f_b = np.maximum(Xb @ W + b0, 0.0) @ a0
    g_b = ((Xb @ dW) * mask0) @ a0
    grad_f = Xb.T @ (mask * (np.sign(f_b - yb)[:, None] * a0)) / len(Xb)
    grad_g = Xb.T @ (mask0 * (np.sign(g_b - yb)[:, None] * a0)) / len(Xb)
    ratio = np.linalg.norm(grad_g - grad_f, axis=0).sum() / np.linalg.norm(grad_f, axis=0).sum()
    return {"gap": float(np.max(np.abs(f - g))), "flips": flips, "ratio": float(ratio)}


def check_coupling(csv_text: str, grad_text: str, m_list, ref: dict) -> list[str]:
    """Rows of one single-seed `coupling` run; ref recomputes the m = ref['m'] cell."""
    bad = []
    header, rows = read_csv(csv_text)
    gheader, grows = read_csv(grad_text)
    cells = [dict(zip(header, r)) for r in rows]
    gcells = [dict(zip(gheader, r)) for r in grows]
    if [c["m"] for c in cells] != [float(m) for m in m_list] or len(gcells) != len(cells):
        return [f"expected one row per width {list(m_list)}, got {[c['m'] for c in cells]}"]
    for c in cells:
        if not 0.0 <= c["flip_fraction"] <= 1.0:
            bad.append(f"m={c['m']:g}: flip_fraction {c['flip_fraction']!r} outside [0, 1]")
        if not c["gap_max"] >= c["gap_median"] >= 0.0:
            bad.append(f"m={c['m']:g}: gap_max {c['gap_max']!r} < gap_median {c['gap_median']!r} or < 0")
    i = [c["m"] for c in cells].index(float(ref["m"]))
    got = {"gap": cells[i]["gap_median"], "flips": cells[i]["flip_fraction"], "ratio": gcells[i]["grad_ratio_median"]}
    for key, want in ref["cell"].items():
        if not _close(got[key], want):
            bad.append(f"m={ref['m']}: {key} {got[key]!r} != recomputed {want!r}")
    return bad


def fraction_horner(coeffs, z: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def c_plain_logsum(coeffs, base_constant: float = 2.0) -> float:
    """c * sum_j (j+1)^1.75 |a_j|, summed in log space from exact coefficients."""
    logs = [
        math.log(base_constant) + 1.75 * math.log(j + 1) + math.log(abs(c.numerator)) - math.log(c.denominator)
        for j, c in enumerate(coeffs)
        if c != 0
    ]
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


def check_interpolant(out: dict, ref: dict) -> list[str]:
    """Step polynomial, exact expansion, complexity and fit of one pipeline pass.

    out: degree, plateau_one / plateau_zero (evaluator values on the
    benchmark's plateau grids), exact (Fraction coefficients), float_at
    (evaluator at ref['points']), c_plain, fit_max_error, fit_coeffs,
    target_values.  ref: rho, delta, eps1, eps, points, sample, W0, b0, a0.
    """
    bad = []
    eta = ref["delta"] * (ref["delta"] - 2 * ref["rho"]) / 8.0
    budget = math.ceil((3.0 / eta) * math.log(2.0 / (eta * ref["eps1"])))
    if out["degree"] > budget:
        bad.append(f"degree {out['degree']} above the budget {budget}")
    err_one = float(np.max(np.abs(out["plateau_one"] - 1.0)))
    err_zero = float(np.max(np.abs(out["plateau_zero"])))
    if max(err_one, err_zero) > ref["eps1"]:
        bad.append(f"plateau errors {err_one:.3e} / {err_zero:.3e} above eps1 {ref['eps1']}")
    coeffs = out["exact"]
    if len(coeffs) != out["degree"] + 1:
        bad.append(f"{len(coeffs)} exact coefficients for degree {out['degree']}")
    for z, fl in zip(ref["points"], out["float_at"]):
        exact = float(fraction_horner(coeffs, z))
        if not abs(exact - fl) <= 1e-9:
            bad.append(f"exact expansion at z={z} gives {exact!r}, evaluator {fl!r}")
    own = c_plain_logsum(coeffs)
    if not _close(out["c_plain"], own):
        bad.append(f"c_plain {out['c_plain']!r} != log-sum over exact coefficients {own!r}")
    if not out["fit_max_error"] <= ref["eps"] / 3.0:
        bad.append(f"fit max_error {out['fit_max_error']!r} > eps/3")
    phi = ((ref["sample"] @ ref["W0"] + ref["b0"]) >= 0) * (0.5 * ref["a0"])
    resid = float(np.max(np.abs(phi @ out["fit_coeffs"] - out["target_values"])))
    if not _close(out["fit_max_error"], resid):
        bad.append(f"fit max_error {out['fit_max_error']!r} != recomputed residual {resid!r}")
    return bad
