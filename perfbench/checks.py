"""Correctness checks run on every request, outside the timed region.

Every reference here is computed off the program's code path: the
deformation factor by the reduced-argument Dirichlet form, ladder spectra by
numpy's LAPACK ``eigvalsh`` on a tridiagonal matrix built from the model's
formulas here, sector spectra by ``eigvalsh`` on the program's own sector
Hamiltonian, sector sizes and traces from binomial sums.  Tolerances are
those of the acceptance gate (tests/test_acceptance.py) for the same
quantity.  ``check`` returns a list of failure messages, empty when the
output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

EIG_TOL = 1e-9  # criterion 7: eigenvalues, relative to max(1, max |lambda|)
R_TOL = 1e-10  # criteria 2 and 3: deformation factor by another route
R_POINT_TOL = 1e-12  # criterion 1: R(4, 2/3) = 0.625
COEFF_TOL = 1e-9  # criterion 6: closed-form coefficients against the recursion
CROSSOVER_L = (7.16e-4, 5e-6)  # criterion 11: N = 1000 crossover spacing
CROSSOVER_SPINS = (2794.0, 10.0)
EPS = np.finfo(float).eps


def deformation_ref(n: int, spacing) -> np.ndarray:
    """R(N, l) by the reduced-argument Dirichlet form: with d = l - round(l),
    R = 1/2 + sin(N pi d) cos((N-1) pi d) / (2N sin(pi d)), and R = 1 at d = 0."""
    d = np.asarray(spacing, dtype=float)
    d = d - np.round(d)
    x = np.pi * np.where(d == 0.0, 0.5, d)
    r = 0.5 + np.sin(n * x) * np.cos((n - 1) * x) / (2.0 * n * np.sin(x))
    return np.where(d == 0.0, 1.0, r)


def ladder_matrix(u: float, r: float, deformation: float, detuning: float, eta: float):
    """Photon numbers and tridiagonal interaction matrix of the (u, r) ladder:
    diagonal detuning * n, coupling eta * sqrt(n+1) * sqrt(R (r-m)(r+m+1))
    between n and n+1, where m = u - n - 1."""
    ns = np.arange(max(0, round(u - r)), round(u + r) + 1)
    m = u - ns[:-1] - 1
    off = eta * np.sqrt(ns[:-1] + 1) * np.sqrt(deformation * (r - m) * (r + m + 1))
    return ns, np.diag(detuning * ns.astype(float)) + np.diag(off, 1) + np.diag(off, -1)


def sector_dim(n: int, n_max: int) -> int:
    return sum(math.comb(n, k) for k in range(min(n_max, n) + 1))


def sector_trace(n: int, n_max: int, wq: float, w0: float) -> float:
    """Trace of the sector Hamiltonian: k excited qubits come with n_max - k photons."""
    return sum(
        math.comb(n, k) * (wq * (k - n / 2.0) + w0 * (n_max - k)) for k in range(min(n_max, n) + 1)
    )


def _close(a, b, tol, scale=1.0) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * max(1.0, scale)))


def _csv(text: str):
    lines = text.split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:-1]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell) if cell else None)
            except ValueError:
                cells.append(cell)
        rows.append(dict(zip(header, cells)))
    return rows


def _deformation_at(n: int, spacing: float) -> float:
    return 1.0 if spacing == 0.0 else float(deformation_ref(n, spacing))


class Failures(list):
    def need(self, ok: bool, message: str):
        if not ok:
            self.append(message)


def _check_eigvals(out: Failures, values, matrix, what: str):
    ref = np.linalg.eigvalsh(matrix)
    scale = float(np.abs(ref).max(initial=0.0))
    out.need(_close(np.sort(values), ref, EIG_TOL, scale), f"{what}: eigenvalues differ from eigvalsh")
    return ref


def _check_vectors(out: Failures, matrix, values, vectors, what: str, unit: bool):
    scale = max(1.0, float(np.abs(np.linalg.eigvalsh(matrix)).max(initial=0.0)))
    for v, x in zip(values, vectors):
        x = np.asarray(x, dtype=float)
        norm = float(np.linalg.norm(x))
        residual = float(np.linalg.norm(matrix @ x - v * x))
        out.need(residual <= EIG_TOL * scale * max(1.0, norm), f"{what}: residual {residual:.3e} at v={v!r}")
        if unit:
            out.need(abs(norm - 1.0) <= EIG_TOL, f"{what}: eigenvector norm {norm!r}")


# ---------------------------------------------------------------------------
# per command
# ---------------------------------------------------------------------------


def _oracle_compare(out: Failures, p: dict, text: str):
    from qchain.config import ChainConfig
    from qchain.oracle import sector_hamiltonian

    n, l, u, wq, w0, eta = (p[k] for k in ("n", "l", "u", "wq", "w0", "eta"))
    n = int(n)
    R = _deformation_at(n, l)
    n_max = round(u + n / 2.0)
    if p["format"] == "json":
        doc = json.loads(text)
        levels = [(lv["model"], lv["oracle"], lv["deviation"]) for lv in doc["levels"]]
        out.need(doc["sector_dim"] == sector_dim(n, n_max), "oracle-compare: sector_dim against binomial sum")
        out.need(_close(doc["R"], R, R_TOL), "oracle-compare: R against the Dirichlet form")
        max_dev = doc["max_deviation"]
    else:
        rows = _csv(text)
        levels = [(r["E_model"], r["E_oracle"], r["deviation"]) for r in rows if r["kind"] == "level"]
        max_dev = [r["deviation"] for r in rows if r["kind"] == "summary"][0]
    model = np.array([lv[0] for lv in levels])
    _, ladder = ladder_matrix(u, n / 2.0, R, w0 - wq, eta)
    _check_eigvals(out, model - wq * u, ladder, "oracle-compare model levels")

    h = sector_hamiltonian(ChainConfig(n, l, wq, w0, eta), u).entries
    out.need(h.shape[0] == sector_dim(n, n_max), "oracle-compare: sector Hamiltonian size against binomial sum")
    exact = np.linalg.eigvalsh(h)
    scale = max(1.0, float(np.abs(exact).max()))
    out.need(
        abs(float(exact.sum()) - sector_trace(n, n_max, wq, w0)) <= EIG_TOL * scale * exact.size,
        "oracle-compare: trace identity",
    )
    for e_model, e_oracle, dev in levels:
        gaps = np.abs(exact - e_oracle)
        out.need(gaps.min() <= EIG_TOL * scale, f"oracle-compare: {e_oracle!r} is not an eigenvalue")
        nearest = np.abs(exact - e_model).min()
        out.need(abs(e_model - e_oracle) <= nearest + EIG_TOL * scale, "oracle-compare: level is not the nearest")
        out.need(dev == abs(e_model - e_oracle), "oracle-compare: deviation column")
    out.need(max_dev == max(lv[2] for lv in levels), "oracle-compare: max deviation")


def _spectrum(out: Failures, p: dict, text: str):
    n, l, u, wq, w0, eta = (p[k] for k in ("n", "l", "u", "wq", "w0", "eta"))
    n = int(n)
    r = p.get("r", n / 2.0)
    R = _deformation_at(n, l)
    ns, ladder = ladder_matrix(u, r, R, w0 - wq, eta)
    if p["format"] == "json":
        doc = json.loads(text)
        out.need(doc["photon_numbers"] == ns.tolist(), "spectrum: photon numbers")
        out.need(_close(doc["R"], R, R_TOL), "spectrum: R against the Dirichlet form")
        states = [(s["v"], s["E"], s["unit_norm"], s["c0_is_one"]) for s in doc["states"]]
        resonant = doc["resonant_canonical"]
    else:
        rows = _csv(text)
        a_cols = [f"a{k}" for k in ns]
        c_cols = [f"c{k}" for k in ns] if ns[0] == 0 else []
        states = []
        for row in rows:
            if row["kind"] == "state":
                c0 = [row[c] for c in c_cols] if c_cols and row[c_cols[0]] is not None else None
                states.append((row["v"], row["E"], [row[a] for a in a_cols], c0))
            out.need(_close(row["R"], R, R_TOL), "spectrum: R against the Dirichlet form")
        resonant = [row["v"] for row in rows if row["kind"] == "resonant_canonical"] or None
    values = np.array([s[0] for s in states])
    ref = _check_eigvals(out, values, ladder, "spectrum")
    out.need(_close([s[1] for s in states], wq * u + values, EIG_TOL, wq * u), "spectrum: E = wq*u + v")
    _check_vectors(out, ladder, values, [s[2] for s in states], "spectrum", unit=True)
    for v, _, a, c in states:
        if c is not None:
            a = np.asarray(a)
            out.need(c[0] == 1.0 and _close(c, a / a[0], EIG_TOL, np.abs(c).max()), "spectrum: c0 = 1 rescaling")
    if resonant is not None:
        out.need(_close(resonant, ref, EIG_TOL, np.abs(ref).max()), "spectrum: resonant canonical levels")


def _check_coefficients(out: Failures, v, rec, closed, ladder, what: str):
    """The recursion's amplitudes (c0 = 1) solve T c = v c; the closed form equals them."""
    rec = np.asarray(rec, dtype=float)
    out.need(rec[0] == 1.0, f"{what}: c0 = 1")
    scale = float(np.abs(rec).max())
    _check_vectors(out, ladder, [v], [rec], what, unit=False)
    if closed is not None:
        out.need(_close(closed, rec, COEFF_TOL, scale), f"{what}: closed form against the recursion")


def _table1(out: Failures, p: dict, text: str):
    l, w0, eta = p["l"], p["w0"], p["eta"]
    dw = w0 - 1.0
    R = _deformation_at(4, l)
    _, ladder = ladder_matrix(1.0, 2.0, R, dw, eta)
    if p["format"] == "json":
        doc = json.loads(text)
        out.need(_close(doc["R"], R, R_TOL), "table1: R against the Dirichlet form")
        entries = [(s["v"], s["recursive"], s["closed"], s["formulas"]) for s in doc["states"]]
    else:
        entries = []
        for row in _csv(text):
            out.need(_close(row["R"], R, R_TOL), "table1: R against the Dirichlet form")
            closed = [row[f"closed_c{j}"] for j in range(4)]
            entries.append(
                (
                    row["v"],
                    [row[f"rec_c{j}"] for j in range(4)],
                    None if closed[0] is None else closed,
                    {k: row[f"formula_{k}"] for k in ("c1", "c2", "c3")},
                )
            )
    _check_eigvals(out, [e[0] for e in entries], ladder, "table1")
    for v, rec, closed, formulas in entries:
        _check_coefficients(out, v, rec, closed, ladder, "table1")
        scale = float(np.abs(rec).max())
        out.need(
            _close([formulas["c1"], formulas["c2"], formulas["c3"]], rec[1:], COEFF_TOL, scale),
            "table1: 4-qubit amplitude formulas against the recursion",
        )


def _deform(out: Failures, p: dict, text: str):
    n, l = int(p["n"]), p["l"]
    if p["format"] == "json":
        value = json.loads(text)["R"]
    else:
        value = _csv(text)[0]["R"]
    out.need(_close(value, deformation_ref(n, l), R_TOL), "deform: R against the Dirichlet form")
    out.need(1.0 / n - R_TOL <= value <= 1.0 + R_TOL, "deform: R outside [1/N, 1]")
    if (n, l) == (4, 2.0 / 3.0):
        out.need(abs(value - 0.625) <= R_POINT_TOL, "deform: R(4, 2/3) != 0.625")


def _deform_sweep(out: Failures, p: dict, text: str):
    n = int(p["n"])
    if p["format"] == "json":
        doc = json.loads(text)
        ls, values = np.array(doc["l"]), np.array(doc["R"])
    else:
        rows = _csv(text)
        ls = np.array([r["l"] for r in rows])
        values = np.array([r["R"] for r in rows])
    grid = np.linspace(p["l_start"], p["l_end"], int(p["steps"]))
    out.need(_close(ls, grid, 1e-12, p["l_end"]), "deform-sweep: spacing grid")
    out.need(_close(values, deformation_ref(n, grid), R_TOL), "deform-sweep: R against the Dirichlet form")
    out.need(bool(np.all((values >= 1.0 / n - R_TOL) & (values <= 1.0 + R_TOL))), "deform-sweep: R outside [1/N, 1]")


def _hcurve(out: Failures, p: dict, text: str):
    if p["format"] == "json":
        doc = json.loads(text)
        ms, hs = np.array(doc["m"]), np.array(doc["h"])
    else:
        rows = _csv(text)
        ms = np.array([r["m"] for r in rows])
        hs = np.array([r["h"] for r in rows])
    grid = np.linspace(p["m_min"], p["m_max"], int(p["steps"]))
    out.need(_close(ms, grid, 1e-12, max(abs(p["m_min"]), p["m_max"])), "hcurve: moment grid")
    ref = p["R"] * (grid * grid + grid)
    out.need(_close(hs, ref, 1e-12, np.abs(ref).max()), "hcurve: h = R (m^2 + m)")


def stationarity_ref(n: int, spacing) -> np.ndarray:
    """g(l) = sin(k pi l) cos(pi l) - k cos(k pi l) sin(pi l), k = 2N - 1:
    zero exactly where dR/dl is, away from integer l."""
    k = 2 * n - 1
    theta = np.pi * np.asarray(spacing, dtype=float)
    return np.sin(k * theta) * np.cos(theta) - k * np.cos(k * theta) * np.sin(theta)


def _crossover(out: Failures, p: dict, text: str):
    n = int(p["n"])
    if p["format"] == "json":
        doc = json.loads(text)
        l_star, r_star, spins = doc["crossover_l"], doc["R_at_crossover"], doc["spins_per_wavelength"]
        points = np.array(doc["stationary_points"])
    else:
        rows = _csv(text)
        head = {r["key"]: r["value"] for r in rows[:3]}
        l_star, r_star, spins = head["crossover_l"], head["R_at_crossover"], head["spins_per_wavelength"]
        points = np.array([r["value"] for r in rows[3:]])
    k = 2 * n - 1
    # g carries the rounding error of its phase k*pi*l (relative eps) times
    # its slope in that phase (~k), so |g| at a root is of order eps * k^2
    tol = 1e-10 + 8.0 * EPS * k * k
    out.need(points.size > 0 and bool(np.all(np.diff(points) > 0)), "crossover: points not ascending")
    out.need(bool(np.all((points > 0) & (points <= 0.5 + 1e-9))), "crossover: points outside (0, 1/2]")
    worst = float(np.abs(stationarity_ref(n, points)).max(initial=0.0))
    out.need(worst <= tol, f"crossover: stationarity residual {worst:.3e} > {tol:.3e}")
    values = deformation_ref(n, points)
    out.need(abs(r_star - values.min()) <= R_TOL, "crossover: R at crossover is not the minimum")
    out.need(abs(float(deformation_ref(n, l_star)) - values.min()) <= R_TOL, "crossover: l* is not the minimizer")
    out.need(abs(spins - 2.0 / l_star) <= 1e-12 * spins, "crossover: spins per wavelength != 2/l*")
    if n == 1000:
        out.need(abs(l_star - CROSSOVER_L[0]) <= CROSSOVER_L[1], f"crossover: N=1000 at l={l_star!r}")
        out.need(abs(spins - CROSSOVER_SPINS[0]) <= CROSSOVER_SPINS[1], "crossover: N=1000 spins per wavelength")


COMMANDS = {
    "oracle-compare": _oracle_compare,
    "spectrum": _spectrum,
    "table1": _table1,
    "deform": _deform,
    "deform-sweep": _deform_sweep,
    "hcurve": _hcurve,
    "crossover": _crossover,
}


# ---------------------------------------------------------------------------
# library routes
# ---------------------------------------------------------------------------


def _projection(out: Failures, p: dict, value):
    n, l = p["n"], p["l"]
    out.need(_close(value, deformation_ref(n, l), R_TOL), "projection: HS coefficient against the Dirichlet form")
    out.need(1.0 / n - R_TOL <= value <= 1.0 + R_TOL, "projection: R outside [1/N, 1]")


def _amplitudes(out: Failures, p: dict, value):
    v, rec, closed = value
    R = float(deformation_ref(p["n"], p["l"]))
    _, ladder = ladder_matrix(p["u"], p["r"], R, p["detuning"], p["eta"])
    ref = np.linalg.eigvalsh(ladder)
    out.need(np.abs(ref - v).min() <= EIG_TOL * max(1.0, np.abs(ref).max()), "amplitudes: v is not an eigenvalue")
    _check_coefficients(out, v, rec, closed, ladder, "amplitudes")


LIBRARY = {"projection": _projection, "amplitudes": _amplitudes}


def check(request, text: str, value=None) -> list[str]:
    """Failure messages for one request's output; [] when correct."""
    out = Failures()
    try:
        if request.route == "cli":
            COMMANDS[request.params["command"]](out, request.params, text)
        else:
            LIBRARY[request.route](out, request.params, value)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        out.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return out
