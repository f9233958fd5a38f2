"""Convergence diagnostics: objective, gaps, PSNR, traces and rate fits."""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import DataError, InsufficientDataError, ParameterError

TRACE_COLUMNS = (
    "n",
    "t",
    "F",
    "F_gap",
    "tau",
    "sigma",
    "theta",
    "dx",
    "xz",
    "cviol",
    "rel_err",
    "psnr",
)

TRACE_HEADER = ",".join(TRACE_COLUMNS)


def objective(problem, x, Kx=None):
    """Composite objective f(x) + g(Kx) + h(x)."""
    if Kx is None:
        Kx = problem.K.matvec(x)
    val = problem.f.value(x) + problem.g.value(Kx) + problem.h.value(x)
    if not math.isfinite(val):
        raise DataError(f"objective is not finite at the given point (F={val})")
    return val


def lagrangian_gap(problem, x, w, y, phi_star):
    """Lagrangian residual Phi(x, w) + <y, Kx - w> - Phi_star.

    Phi(x, w) = f(x) + h(x) + g(w). Nonnegative whenever y is a dual
    solution, up to the precision of the supplied Phi_star value.
    """
    if phi_star is None:
        raise ParameterError("phi_star is required; compute it from a reference run")
    phi = problem.f.value(x) + problem.h.value(x) + problem.g.value(w)
    coupling = float(y @ (problem.K.matvec(x) - w))
    return phi + coupling - phi_star


def constraint_violation(K, x_avg, w_avg):
    """Residual ||K x_avg - w_avg||_2 of the splitting constraint Kx = w."""
    return float(np.linalg.norm(K.matvec(x_avg) - w_avg))


def psnr(x, x_true):
    """Peak signal-to-noise ratio in dB for signals scaled to [0, 1].

    Returns +inf when the two images coincide exactly.
    """
    if x.shape != x_true.shape:
        raise DataError("psnr operands differ in shape")
    mse = float(np.mean((x - x_true) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


class IterationTrace:
    """Per-iteration diagnostics with a fixed CSV schema.

    Optional columns (theta, rel_err, psnr, F_gap, ...) hold NaN when
    absent and serialize as empty cells.
    """

    def __init__(self):
        self._data = {name: [] for name in TRACE_COLUMNS}

    def __len__(self):
        return len(self._data["n"])

    def append(self, **fields):
        n = fields.get("n")
        if self._data["n"] and n is not None and n <= self._data["n"][-1]:
            raise DataError("trace iterations must be strictly increasing")
        for name in TRACE_COLUMNS:
            self._data[name].append(fields.get(name))

    def column(self, name):
        """Column as a float array; missing entries become NaN."""
        if name not in self._data:
            raise KeyError(name)
        vals = [np.nan if v is None else float(v) for v in self._data[name]]
        return np.asarray(vals, dtype=np.float64)

    def last(self, name):
        vals = self._data[name]
        return vals[-1] if vals else None

    @staticmethod
    def _format(name, value):
        if value is None:
            return ""
        if isinstance(value, float) and math.isnan(value):
            return ""
        if name == "n":
            return str(int(value))
        return repr(float(value))

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(TRACE_HEADER + "\n")
            for i in range(len(self)):
                row = ",".join(
                    self._format(name, self._data[name][i]) for name in TRACE_COLUMNS
                )
                fh.write(row + "\n")

    @classmethod
    def from_csv(cls, path):
        trace = cls()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header) != TRACE_COLUMNS:
                raise DataError(f"unexpected trace header {header}")
            for row in reader:
                fields = {}
                for name, cell in zip(TRACE_COLUMNS, row):
                    if cell == "":
                        fields[name] = None
                    elif name == "n":
                        fields[name] = int(cell)
                    else:
                        fields[name] = float(cell)
                trace.append(**fields)
        return trace


def _rate_fit(ns, values, transform, what):
    """Least-squares line of log(value) against transform(n).

    Non-positive and non-finite values are dropped (never clamped).
    Returns (slope, intercept, r_squared, n_dropped); raises
    InsufficientDataError below 5 usable points, naming ``what``.
    """
    ns = np.asarray(ns, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    good = np.isfinite(values) & (values > 0) & np.isfinite(ns)
    usable = int(good.sum())
    if usable < 5:
        raise InsufficientDataError(f"only {usable} usable points for {what}")
    return _line_fit(transform(ns[good]), np.log(values[good])) + (np.size(values) - usable,)


def fit_loglinear(ns, values):
    """Least-squares fit of log(value) against n; returns (rate, intercept, R^2, dropped)."""
    return _rate_fit(ns, values, lambda n: n, "a rate fit")


def _line_fit(x, y):
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def loglog_slope(trace, column, window):
    """Slope of log(column) vs log(n) over the iteration window (lo, hi)."""
    ns = trace.column("n")
    vals = trace.column(column)
    lo, hi = window
    mask = (ns >= lo) & (ns <= hi)
    slope, _, _, _ = _rate_fit(ns[mask], vals[mask], np.log, "a log-log fit")
    return slope


def linear_rate_fit(trace, column, burn_in):
    """Per-iteration decay rate of log(column) after the burn-in iteration.

    Returns (rate, r_squared): for an exactly geometric series c * zeta^n
    the rate is log(zeta) with R^2 = 1.
    """
    ns = trace.column("n")
    vals = trace.column(column)
    mask = ns >= burn_in
    rate, _, r2, _ = fit_loglinear(ns[mask], vals[mask])
    return rate, r2
