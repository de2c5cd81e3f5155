"""Recorded quantities along a run and the checks built on them.

One record per sampled time: mass, norms, second moment, the quadratic energy
integral(v K v), the confined entropy E = (energy + beta * moment2)/2, the
Boltzmann integral v log v, the dissipation integral(|grad(K v + beta/2 |y|^2)|^2 v),
and the support radius.  All quadratures are the midpoint rule on the grid;
the dissipation sums w^2 * up over the faces, where w is the face velocity and
up the upwind face density of `faces.upwind_faces`, the same face pass whose
w * up is the stepper's flux.  With that convention a
stationary profile reports exactly zero dissipation: every face either has a
vanishing potential gradient (on the contact set) or draws its density from
the empty side of the free boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .faces import confining_drift, upwind_faces
from .fracops import FracOperator
from .grid import Field

CSV_COLUMNS = (
    "time", "mass", "linf", "l2", "l4", "moment2", "energy1",
    "entropy", "boltzmann", "dissipation", "support_radius",
)

BOLTZMANN_FLOOR = 1e-30
L4_UNDERFLOW = 1e-100  # x ** 4 underflows to exactly 0 at and below this


@dataclass
class DiagnosticsRecord:
    time: float
    mass: float
    linf: float
    l2: float
    l4: float
    moment2: float
    energy1: float
    entropy: float
    boltzmann: float
    dissipation: float
    support_radius: float

    def row(self) -> tuple:
        return tuple(getattr(self, name) for name in CSV_COLUMNS)


@dataclass
class DiagnosticsSeries:
    records: list = field(default_factory=list)

    def append(self, rec: DiagnosticsRecord):
        if self.records and rec.time <= self.records[-1].time:
            raise ValueError(
                f"record times must increase ({rec.time} after {self.records[-1].time})"
            )
        self.records.append(rec)

    def column(self, name: str) -> np.ndarray:
        if name not in {f.name for f in fields(DiagnosticsRecord)}:
            raise KeyError(f"unknown diagnostics column {name!r}")
        return np.array([getattr(r, name) for r in self.records], dtype=float)

    def __len__(self) -> int:
        return len(self.records)


def record(v: Field, time: float, exp, op: FracOperator, confined: bool = True,
           pressure: Field | None = None, faces: list | None = None) -> DiagnosticsRecord:
    """All diagnostics of one state.  confined=True adds the drift potential
    beta/2 |y|^2 to the dissipation integrand (rescaled flow); the entropy
    formula always carries its beta moment term.  pressure, when given, must
    be op.inverse(v), and faces upwind_faces(v.values, pressure.values, op,
    drift) with the drift that `confined` implies; each is computed here
    otherwise.  The support radius is the largest cell-center radius where v
    exceeds 1e-10 max|v|, zero for an identically zero state."""
    grid = v.grid
    vol = grid.spacing ** grid.dim
    vals = v.values

    mass = vol * float(vals.sum())
    r2 = grid.radius2()
    moment2 = vol * float((r2 * vals).sum())
    kv = (op.inverse(v) if pressure is None else pressure).values
    energy1 = vol * float((vals * kv).sum())
    entropy = 0.5 * (energy1 + exp.beta * moment2)
    pos = vals[vals > BOLTZMANN_FLOOR]
    boltzmann = vol * float((pos * np.log(pos)).sum())
    if faces is None:
        drift = confining_drift(op, exp.beta) if confined else None
        faces = upwind_faces(vals, kv, op, drift)
    dissipation = 0.0
    for w, up in faces:
        dissipation += float((w * w * up).sum()) * vol
    a = np.abs(vals)
    linf = float(a.max())
    # pow(x, 4) is exactly 0 for x <= 1e-100 but slow there, so only larger
    # entries (and nan) take the power; the summed array is unchanged
    big = ~(a <= L4_UNDERFLOW)
    a4 = np.zeros(a.shape)
    a4[big] = a[big] ** 4
    inside = vals > 1e-10 * linf
    return DiagnosticsRecord(
        time=float(time), mass=mass, linf=linf,
        l2=float((vol * (a ** 2).sum()) ** 0.5), l4=float((vol * a4.sum()) ** 0.25),
        moment2=moment2, energy1=energy1, entropy=entropy, boltzmann=boltzmann,
        dissipation=dissipation,
        support_radius=float(np.sqrt(r2[inside].max())) if inside.any() else 0.0,
    )


def entropy_dissipation_identity_check(series: DiagnosticsSeries,
                                       window: tuple | None = None) -> dict:
    """Centered dE/dtau against -I at interior records.

    Returns the mismatch series and its maximum relative size
    |dE/dtau + I| / max(|dE/dtau|, I) over the window."""
    if len(series) < 3:
        raise ValueError("need at least 3 records for the centered difference")
    t = series.column("time")
    e = series.column("entropy")
    i = series.column("dissipation")
    de = (e[2:] - e[:-2]) / (t[2:] - t[:-2])
    mid_t, mid_i = t[1:-1], i[1:-1]
    if window is not None:
        sel = (mid_t >= window[0]) & (mid_t <= window[1])
        if not sel.any():
            raise ValueError(f"no interior records in window {window}")
        de, mid_t, mid_i = de[sel], mid_t[sel], mid_i[sel]
    scale = np.maximum(np.maximum(np.abs(de), mid_i), 1e-300)
    mismatch = np.abs(de + mid_i) / scale
    return {
        "times": mid_t,
        "mismatch": mismatch,
        "max_rel_mismatch": float(mismatch.max()),
        "de_dtau": de,
        "dissipation": mid_i,
    }


def fit_power_law(series: DiagnosticsSeries, quantity: str, window: tuple) -> tuple:
    """Least-squares slope of log(quantity) against log(time) in the window;
    returns (slope, stderr)."""
    t = series.column("time")
    y = series.column(quantity)
    sel = (t >= window[0]) & (t <= window[1]) & (t > 0.0)
    if sel.sum() < 10:
        raise ValueError(f"need >= 10 records in window {window}, have {int(sel.sum())}")
    y = y[sel]
    if (y <= 0.0).any():
        raise ValueError(f"nonpositive {quantity} values in the fit window")
    lt, ly = np.log(t[sel]), np.log(y)
    (slope, _), cov = np.polyfit(lt, ly, 1, cov=True)
    return float(slope), float(np.sqrt(cov[0, 0]))
