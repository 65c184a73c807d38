"""Blow-up lower-bound functionals and differential-inequality checks.

For a hypothetical singular time T* > t, the lower-bound machinery says
norms must outgrow specific rates as t -> T*.  This module evaluates the
corresponding functionals along a trajectory, treating T* as a
user-chosen counterfactual (t_star); for viscous decaying runs the
functionals simply trace out their shape, no singularity is claimed.

Conventions shared by every functional:

* tau means t_star - t and must be positive.
* Log guards: where a time logarithm vanishes exactly (tau == 1) the
  value is undefined and recorded as None, never NaN.
* Unspecified universal constants are configurable (c_small) or reported
  as empirical maxima over the trajectory; nothing is hard-coded.

Two inequality statements come with an ambiguous log argument (a factor
4*norm/(c*nu) in one place, norm^2/(c*nu) in another); both variants are
computed side by side, tagged "eq" and "proof".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import brentq

from ._tables import table_text
from .norms import DEFAULT_SOBOLEV_ORDERS
from .trajectory import Trajectory, TrajectorySample

__all__ = [
    "LOG_VARIANTS",
    "RATE_DOMAIN_START",
    "RATE_RANGE_START",
    "MonitorConfig",
    "FunctionalTrace",
    "IntervalReport",
    "GrowthReport",
    "theorem1_functional",
    "theorem2_functional",
    "theorem3_functional",
    "rate_catalog",
    "evaluate_traces",
    "h52_energy_residual",
    "h12_log_growth_check",
    "xm1_gronwall_check",
    "rate_forward",
    "invert_rate",
    "write_monitor_csv",
    "monitor_summary",
]

LOG_VARIANTS = ("eq", "proof")

# x*sqrt(ln x) restricted to x >= 4 is a monotone bijection onto
# [4*sqrt(ln 4), inf); invert_rate works on that branch.
RATE_DOMAIN_START = 4.0
RATE_RANGE_START = RATE_DOMAIN_START * math.sqrt(math.log(RATE_DOMAIN_START))


def _sobolev(sample: TrajectorySample, s: float) -> float:
    try:
        return sample.norms.hdot[s]
    except KeyError:
        raise ValueError(
            f"sample at t = {sample.t:g} has no h{s:g} norm; "
            "re-run the simulation with that order tracked"
        ) from None


def _leilin(sample: TrajectorySample, sigma: float) -> float:
    try:
        return sample.norms.leilin[sigma]
    except KeyError:
        raise ValueError(
            f"sample at t = {sample.t:g} has no x{sigma:g} norm; "
            "re-run the simulation with that order tracked"
        ) from None


def _tau(sample: TrajectorySample, t_star: float) -> float:
    tau = t_star - sample.t
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(
            f"t_star must lie strictly beyond the sample time "
            f"(t_star = {t_star:g}, t = {sample.t:g})"
        )
    return tau


def _check_variant(variant: str) -> None:
    if variant not in LOG_VARIANTS:
        raise ValueError(f"variant must be one of {LOG_VARIANTS}, got {variant!r}")


def theorem1_functional(sample: TrajectorySample, t_star: float) -> float | None:
    """tau * sqrt|ln tau| * ||u||_h5/2; None at tau == 1 (log vanishes)."""
    tau = _tau(sample, t_star)
    if tau == 1.0:
        return None
    return tau * math.sqrt(abs(math.log(tau))) * _sobolev(sample, 2.5)


def theorem2_functional(
    sample: TrajectorySample,
    t_star: float,
    c_small: float,
    nu: float,
    variant: str = "eq",
) -> float:
    """tau * sqrt|ln(arg)| * ||u||_h5/2 with arg built from ||u||_h1/2.

    arg = 4*||u||_h1/2/(c_small*nu) for variant "eq", and
    ||u||_h1/2^2/(c_small*nu) for variant "proof".  Zero at arg == 1;
    a zero h1/2 norm (log argument 0) is an error.
    """
    tau = _tau(sample, t_star)
    _check_variant(variant)
    if c_small <= 0 or nu <= 0:
        raise ValueError("c_small and nu must be positive")
    h12 = _sobolev(sample, 0.5)
    if h12 == 0:
        raise ValueError("zero h1/2 norm: the log argument vanishes")
    if variant == "eq":
        arg = 4.0 * h12 / (c_small * nu)
    else:
        arg = h12**2 / (c_small * nu)
    return tau * math.sqrt(abs(math.log(arg))) * _sobolev(sample, 2.5)


def theorem3_functional(
    sample: TrajectorySample,
    t_star: float,
    nu: float,
    c_small: float = 1.0,
    variant: str = "eq",
) -> float:
    """tau * sqrt|ln(arg)| * ||u||_h5/2 with arg built from ||u||_x-1.

    arg = 8*||u||_x-1/nu for variant "eq", ||u||_x-1/(c_small*nu) for
    variant "proof".  A zero x-1 norm is an error.
    """
    tau = _tau(sample, t_star)
    _check_variant(variant)
    if c_small <= 0 or nu <= 0:
        raise ValueError("c_small and nu must be positive")
    xm1 = _leilin(sample, -1.0)
    if xm1 == 0:
        raise ValueError("zero x-1 norm: the log argument vanishes")
    if variant == "eq":
        arg = 8.0 * xm1 / nu
    else:
        arg = xm1 / (c_small * nu)
    return tau * math.sqrt(abs(math.log(arg))) * _sobolev(sample, 2.5)


def rate_catalog(
    sample: TrajectorySample,
    t_star: float,
    s_list: tuple[float, ...] = DEFAULT_SOBOLEV_ORDERS,
    nu: float | None = None,
) -> dict[str, float | None]:
    """Historical lower-bound rates evaluated at one sample.

    Entries:

    * ``leray_h1``      tau^(1/4) * ||u||_h1
    * ``rss_h<s>``      tau^((2s-1)/4) * ||u||_hs   for s in (1/2, 5/2), s != 3/2
    * ``high_h<s>``     tau^(s/5) * ||u||_hs        for s > 5/2
    * ``h32_strong_nu`` tau^(1/2) * ||u||_h3/2 / sqrt(nu)   (only when nu given)
    * ``log_h32``       sqrt(tau*|ln tau|) * ||u||_h3/2
    * ``log_h52``       tau*|ln tau| * ||u||_h5/2

    The border order s = 5/2 is omitted: neither power family covers it
    and the dedicated functionals above do.  The two log entries are None
    at tau == 1.
    """
    tau = _tau(sample, t_star)
    out: dict[str, float | None] = {}
    out["leray_h1"] = tau**0.25 * _sobolev(sample, 1.0)
    for s in s_list:
        if 0.5 < s < 2.5 and s != 1.5:
            out[f"rss_h{s:g}"] = tau ** ((2.0 * s - 1.0) / 4.0) * _sobolev(sample, s)
        elif s > 2.5:
            out[f"high_h{s:g}"] = tau ** (s / 5.0) * _sobolev(sample, s)
    if nu is not None:
        if nu <= 0:
            raise ValueError("nu must be positive")
        out["h32_strong_nu"] = math.sqrt(tau) * _sobolev(sample, 1.5) / math.sqrt(nu)
    if tau == 1.0:
        out["log_h32"] = None
        out["log_h52"] = None
    else:
        log_tau = abs(math.log(tau))
        out["log_h32"] = math.sqrt(tau * log_tau) * _sobolev(sample, 1.5)
        out["log_h52"] = tau * log_tau * _sobolev(sample, 2.5)
    return out


@dataclass(frozen=True)
class MonitorConfig:
    """What to evaluate: candidate singular times, smallness constant, orders."""

    t_star: tuple[float, ...]
    c_small: float = 1.0
    s_list: tuple[float, ...] = DEFAULT_SOBOLEV_ORDERS

    def __post_init__(self) -> None:
        raw = self.t_star
        if isinstance(raw, (int, float)):
            raw = (raw,)
        values = tuple(float(t) for t in raw)
        if not values:
            raise ValueError("at least one t_star value is required")
        for t in values:
            if not math.isfinite(t):
                raise ValueError(f"t_star values must be finite, got {t}")
        object.__setattr__(self, "t_star", values)
        if not (math.isfinite(self.c_small) and self.c_small > 0):
            raise ValueError(f"c_small must be positive, got {self.c_small}")
        object.__setattr__(self, "s_list", tuple(float(s) for s in self.s_list))


@dataclass(frozen=True)
class FunctionalTrace:
    """One functional along one trajectory for one t_star.

    values holds None exactly where a log guard applies; NaN never
    appears.  crossings are the times where the associated smallness
    condition becomes true (including t = 0 when it starts true); traces
    without a threshold have none.
    """

    name: str
    t_star: float
    times: tuple[float, ...]
    values: tuple[float | None, ...]
    crossings: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        for v in self.values:
            if v is not None and not math.isfinite(v):
                raise ValueError(f"trace {self.name!r} has a non-finite value {v}")

    @property
    def undefined_count(self) -> int:
        return sum(1 for v in self.values if v is None)

    @property
    def defined_values(self) -> tuple[float, ...]:
        return tuple(v for v in self.values if v is not None)


def _crossings(times, flags) -> tuple[float, ...]:
    out = []
    previous = False
    for t, flag in zip(times, flags):
        if flag and not previous:
            out.append(t)
        previous = flag
    return tuple(out)


def evaluate_traces(
    trajectory: Trajectory,
    config: MonitorConfig,
    nu: float | None = None,
) -> list[FunctionalTrace]:
    """All functional traces for every configured t_star.

    nu defaults to the trajectory's recorded viscosity; it is required
    (the threshold conditions and half the functionals depend on it).
    Every t_star must lie strictly beyond the final sample time.
    """
    samples = trajectory.samples
    if not samples:
        raise ValueError("trajectory has no samples")
    if nu is None:
        nu = trajectory.nu()
    if nu is None:
        raise ValueError("viscosity not recorded in the trajectory; pass nu explicitly")
    times = tuple(s.t for s in samples)
    t_max = max(times)
    for t_star in config.t_star:
        if t_star <= t_max:
            raise ValueError(
                f"t_star = {t_star:g} must exceed the final sample time {t_max:g}"
            )
    h12_flags = [_sobolev(s, 0.5) < config.c_small * nu for s in samples]
    xm1_flags = [_leilin(s, -1.0) < nu for s in samples]
    h12_crossings = _crossings(times, h12_flags)
    xm1_crossings = _crossings(times, xm1_flags)

    traces: list[FunctionalTrace] = []
    for t_star in config.t_star:
        traces.append(
            FunctionalTrace(
                name="theorem1",
                t_star=t_star,
                times=times,
                values=tuple(theorem1_functional(s, t_star) for s in samples),
            )
        )
        for variant in LOG_VARIANTS:
            traces.append(
                FunctionalTrace(
                    name=f"theorem2_{variant}",
                    t_star=t_star,
                    times=times,
                    values=tuple(
                        theorem2_functional(s, t_star, config.c_small, nu, variant)
                        for s in samples
                    ),
                    crossings=h12_crossings,
                )
            )
        for variant in LOG_VARIANTS:
            traces.append(
                FunctionalTrace(
                    name=f"theorem3_{variant}",
                    t_star=t_star,
                    times=times,
                    values=tuple(
                        theorem3_functional(s, t_star, nu, config.c_small, variant)
                        for s in samples
                    ),
                    crossings=xm1_crossings,
                )
            )
        catalogs = [rate_catalog(s, t_star, config.s_list, nu) for s in samples]
        for key in catalogs[0]:
            traces.append(
                FunctionalTrace(
                    name=key,
                    t_star=t_star,
                    times=times,
                    values=tuple(c[key] for c in catalogs),
                )
            )
    return traces


@dataclass(frozen=True)
class IntervalReport:
    """Per-interval differential inequality lhs <= C * rhs_density.

    empirical_constant is the largest ratio over intervals with positive
    lhs (0 when the lhs never turns positive); holds records whether that
    constant closes the inequality on every interval.
    """

    name: str
    midpoints: tuple[float, ...]
    lhs: tuple[float, ...]
    rhs_density: tuple[float, ...]
    empirical_constant: float
    holds: bool


def h52_energy_residual(trajectory: Trajectory, nu: float | None = None) -> IntervalReport:
    """Growth-vs-dissipation balance of ||u||_h5/2^2.

    Per sample interval: lhs = d/dt ||u||_h5/2^2 + 2 nu ||u||_h7/2^2 and
    rhs_density = ||u||_x1 * ||u||_h5/2^2, both midpoint-estimated by
    endpoint averages (the difference quotient is already centered).
    """
    if nu is None:
        nu = trajectory.nu()
    if nu is None:
        raise ValueError("viscosity not recorded in the trajectory; pass nu explicitly")
    if len(trajectory.samples) < 2:
        raise ValueError("need at least 2 samples to form intervals")
    t = np.array(trajectory.times)
    h52 = np.array(trajectory.series("h2.5"))
    h72 = np.array(trajectory.series("h3.5"))
    x1 = np.array(trajectory.series("x1"))
    lhs = np.diff(h52**2) / np.diff(t) + 2.0 * nu * 0.5 * (h72[:-1] ** 2 + h72[1:] ** 2)
    density = x1 * h52**2
    rhs = 0.5 * (density[:-1] + density[1:])
    constant = 0.0
    holds = True
    for left, right in zip(lhs, rhs):
        if left > 0:
            if right <= 0:
                constant = math.inf
                holds = False
            else:
                constant = max(constant, left / right)
    return IntervalReport(
        name="h52_energy",
        midpoints=tuple(float(v) for v in 0.5 * (t[:-1] + t[1:])),
        lhs=tuple(float(v) for v in lhs),
        rhs_density=tuple(float(v) for v in rhs),
        empirical_constant=constant,
        holds=holds,
    )


@dataclass(frozen=True)
class GrowthReport:
    """Integrated growth bound log_ratio(t) <= C * integral(t).

    log_ratio is the log of the tracked quantity relative to its initial
    value; integral is the cumulative trapezoid of ||u||_h5/2.  The
    empirical constant is the smallest admissible C (0 for decay).
    """

    name: str
    times: tuple[float, ...]
    log_ratio: tuple[float, ...]
    integral: tuple[float, ...]
    empirical_constant: float
    holds: bool


def _growth_report(name: str, times, tracked, weight) -> GrowthReport:
    t = np.asarray(times)
    values = np.asarray(tracked)
    if np.any(values <= 0):
        raise ValueError(f"{name} requires strictly positive norms along the trajectory")
    log_ratio = np.log(values / values[0])
    integral = cumulative_trapezoid(np.asarray(weight), t, initial=0.0)
    constant = 0.0
    for lr, q in zip(log_ratio[1:], integral[1:]):
        if lr > 0:
            constant = math.inf if q <= 0 else max(constant, lr / q)
    holds = all(
        lr <= constant * q or lr <= 0
        for lr, q in zip(log_ratio[1:], integral[1:])
    )
    return GrowthReport(
        name=name,
        times=tuple(float(v) for v in t),
        log_ratio=tuple(float(v) for v in log_ratio),
        integral=tuple(float(v) for v in integral),
        empirical_constant=constant,
        holds=holds,
    )


def h12_log_growth_check(
    trajectory: Trajectory, c_small: float = 1.0, nu: float | None = None
) -> GrowthReport:
    """ln ||u(t)||_h1/2^2 <= ln ||u0||_h1/2^2 + C0 * int_0^t ||u||_h5/2.

    The smallness normalization c_small*nu cancels from both sides, so
    only the ratio to the initial value matters; C0 is the smallest
    constant making the bound hold (0 on decaying runs).
    """
    if len(trajectory.samples) < 2:
        raise ValueError("need at least 2 samples")
    h12 = np.array(trajectory.series("h0.5"))
    h52 = np.array(trajectory.series("h2.5"))
    return _growth_report("h12_log_growth", trajectory.times, h12**2, h52)


def xm1_gronwall_check(trajectory: Trajectory) -> GrowthReport:
    """||u(t)||_x-1 <= ||u0||_x-1 * exp(C' * int_0^t ||u||_h5/2)."""
    if len(trajectory.samples) < 2:
        raise ValueError("need at least 2 samples")
    xm1 = np.array(trajectory.series("x-1"))
    h52 = np.array(trajectory.series("h2.5"))
    return _growth_report("xm1_gronwall", trajectory.times, xm1, h52)


def rate_forward(x: float) -> float:
    """x * sqrt(ln x) for x >= 1."""
    if x < 1.0:
        raise ValueError(f"rate_forward needs x >= 1, got {x}")
    return x * math.sqrt(math.log(x))


def invert_rate(y: float) -> float:
    """The unique x >= 4 with x*sqrt(ln x) = y, for y >= 4*sqrt(ln 4).

    Bracketed root-finding on the monotone branch; asymptotically
    x ~ y/sqrt(ln y).
    """
    if not (math.isfinite(y) and y >= RATE_RANGE_START * (1.0 - 1e-12)):
        raise ValueError(
            f"y must be at least 4*sqrt(ln 4) = {RATE_RANGE_START:.12g}, got {y}"
        )
    y = max(y, RATE_RANGE_START)
    hi = 8.0
    while rate_forward(hi) < y:
        hi *= 2.0
    root = brentq(lambda x: rate_forward(x) - y, RATE_DOMAIN_START, hi, rtol=1e-14)
    return float(root)


# ---------------------------------------------------------------------------
# Reporting


def write_monitor_csv(traces, stream) -> None:
    """One row per trace sample: functional,t_star,t,value ('' = undefined)."""
    rows = [
        {
            "functional": trace.name,
            "t_star": float(trace.t_star),
            "t": float(t),
            "value": None if value is None else float(value),
        }
        for trace in traces
        for t, value in zip(trace.times, trace.values)
    ]
    stream.write(table_text("nsvlab-monitor v1", ("functional", "t_star", "t", "value"), rows))


def monitor_summary(
    traces,
    energy: IntervalReport | None = None,
    log_growth: GrowthReport | None = None,
    gronwall: GrowthReport | None = None,
) -> dict:
    """JSON-ready digest: per-trace extrema and crossings, plus the
    empirical constants of the differential-inequality checks."""
    functionals = []
    for trace in traces:
        defined = trace.defined_values
        functionals.append(
            {
                "name": trace.name,
                "t_star": trace.t_star,
                "min": min(defined) if defined else None,
                "max": max(defined) if defined else None,
                "undefined": trace.undefined_count,
                "crossings": list(trace.crossings),
            }
        )
    out: dict = {
        "format": "nsvlab-monitor-summary",
        "version": 1,
        "functionals": functionals,
    }
    for key, report in (
        ("h52_energy", energy),
        ("h12_log_growth", log_growth),
        ("xm1_gronwall", gronwall),
    ):
        if report is not None:
            out[key] = {
                "empirical_constant": report.empirical_constant,
                "holds": report.holds,
            }
    return out
