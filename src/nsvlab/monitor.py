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
* Each differential-inequality check fits the smallest constant C with
  lhs <= C * rhs wherever lhs > 0; it holds exactly when C is finite,
  so a NaN norm, which leaves an interval unevaluated, fails the check.

Two inequality statements come with an ambiguous log argument (a factor
4*norm/(c*nu) in one place, norm^2/(c*nu) in another); both variants are
computed side by side, tagged "eq" and "proof".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    "monitor_checks",
    "monitor_summary",
]

LOG_VARIANTS = ("eq", "proof")

# x*sqrt(ln x) restricted to x >= 4 is a monotone bijection onto
# [4*sqrt(ln 4), inf); invert_rate works on that branch.
RATE_DOMAIN_START = 4.0
RATE_RANGE_START = RATE_DOMAIN_START * math.sqrt(math.log(RATE_DOMAIN_START))


def _norm(sample: TrajectorySample, kind: str, order: float) -> float:
    """||u||_h<order> (kind "h") or ||u||_x<order> (kind "x") at one sample."""
    norms = sample.norms.hdot if kind == "h" else sample.norms.leilin
    if order not in norms:
        tracked = ", ".join(f"{kind}{o:g}" for o in sorted(norms))
        raise ValueError(
            f"sample at t = {sample.t:g} has no {kind}{order:g} norm; it tracks {tracked}"
        )
    return norms[order]


def _tau(sample: TrajectorySample, t_star: float) -> float:
    tau = t_star - sample.t
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(
            f"t_star must lie strictly beyond the sample time "
            f"(t_star = {t_star:g}, t = {sample.t:g})"
        )
    return tau


def _log_h52(sample: TrajectorySample, tau: float, arg: float) -> float:
    """tau * sqrt|ln arg| * ||u||_h5/2, the one body of Theorems 1-3."""
    return tau * math.sqrt(abs(math.log(arg))) * _norm(sample, "h", 2.5)


def _smallness_norm(sample, kind: str, order: float, c_small, nu, variant: str) -> float:
    """The checked norm that builds the log argument of Theorems 2 and 3."""
    if variant not in LOG_VARIANTS:
        raise ValueError(f"variant must be one of {LOG_VARIANTS}, got {variant!r}")
    if c_small <= 0 or nu <= 0:
        raise ValueError("c_small and nu must be positive")
    value = _norm(sample, kind, order)
    if value == 0:
        raise ValueError(f"zero {kind}{order:g} norm: the log argument vanishes")
    return value


def theorem1_functional(sample: TrajectorySample, t_star: float) -> float | None:
    """tau * sqrt|ln tau| * ||u||_h5/2; None at tau == 1 (log vanishes)."""
    tau = _tau(sample, t_star)
    return None if tau == 1.0 else _log_h52(sample, tau, tau)


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
    h12 = _smallness_norm(sample, "h", 0.5, c_small, nu, variant)
    arg = 4.0 * h12 / (c_small * nu) if variant == "eq" else h12**2 / (c_small * nu)
    return _log_h52(sample, tau, arg)


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
    xm1 = _smallness_norm(sample, "x", -1.0, c_small, nu, variant)
    arg = 8.0 * xm1 / nu if variant == "eq" else xm1 / (c_small * nu)
    return _log_h52(sample, tau, arg)


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
    out["leray_h1"] = tau**0.25 * _norm(sample, "h", 1.0)
    for s in s_list:
        if 0.5 < s < 2.5 and s != 1.5:
            out[f"rss_h{s:g}"] = tau ** ((2.0 * s - 1.0) / 4.0) * _norm(sample, "h", s)
        elif s > 2.5:
            out[f"high_h{s:g}"] = tau ** (s / 5.0) * _norm(sample, "h", s)
    if nu is not None:
        if nu <= 0:
            raise ValueError("nu must be positive")
        out["h32_strong_nu"] = math.sqrt(tau) * _norm(sample, "h", 1.5) / math.sqrt(nu)
    if tau == 1.0:
        out["log_h32"] = None
        out["log_h52"] = None
    else:
        log_tau = abs(math.log(tau))
        out["log_h32"] = math.sqrt(tau * log_tau) * _norm(sample, "h", 1.5)
        out["log_h52"] = tau * log_tau * _norm(sample, "h", 2.5)
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
    nu = trajectory._checked_nu(nu, min_samples=1)
    samples = trajectory.samples
    times = tuple(trajectory.times)  # strictly increasing: checked above
    for t_star in config.t_star:
        if t_star <= times[-1]:
            raise ValueError(
                f"t_star = {t_star:g} must exceed the final sample time {times[-1]:g}"
            )
    h12_crossings = _crossings(times, [_norm(s, "h", 0.5) < config.c_small * nu for s in samples])
    xm1_crossings = _crossings(times, [_norm(s, "x", -1.0) < nu for s in samples])

    traces: list[FunctionalTrace] = []
    for t_star in config.t_star:
        # name -> (values, crossings), in output order
        table = {"theorem1": ([theorem1_functional(s, t_star) for s in samples], ())}
        for variant in LOG_VARIANTS:
            table[f"theorem2_{variant}"] = (
                [theorem2_functional(s, t_star, config.c_small, nu, variant) for s in samples],
                h12_crossings,
            )
        for variant in LOG_VARIANTS:
            table[f"theorem3_{variant}"] = (
                [theorem3_functional(s, t_star, nu, config.c_small, variant) for s in samples],
                xm1_crossings,
            )
        catalogs = [rate_catalog(s, t_star, config.s_list, nu) for s in samples]
        for key in catalogs[0]:
            table[key] = ([c[key] for c in catalogs], ())
        traces += [
            FunctionalTrace(name, t_star, times, tuple(values), crossings)
            for name, (values, crossings) in table.items()
        ]
    return traces


def _empirical_constant(lhs, rhs) -> float:
    """The smallest C with lhs <= C * rhs wherever lhs > 0.

    0 when lhs never turns positive; inf when a positive lhs meets
    rhs <= 0, so that no finite C closes the inequality; NaN when a NaN
    lhs or rhs leaves an interval unevaluated.
    """
    active = ~(lhs <= 0)
    if not active.any():
        return 0.0
    if (rhs[active] <= 0).any():
        return math.inf
    return float(np.max(lhs[active] / rhs[active]))


@dataclass(frozen=True)
class IntervalReport:
    """Per-interval differential inequality lhs <= C * rhs_density.

    empirical_constant is the largest ratio over intervals with positive
    lhs (0 when the lhs never turns positive); holds is true exactly when
    it is finite.
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
    nu = trajectory._checked_nu(nu)
    t = np.array(trajectory.times)
    h52 = np.array(trajectory.series("h2.5"))
    h72 = np.array(trajectory.series("h3.5"))
    x1 = np.array(trajectory.series("x1"))
    lhs = np.diff(h52**2) / np.diff(t) + 2.0 * nu * 0.5 * (h72[:-1] ** 2 + h72[1:] ** 2)
    density = x1 * h52**2
    rhs = 0.5 * (density[:-1] + density[1:])
    constant = _empirical_constant(lhs, rhs)
    return IntervalReport(
        name="h52_energy",
        midpoints=tuple(float(v) for v in 0.5 * (t[:-1] + t[1:])),
        lhs=tuple(float(v) for v in lhs),
        rhs_density=tuple(float(v) for v in rhs),
        empirical_constant=constant,
        holds=math.isfinite(constant),
    )


@dataclass(frozen=True)
class GrowthReport:
    """Integrated growth bound log_ratio(t) <= C * integral(t).

    log_ratio is the log of the tracked quantity relative to its initial
    value; integral is the cumulative trapezoid of ||u||_h5/2.  The
    empirical constant is the smallest admissible C (0 for decay); holds
    is true exactly when it is finite.
    """

    name: str
    times: tuple[float, ...]
    log_ratio: tuple[float, ...]
    integral: tuple[float, ...]
    empirical_constant: float
    holds: bool


def _growth_report(name: str, trajectory: Trajectory, key: str, power: int) -> GrowthReport:
    """The bound for the tracked quantity ||u||^power, ||u|| the ``key`` column."""
    trajectory._check_samples()
    t = np.array(trajectory.times)
    tracked = np.array(trajectory.series(key)) ** power
    h52 = np.array(trajectory.series("h2.5"))
    if np.any(tracked <= 0):
        raise ValueError(f"{name} requires strictly positive norms along the trajectory")
    log_ratio = np.log(tracked / tracked[0])
    integral = np.concatenate(([0.0], np.cumsum(np.diff(t) * (h52[1:] + h52[:-1]) / 2.0)))
    constant = _empirical_constant(log_ratio[1:], integral[1:])
    return GrowthReport(
        name=name,
        times=tuple(float(v) for v in t),
        log_ratio=tuple(float(v) for v in log_ratio),
        integral=tuple(float(v) for v in integral),
        empirical_constant=constant,
        holds=math.isfinite(constant),
    )


def h12_log_growth_check(trajectory: Trajectory) -> GrowthReport:
    """ln ||u(t)||_h1/2^2 <= ln ||u0||_h1/2^2 + C0 * int_0^t ||u||_h5/2.

    The smallness normalization c_small*nu cancels from both sides, so
    neither enters: only the ratio to the initial value matters.  C0 is
    the smallest constant making the bound hold (0 on decaying runs).
    """
    return _growth_report("h12_log_growth", trajectory, "h0.5", 2)


def xm1_gronwall_check(trajectory: Trajectory) -> GrowthReport:
    """||u(t)||_x-1 <= ||u0||_x-1 * exp(C' * int_0^t ||u||_h5/2)."""
    return _growth_report("xm1_gronwall", trajectory, "x-1", 1)


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
    from scipy.optimize import brentq  # imported here: no command inverts a rate

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


def monitor_checks(trajectory: Trajectory, nu: float | None = None) -> dict[str, dict]:
    """The three differential-inequality entries of ``monitor_summary.json``.

    A check that runs gives ``available``, ``empirical_constant`` and
    ``holds``; one that cannot (fewer than 2 samples, a missing norm
    column) gives ``available`` and the ``reason``.
    """
    checks = {
        "h52_energy": lambda: h52_energy_residual(trajectory, nu=nu),
        "h12_log_growth": lambda: h12_log_growth_check(trajectory),
        "xm1_gronwall": lambda: xm1_gronwall_check(trajectory),
    }
    entries = {}
    for key, run in checks.items():
        try:
            report = run()
        except ValueError as exc:
            entries[key] = {"available": False, "reason": str(exc)}
            continue
        entries[key] = {
            "available": True,
            "empirical_constant": report.empirical_constant,
            "holds": report.holds,
        }
    return entries


def monitor_summary(traces) -> dict:
    """JSON-ready digest: per-trace extrema and crossings."""
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
    return {
        "format": "nsvlab-monitor-summary",
        "version": 1,
        "functionals": functionals,
    }
