"""Dealiased pseudo-spectral solver for incompressible flow on the torus.

Integrates u_t - nu*Lap(u) + P[u.grad u] = 0 (unforced, decaying) on a
periodic cube.  Two integrators:

* ``rk4``  - classical Runge-Kutta on the full right-hand side.  The
  explicit diffusion limits the step: dt * nu * max|k|^2 must stay below
  the real-axis stability bound (about 2.785).
* ``imex`` - integrating-factor Euler: the diffusion multiplier
  exp(-nu |k|^2 dt) is applied exactly and only advection is explicit.
  With advection disabled a single mode decays exactly (to roundoff).

Advection is evaluated in divergence form, div(u (x) u), with its six
distinct products formed on a grid through the real transform pair of
:mod:`nsvlab.fields`.  The products are dealiased per config: the
two-thirds rule masks |k| strictly below (2/3) * Nyquist on the n-point
grid (the strict inequality keeps wrapped images out of the retained band
when 3 divides n); the three-halves rule zero-pads to the 3n/2-point grid
and drops the Nyquist planes of state and term, which makes it exact.

The solver state is the half layout ``(3, n, n, n//2 + 1)`` of the
velocity's coefficients; the projection, the diffusion multiplier, the mask
and the derivative wavenumbers are half-layout views of the lattice grids.
It becomes a full-layout :class:`VelocityField` only where it leaves the
solver: emitted samples, the result of :func:`step` and of
:func:`nonlinear_term`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from ._version import __version__
from .fields import (
    MEAN_TOLERANCE,
    Lattice,
    NonzeroMeanError,
    ScalarSpectralField,
    VelocityField,
    from_grid,
    full_spectrum,
    half_spectrum,
    project_arrays,
    to_grid,
)
from .norms import full_report
from .products import padded_size
from .trajectory import Trajectory, TrajectorySample

__all__ = [
    "RK4_DIFFUSIVE_LIMIT",
    "DEALIAS_RULES",
    "INTEGRATORS",
    "SolverConfig",
    "SolverState",
    "SchemeBlowupError",
    "max_velocity",
    "resolve_dt",
    "nonlinear_term",
    "step",
    "integrate",
    "energy_balance_residual",
]

# Real-axis stability bound of classical RK4 (|R(z)| = 1 at z ~ -2.7853).
RK4_DIFFUSIVE_LIMIT = 2.785

DEALIAS_RULES = ("two-thirds", "three-halves")
INTEGRATORS = ("rk4", "imex")


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters; dt may be a positive float or "auto"."""

    nu: float
    dt: float | str = "auto"
    t_end: float = 1.0
    dealias: str = "two-thirds"
    integrator: str = "rk4"
    sample_every: int = 1
    cfl: float = 0.4
    advection: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"viscosity must be positive, got {self.nu}")
        if self.dt != "auto":
            dt = float(self.dt)
            if not (math.isfinite(dt) and dt > 0):
                raise ValueError(f"dt must be positive or 'auto', got {self.dt!r}")
            object.__setattr__(self, "dt", dt)
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        if self.dealias not in DEALIAS_RULES:
            raise ValueError(f"dealias must be one of {DEALIAS_RULES}, got {self.dealias!r}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}")
        if not (isinstance(self.sample_every, int) and self.sample_every >= 1):
            raise ValueError(f"sample_every must be a positive integer, got {self.sample_every!r}")
        if not (math.isfinite(self.cfl) and self.cfl > 0):
            raise ValueError(f"cfl must be positive, got {self.cfl}")

    def to_record(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolverState:
    t: float
    u: VelocityField


class SchemeBlowupError(RuntimeError):
    """The discrete scheme produced non-finite coefficients."""

    def __init__(self, t: float, step_index: int):
        self.t = t
        self.step_index = step_index
        super().__init__(
            f"non-finite coefficients after step {step_index} (t = {t:.6g}); "
            "the discrete scheme blew up"
        )


@lru_cache(maxsize=None)
def _dealias_mask(n: int, period: float) -> np.ndarray:
    lat = Lattice(n, period)
    mask = half_spectrum(lat.kmag) < (2.0 / 3.0) * lat.nyquist
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=None)
def _max_ksq(n: int, period: float) -> float:
    return float(Lattice(n, period).ksq.max())


def max_velocity(u: VelocityField) -> float:
    """Maximum pointwise speed on the grid."""
    total = sum(to_grid(half_spectrum(c.coefficients), u.lattice.n) ** 2 for c in u.components)
    return float(np.sqrt(total.max()))


def _check_rk4_stability(dt: float, nu: float, lattice: Lattice) -> None:
    z = dt * nu * _max_ksq(lattice.n, lattice.period)
    if z > RK4_DIFFUSIVE_LIMIT * (1.0 + 1e-9):
        raise ValueError(
            f"rk4 diffusive stability violated: dt*nu*max|k|^2 = {z:.3g} "
            f"> {RK4_DIFFUSIVE_LIMIT}; reduce dt or use the imex integrator"
        )


def resolve_dt(u0: VelocityField, config: SolverConfig) -> float:
    """Numeric step size for a run starting from u0.

    "auto" combines the advective CFL limit on u0 with the rk4 diffusive
    limit (imex has none); resolved once per run, so trajectories stay
    reproducible.  Explicit rk4 steps are validated against the diffusive
    bound either way.
    """
    lat = u0.lattice
    if config.dt != "auto":
        dt = float(config.dt)
        if config.integrator == "rk4":
            _check_rk4_stability(dt, config.nu, lat)
        return dt
    candidates = []
    umax = max_velocity(u0) if config.advection else 0.0
    if umax > 0:
        candidates.append(config.cfl * lat.spacing / umax)
    if config.integrator == "rk4":
        candidates.append(0.9 * RK4_DIFFUSIVE_LIMIT / (config.nu * _max_ksq(lat.n, lat.period)))
    if config.t_end > 0:
        candidates.append(config.t_end)
    return min(candidates) if candidates else 1.0


def _zero_nyquist(stack: np.ndarray) -> None:
    half = stack.shape[1] // 2
    stack[:, half, :, :] = 0.0
    stack[:, :, half, :] = 0.0
    stack[:, :, :, half] = 0.0


def _solver_stack(u: VelocityField, dealias: str) -> np.ndarray:
    """The half layout of u's coefficients as the solver advances them: the
    three-halves rule is exact only without the Nyquist planes, so they are
    zeroed."""
    stack = np.stack([half_spectrum(c.coefficients) for c in u.components])
    if dealias == "three-halves":
        _zero_nyquist(stack)
    return stack


def _velocity(stack: np.ndarray, lattice: Lattice) -> VelocityField:
    """The full-layout field of a half-layout solver stack."""
    full = full_spectrum(stack, lattice.n)
    return VelocityField(tuple(ScalarSpectralField(lattice, c) for c in full))


def _advection_arrays(stack: np.ndarray, lattice: Lattice, dealias: str) -> np.ndarray:
    """div(u(x)u) as dealiased half-layout coefficients."""
    n = lattice.n
    kd = [half_spectrum(k) for k in lattice.k_deriv]
    if dealias == "two-thirds":
        mask = _dealias_mask(n, lattice.period)
        stack = stack * mask
        n_grid = n
    else:  # three-halves: zero-padded products, exact for Nyquist-free states
        mask = None
        n_grid = padded_size(n)
    vel = [to_grid(c, n_grid) for c in stack]
    # d_j (u_i u_j): six distinct products
    flux = {}
    for i in range(3):
        for j in range(i, 3):
            t_ij = from_grid(vel[i] * vel[j], n)
            flux[(i, j)] = t_ij if mask is None else t_ij * mask
    out = np.empty_like(stack)
    for i in range(3):
        total = np.zeros(stack.shape[1:], dtype=np.complex128)
        for j in range(3):
            total += 1j * kd[j] * flux[(min(i, j), max(i, j))]
        out[i] = total
    if mask is None:
        _zero_nyquist(out)
    return out


def _nonlinear_arrays(stack: np.ndarray, lattice: Lattice, dealias: str) -> np.ndarray:
    adv = _advection_arrays(stack, lattice, dealias)
    term = project_arrays(adv, lattice)
    np.negative(term, out=term)
    term[:, 0, 0, 0] = 0.0
    return term


def nonlinear_term(u: VelocityField, dealias: str = "two-thirds") -> VelocityField:
    """-P[div(u(x)u)] = -P[u.grad u] for div-free u, dealiased.

    Under the three-halves rule u's Nyquist planes are dropped first, as
    :func:`step` and :func:`integrate` drop them from the state.
    """
    if dealias not in DEALIAS_RULES:
        raise ValueError(f"dealias must be one of {DEALIAS_RULES}, got {dealias!r}")
    lat = u.lattice
    return _velocity(_nonlinear_arrays(_solver_stack(u, dealias), lat, dealias), lat)


def _rhs(stack: np.ndarray, lattice: Lattice, config: SolverConfig) -> np.ndarray:
    out = -config.nu * half_spectrum(lattice.ksq) * stack
    if config.advection:
        out += _nonlinear_arrays(stack, lattice, config.dealias)
    return out


def _step_arrays(
    stack: np.ndarray, lattice: Lattice, config: SolverConfig, dt: float
) -> np.ndarray:
    if config.integrator == "rk4":
        k1 = _rhs(stack, lattice, config)
        k2 = _rhs(stack + (0.5 * dt) * k1, lattice, config)
        k3 = _rhs(stack + (0.5 * dt) * k2, lattice, config)
        k4 = _rhs(stack + dt * k3, lattice, config)
        new = stack + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    else:  # integrating-factor Euler: exact diffusion multiplier
        new = stack.copy()
        if config.advection:
            new += dt * _nonlinear_arrays(stack, lattice, config.dealias)
        new *= np.exp(-config.nu * half_spectrum(lattice.ksq) * dt)
    new = project_arrays(new, lattice)
    new[:, 0, 0, 0] = 0.0
    return new


def step(state: SolverState, config: SolverConfig, dt: float | None = None) -> SolverState:
    """Advance one step; raises SchemeBlowupError on non-finite output."""
    lat = state.u.lattice
    if dt is None:
        dt = resolve_dt(state.u, config)
    elif config.integrator == "rk4":
        _check_rk4_stability(dt, config.nu, lat)
    new = _step_arrays(_solver_stack(state.u, config.dealias), lat, config, dt)
    if not np.isfinite(new).all():
        raise SchemeBlowupError(state.t + dt, 1)
    return SolverState(t=state.t + dt, u=_velocity(new, lat))


def _validate_initial(u0: VelocityField) -> None:
    if u0.mean_magnitude() > MEAN_TOLERANCE * max(u0.max_abs_coefficient(), 1e-300):
        raise NonzeroMeanError("initial velocity has a nonzero mean")
    defect = u0.divergence_defect()
    if defect > 1e-8:
        raise ValueError(f"initial velocity is not divergence-free (defect {defect:.3g})")


def integrate(u0: VelocityField, config: SolverConfig, hooks=()) -> Trajectory:
    """Run from u0 to t_end, sampling norms every sample_every steps.

    Steps are uniform; the run ends at the first multiple of dt at or
    beyond t_end.  The first and final states are always sampled.  On a
    scheme blow-up the trajectory is returned with ``failed`` set and the
    failure reason recorded; samples collected so far are kept.
    """
    _validate_initial(u0)
    lat = u0.lattice
    dt = resolve_dt(u0, config)
    n_steps = int(math.ceil(config.t_end / dt - 1e-9)) if config.t_end > 0 else 0
    config_echo = config.to_record()
    config_echo["dt_resolved"] = dt
    trajectory = Trajectory(
        lattice_n=lat.n,
        period=lat.period,
        config=config_echo,
        code_version=__version__,
        samples=[],
    )
    stack = _solver_stack(u0, config.dealias)

    def emit(step_index: int, t: float, arrays: np.ndarray) -> None:
        u = _velocity(arrays, lat)
        sample = TrajectorySample(t=t, step_index=step_index, dt=dt, norms=full_report(u))
        trajectory.samples.append(sample)
        state = SolverState(t=t, u=u)
        for hook in hooks:
            hook(sample, state)

    emit(0, 0.0, stack)
    for i in range(1, n_steps + 1):
        stack = _step_arrays(stack, lat, config, dt)
        t = i * dt
        if not np.isfinite(stack).all():
            trajectory.failed = True
            trajectory.failure_reason = (
                f"non-finite coefficients after step {i} (t = {t:.6g})"
            )
            break
        if i % config.sample_every == 0 or i == n_steps:
            emit(i, t, stack)
    return trajectory


def energy_balance_residual(trajectory: Trajectory, nu: float | None = None) -> np.ndarray:
    """|Delta(0.5 ||u||_L2^2)/Delta t + nu ||u||_H1^2| per sample interval.

    The dissipation integrand is estimated at the interval midpoint by the
    endpoint average (second order, matching the sampling).
    """
    if nu is None:
        nu = trajectory.nu()
    if nu is None:
        raise ValueError("viscosity not in the trajectory config; pass nu explicitly")
    if len(trajectory.samples) < 2:
        raise ValueError("need at least 2 samples to form intervals")
    t = np.array(trajectory.times)
    l2 = np.array(trajectory.series("l2"))
    h1 = np.array(trajectory.series("h1"))
    energy = 0.5 * l2**2
    d_dt = np.diff(energy) / np.diff(t)
    dissipation = nu * 0.5 * (h1[:-1] ** 2 + h1[1:] ** 2)
    return np.abs(d_dt + dissipation)
