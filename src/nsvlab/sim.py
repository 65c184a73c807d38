"""Dealiased pseudo-spectral solver for incompressible flow on the torus.

Integrates u_t - nu*Lap(u) + P[u.grad u] = 0 (unforced, decaying) on a
periodic cube.  Two integrators:

* ``rk4``  - classical Runge-Kutta on the full right-hand side.  The
  explicit diffusion limits the step: dt * nu * max|k|^2 must stay below
  the real-axis stability bound (about 2.785).
* ``imex`` - integrating-factor Euler: the diffusion multiplier
  exp(-nu |k|^2 dt) is applied exactly and only advection is explicit.
  With advection disabled a single mode decays exactly (to roundoff).

Advection products are dealiased per config: the two-thirds rule masks
|k| strictly below (2/3) * Nyquist (the strict inequality keeps wrapped
images out of the retained band when 3 divides n), the three-halves rule
zero-pads products and is exact for Nyquist-free states.  Both the
convective form u.grad(u) and the divergence form div(u (x) u) are
implemented; they agree to roundoff for divergence-free input.
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
    project_arrays,
)
from .norms import full_report
from .products import embed_coefficients, padded_size, restrict_coefficients
from .trajectory import Trajectory, TrajectorySample

__all__ = [
    "RK4_DIFFUSIVE_LIMIT",
    "DEALIAS_RULES",
    "INTEGRATORS",
    "ADVECTION_FORMS",
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
ADVECTION_FORMS = ("divergence", "convective")


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
    advection_form: str = "divergence"

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
        if self.advection_form not in ADVECTION_FORMS:
            raise ValueError(
                f"advection_form must be one of {ADVECTION_FORMS}, got {self.advection_form!r}"
            )

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
    mask = lat.kmag < (2.0 / 3.0) * lat.nyquist
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=None)
def _max_ksq(n: int, period: float) -> float:
    return float(Lattice(n, period).ksq.max())


def max_velocity(u: VelocityField) -> float:
    """Maximum pointwise speed on the grid."""
    n = u.lattice.n
    total = np.zeros(u.lattice.shape)
    for c in u.components:
        total += (np.real(np.fft.ifftn(c.coefficients)) * float(n**3)) ** 2
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
    half = stack.shape[-1] // 2
    stack[:, half, :, :] = 0.0
    stack[:, :, half, :] = 0.0
    stack[:, :, :, half] = 0.0


def _advection_arrays(
    stack: np.ndarray, lattice: Lattice, dealias: str, form: str
) -> np.ndarray:
    """u.grad u (equivalently div(u(x)u)) as dealiased coefficients."""
    n = lattice.n
    kd = lattice.k_deriv
    if dealias == "two-thirds":
        mask = _dealias_mask(n, lattice.period)
        c = stack * mask
        vel = [np.real(np.fft.ifftn(c[i])) * float(n**3) for i in range(3)]

        def spectral(values: np.ndarray) -> np.ndarray:
            return (np.fft.fftn(values) / float(n**3)) * mask

    else:  # three-halves: zero-padded products, exact for Nyquist-free states
        n_pad = padded_size(n)
        c = stack
        vel = [
            np.real(np.fft.ifftn(embed_coefficients(c[i], n_pad))) * float(n_pad**3)
            for i in range(3)
        ]

        def spectral(values: np.ndarray) -> np.ndarray:
            return restrict_coefficients(np.fft.fftn(values) / float(n_pad**3), n)

    out = np.empty_like(stack)
    if form == "divergence":
        # d_j (u_i u_j): six distinct products
        flux = {}
        for i in range(3):
            for j in range(i, 3):
                flux[(i, j)] = spectral(vel[i] * vel[j])
        for i in range(3):
            total = np.zeros(lattice.shape, dtype=np.complex128)
            for j in range(3):
                t_ij = flux[(min(i, j), max(i, j))]
                total += 1j * kd[j] * t_ij
            out[i] = total
    else:  # convective u_j d_j u_i
        if dealias == "two-thirds":
            grads = [
                [np.real(np.fft.ifftn(1j * kd[j] * c[i])) * float(n**3) for j in range(3)]
                for i in range(3)
            ]
        else:
            n_pad = padded_size(n)
            grads = [
                [
                    np.real(np.fft.ifftn(embed_coefficients(1j * kd[j] * c[i], n_pad)))
                    * float(n_pad**3)
                    for j in range(3)
                ]
                for i in range(3)
            ]
        for i in range(3):
            values = vel[0] * grads[i][0] + vel[1] * grads[i][1] + vel[2] * grads[i][2]
            out[i] = spectral(values)
    if dealias == "three-halves":
        _zero_nyquist(out)
    return out


def _nonlinear_arrays(
    stack: np.ndarray, lattice: Lattice, dealias: str, form: str
) -> np.ndarray:
    adv = _advection_arrays(stack, lattice, dealias, form)
    term = project_arrays(adv, lattice)
    np.negative(term, out=term)
    term[:, 0, 0, 0] = 0.0
    return term


def nonlinear_term(
    u: VelocityField, dealias: str = "two-thirds", form: str = "divergence"
) -> VelocityField:
    """-P[u.grad u], dealiased; equal to -P[div(u(x)u)] for div-free u."""
    if dealias not in DEALIAS_RULES:
        raise ValueError(f"dealias must be one of {DEALIAS_RULES}, got {dealias!r}")
    if form not in ADVECTION_FORMS:
        raise ValueError(f"form must be one of {ADVECTION_FORMS}, got {form!r}")
    lat = u.lattice
    arrays = _nonlinear_arrays(u.coefficient_stack(), lat, dealias, form)
    return VelocityField(tuple(ScalarSpectralField(lat, a) for a in arrays))


def _rhs(stack: np.ndarray, lattice: Lattice, config: SolverConfig) -> np.ndarray:
    out = -config.nu * lattice.ksq * stack
    if config.advection:
        out += _nonlinear_arrays(stack, lattice, config.dealias, config.advection_form)
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
            new += dt * _nonlinear_arrays(stack, lattice, config.dealias, config.advection_form)
        new *= np.exp(-config.nu * lattice.ksq * dt)
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
    stack = state.u.coefficient_stack()
    if config.dealias == "three-halves":
        _zero_nyquist(stack)
    new = _step_arrays(stack, lat, config, dt)
    if not np.isfinite(new).all():
        raise SchemeBlowupError(state.t + dt, 1)
    u = VelocityField(tuple(ScalarSpectralField(lat, c) for c in new))
    return SolverState(t=state.t + dt, u=u)


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
    stack = u0.coefficient_stack()
    if config.dealias == "three-halves":
        _zero_nyquist(stack)

    def emit(step_index: int, t: float, arrays: np.ndarray) -> None:
        u = VelocityField(tuple(ScalarSpectralField(lat, c) for c in arrays))
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
