"""Dealiased pseudo-spectral solver for incompressible flow on the torus.

Integrates u_t - nu*Lap(u) + P[u.grad u] = 0 (unforced, decaying) on a
periodic cube.  Two integrators:

* ``rk4``  - classical Runge-Kutta on the full right-hand side.  The
  explicit diffusion limits the step: dt * nu * max|k|^2 must stay below
  the real-axis stability bound (about 2.785).
* ``imex`` - integrating-factor Euler: the diffusion multiplier
  exp(-nu |k|^2 dt) is applied exactly and only advection is explicit.
  With advection disabled a single mode decays exactly (to roundoff).

Advection is evaluated in divergence form, div(u (x) u), by the plan
runner of :mod:`nsvlab.products` that the inequality lab shares.  The
solver's plan, :data:`_TRACE_FREE`, forms five trace-free products of u on
a grid, u_0 u_1, u_0^2 - u_2^2, u_1^2 - u_2^2, u_0 u_2 and u_1 u_2: dropping
u_2^2 from the diagonal changes the divergence by the gradient of u_2^2,
which the projection removes.  The products run through the transform pair of
:mod:`nsvlab.fields`, which runs ``numpy.fft`` one axis at a time: over
the whole n-point grid under the two-thirds rule, and under the
three-halves rule skipping the padding.  The three grids and five products
overlap on two threads where two CPUs are allowed, and the mask, the
projection, the sign and the imex update then work in place on the
runner's output, one half of its first-axis rows on each thread.  The
products are dealiased per
config: the two-thirds rule masks |k| strictly below (2/3) * Nyquist on
the n-point grid (the strict inequality keeps wrapped images out of the
retained band when 3 divides n); the three-halves rule zero-pads to the
3n/2-point grid and drops the Nyquist planes of state and term, which
makes it exact.

The solver state is the half layout ``(3, n, n, n//2 + 1)`` of the
velocity's coefficients, the layout every field holds; the projection, the
diffusion multiplier, the mask and the derivative wavenumbers are the
lattice's half-layout grids.  Where the state leaves the solver (a sample,
the state passed to hooks, the result of :func:`step` and of
:func:`nonlinear_term`) it is wrapped as a :class:`VelocityField` without a
copy, and sample norms are that field's :func:`~nsvlab.norms.full_report`.
:func:`integrate` takes each sample on the worker thread one step behind
the solver (see there).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache, partial

import numpy as np

from ._version import __version__
from .fields import Lattice, VelocityField, _check_mean, _project, project_arrays, to_grid
from .norms import full_report
from .products import _Once, _alternately, _behind, _divergences, padded_size
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
        if type(self.sample_every) is not int or self.sample_every < 1:  # a bool is no count
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
    mask = lat._half.kmag < (2.0 / 3.0) * lat.nyquist
    mask.setflags(write=False)
    return mask


def max_velocity(u: VelocityField) -> float:
    """Maximum pointwise speed on the grid."""
    total = sum(to_grid(c, u.lattice.n) ** 2 for c in u._stack)
    return float(np.sqrt(total.max()))


def _check_rk4_stability(dt: float, nu: float, lattice: Lattice) -> None:
    z = dt * nu * float(lattice._half.ksq.max())
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
        candidates.append(0.9 * RK4_DIFFUSIVE_LIMIT / (config.nu * float(lat._half.ksq.max())))
    if config.t_end > 0:
        candidates.append(config.t_end)
    return min(candidates) if candidates else 1.0


def _solver_stack(u: VelocityField, dealias: str) -> np.ndarray:
    """The half layout of u's coefficients as the solver advances them: the
    three-halves rule is exact only without the Nyquist planes, so they are
    zeroed in a copy.  Where nothing is to be zeroed this is u's own stack,
    which no step writes to; a plane is tested by its bits, so a -0.0 on it
    is rewritten to +0.0 as in every other run."""
    stack = u._stack
    if dealias == "three-halves":
        half = u.lattice.n // 2
        planes = (stack[:, half], stack[:, :, half], stack[:, :, :, half])
        if any(np.ascontiguousarray(plane).view(np.uint64).any() for plane in planes):
            stack = stack.copy()
            stack[:, half] = stack[:, :, half] = stack[:, :, :, half] = 0.0
    return stack


# the solver's plan for products._divergences over the factors u_0, u_1, u_2:
# (i, j) is u_i u_j and (i, i, 2, 2) is u_i^2 - u_2^2; after the three grids
# every second cell runs on the caller, the grids of u_0 and u_2 and the two
# products of only them, so the caller never waits.  Row i of the term sums
# (j, product) terms d_j(u_j u_i), with u_2 u_2 left out as zero
_TRACE_FREE = ((0, 1), (0, 0, 2, 2), (1, 1, 2, 2), (0, 2), (1, 2))
_TERM_ROWS = (((0, 1), (1, 0), (2, 3)), ((0, 0), (1, 2), (2, 4)), ((0, 3), (1, 4)))


def _nonlinear_arrays(stack: np.ndarray, lattice: Lattice, dealias: str, update=None) -> np.ndarray:
    """-P[div(u(x)u)] as dealiased half-layout coefficients, in a new array.

    The solver's plan forms the divergence from five trace-free products;
    it differs from div(u(x)u) by a gradient, which the projection removes.
    The mask, the projection, the sign and then ``update``, if given, are
    applied in place by :func:`_tail`, on the two first-axis row halves
    through :func:`_alternately`; every mode sees the same operations, so
    the bytes do not depend on the thread that ran a half.
    """
    # three-halves: zero-padded products, truncated without the Nyquist planes
    mask, n_grid = None, padded_size(lattice.n)
    if dealias == "two-thirds":
        mask, n_grid = _dealias_mask(lattice.n, lattice.period), lattice.n
        stack = stack * mask
    term = _divergences(stack, _TRACE_FREE, _TERM_ROWS, n_grid, lattice)
    half = lattice.n // 2
    _alternately([_Once(partial(_tail, term, lattice, rows, mask, update))
                  for rows in (slice(None, half), slice(half, None))])
    term[:, 0, 0, 0] = 0.0
    return term


def _tail(term: np.ndarray, lattice: Lattice, rows: slice, mask, update) -> None:
    """The mask, the projection, the sign and ``update(rows, part)`` on the
    part ``term[:, rows]`` of the term."""
    part = term[:, rows]
    if mask is not None:
        part *= mask[rows]
    _project(part, lattice, rows)
    np.negative(part, out=part)
    if update is not None:
        update(rows, part)


def nonlinear_term(u: VelocityField, dealias: str = "two-thirds") -> VelocityField:
    """-P[div(u(x)u)] = -P[u.grad u] for div-free u, dealiased.

    Under the three-halves rule u's Nyquist planes are dropped first, as
    :func:`step` and :func:`integrate` drop them from the state.
    """
    if dealias not in DEALIAS_RULES:
        raise ValueError(f"dealias must be one of {DEALIAS_RULES}, got {dealias!r}")
    lat = u.lattice
    return VelocityField._from_half(lat, _nonlinear_arrays(_solver_stack(u, dealias), lat, dealias))


def _rhs(stack: np.ndarray, lattice: Lattice, config: SolverConfig) -> np.ndarray:
    out = -config.nu * lattice._half.ksq * stack
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
    elif config.advection:  # integrating-factor Euler: exact diffusion multiplier
        update = partial(_imex_update, stack, lattice._half.ksq, config.nu, dt)
        new = _nonlinear_arrays(stack, lattice, config.dealias, update)
    else:  # the same without advection: exact heat decay
        new = stack * np.exp(-config.nu * lattice._half.ksq * dt)
    new[:, 0, 0, 0] = 0.0
    return new


def _imex_update(
    stack: np.ndarray, ksq: np.ndarray, nu: float, dt: float, rows: slice, term: np.ndarray
) -> None:
    """term = (stack + dt * term) * exp(-nu |k|^2 dt) on first-axis ``rows``,
    in place: the integrating-factor Euler step."""
    term *= dt
    term += stack[:, rows]
    decay = -nu * ksq[rows]
    decay *= dt
    term *= np.exp(decay, out=decay)


def step(state: SolverState, config: SolverConfig, dt: float | None = None) -> SolverState:
    """Advance one step; raises SchemeBlowupError on non-finite output.

    The state is advanced as given: a divergence-free state stays so to
    roundoff, and a divergent part is not projected away.
    """
    lat = state.u.lattice
    if dt is None:
        dt = resolve_dt(state.u, config)
    elif config.integrator == "rk4":
        _check_rk4_stability(dt, config.nu, lat)
    new = _step_arrays(_solver_stack(state.u, config.dealias), lat, config, dt)
    if not np.isfinite(new).all():
        raise SchemeBlowupError(state.t + dt, 1)
    return SolverState(t=state.t + dt, u=VelocityField._from_half(lat, new))


def _sample(trajectory: Trajectory, hooks, u0: VelocityField, dt: float,
            step_index: int, t: float, stack: np.ndarray) -> None:
    """Append the sample of the state ``stack`` at t to the trajectory and
    hand it to each hook in turn; a stack that is u0's is sampled as u0."""
    u = u0 if stack is u0._stack else VelocityField._from_half(u0.lattice, stack)
    state = SolverState(t=t, u=u)
    sample = TrajectorySample(t=t, step_index=step_index, dt=dt, norms=full_report(u))
    trajectory.samples.append(sample)
    for hook in hooks:
        hook(sample, state)


def integrate(u0: VelocityField, config: SolverConfig, hooks=()) -> Trajectory:
    """Run from u0 to t_end, sampling norms every sample_every steps.

    Steps are uniform; the run ends at the first multiple of dt at or
    beyond t_end.  The first and final states are always sampled.  On a
    scheme blow-up the trajectory is returned with ``failed`` set and the
    failure reason recorded; samples collected so far are kept.

    Where two CPUs are allowed, each sample (norms, then hooks) runs on the
    worker thread while the next step is taken, one at a time and in order.
    A hook's error comes out here with its own type, when the next sample
    is due or at the end, and no later hook runs; a step's error drops a
    sample not yet started.  If u0 needs no change (no Nyquist plane to
    zero, no projection), the run starts from u0's own stack and sample 0
    hands u0 itself to the hooks.
    """
    _check_mean(u0, "initial velocity")
    defect = u0.divergence_defect()
    if defect > 1e-8:
        raise ValueError(f"initial velocity is not divergence-free (defect {defect:.3g})")
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
    if defect > 1e-13:  # a step keeps the defect below this; project other data once
        stack = project_arrays(stack, lat)
    sample = partial(_sample, trajectory, hooks, u0, dt)
    pending = _behind(partial(sample, 0, 0.0, stack))
    try:
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
                pending()
                pending = _behind(partial(sample, i, t, stack))
    except BaseException:
        pending.cancel()
        raise
    pending()
    return trajectory


def energy_balance_residual(trajectory: Trajectory, nu: float | None = None) -> np.ndarray:
    """|Delta(0.5 ||u||_L2^2)/Delta t + nu ||u||_H1^2| per sample interval.

    The dissipation integrand is estimated at the interval midpoint by the
    endpoint average (second order, matching the sampling).
    """
    nu = trajectory._checked_nu(nu)
    t = np.array(trajectory.times)
    l2 = np.array(trajectory.series("l2"))
    h1 = np.array(trajectory.series("h1"))
    energy = 0.5 * l2**2
    d_dt = np.diff(energy) / np.diff(t)
    dissipation = nu * 0.5 * (h1[:-1] ** 2 + h1[1:] ** 2)
    return np.abs(d_dt + dissipation)
