import math
import os
import sys
import threading
import time
import weakref
from functools import partial

import numpy as np
import pytest
import scipy.fft
from scipy.signal import convolve

from nsvlab import fields, inequalities, products, sim
from nsvlab.fields import (
    Lattice,
    ScalarSpectralField,
    VelocityField,
    half_spectrum,
    hermitianize,
    random_band_limited,
    to_physical,
)
from nsvlab.inequalities import (
    CorpusConfig,
    _commutator,
    _fractional_laplacian,
    _padded_pairing,
    advection_cancellation,
    commutator_l2,
    commutator_report,
    corpus_fields,
    trilinear_hs,
)
from nsvlab.products import (
    AliasingError,
    _divergences,
    _flux_divergence,
    advect,
    embed_coefficients,
    exactness_limit,
    from_grid,
    multiply,
    pad_lattice,
    padded_size,
    restrict_coefficients,
    to_grid,
)


def centered(field: ScalarSpectralField) -> np.ndarray:
    return np.fft.fftshift(field.coefficients)


def direct_convolution(f: ScalarSpectralField, g: ScalarSpectralField) -> dict:
    """Mode -> coefficient of f*g by direct summation (independent oracle)."""
    n = f.lattice.n
    conv = convolve(centered(f), centered(g), mode="full", method="direct")
    center = 2 * (n // 2)  # fftshift puts mode m at m + n//2; sums double that
    out = {}
    span = conv.shape[0]
    for i in range(span):
        for j in range(span):
            for k in range(span):
                value = conv[i, j, k]
                if abs(value) > 1e-15:
                    out[(i - center, j - center, k - center)] = value
    return out


def band_limited_scalar(lattice, kmax, seed):
    u = random_band_limited(lattice, 1.0, kmax, 1.0, seed=seed)
    return u.components[0]


def test_padded_size_values():
    assert padded_size(8) == 12
    assert padded_size(16) == 24
    assert padded_size(32) == 48
    assert padded_size(10) == 16  # 15 bumped to even
    assert padded_size(12) == 18


def test_pad_lattice_keeps_period(lat16):
    lp = pad_lattice(lat16)
    assert lp.n == 24
    assert lp.period == lat16.period
    assert lp.k_unit == lat16.k_unit


def test_embed_restrict_round_trip(lat8):
    rng = np.random.default_rng(31)
    c = rng.standard_normal(lat8.shape) + 1j * rng.standard_normal(lat8.shape)
    n_pad = padded_size(8)
    big = embed_coefficients(c, n_pad)
    assert big.shape == (n_pad,) * 3
    back = restrict_coefficients(big, 8)
    assert np.array_equal(back, c)
    # embedded content preserves mode labels
    lat12 = Lattice(n_pad)
    assert big[lat12.mode_index(1, -2, 3)] == c[lat8.mode_index(1, -2, 3)]
    # odd sizes and odd targets too: every label keeps its coefficient and
    # the modes the small lattice lacks stay zero
    for n, n_pad in ((7, 12), (9, 14), (8, 9), (7, 7)):
        c = rng.standard_normal((n,) * 3) + 1j * rng.standard_normal((n,) * 3)
        big = embed_coefficients(c, n_pad)
        assert np.array_equal(restrict_coefficients(big, n), c), (n, n_pad)
        small_labels = np.fft.fftfreq(n, 1.0 / n).astype(int)
        big_labels = list(np.fft.fftfreq(n_pad, 1.0 / n_pad).astype(int))
        at = [big_labels.index(m) for m in small_labels]
        assert np.array_equal(big[np.ix_(at, at, at)], c), (n, n_pad)
        assert np.count_nonzero(big) == np.count_nonzero(c), (n, n_pad)


def test_padded_pair_drops_nyquist_planes(lat8):
    # the half-layout embed and restrict leave the Nyquist planes out
    assert (to_grid, from_grid) == (fields.to_grid, fields.from_grid)
    n, m = lat8.n, padded_size(lat8.n)
    for axis in range(3):
        c = lat8.zeros()
        mode = [1, 2, 3]
        mode[axis] = -n // 2
        c[lat8.mode_index(*mode)] = 1.0
        half = half_spectrum(hermitianize(c))
        assert np.max(np.abs(to_grid(half, n))) > 0.5
        assert not to_grid(half, m).any(), axis
    coefficients = from_grid(np.random.default_rng(9).standard_normal((m,) * 3), n)
    assert not coefficients[n // 2].any()
    assert not coefficients[:, n // 2].any()
    assert not coefficients[:, :, n // 2].any()
    assert np.abs(coefficients[: n // 2, : n // 2, : n // 2]).min() > 0.0


def test_cosine_product_hand_value(lat8):
    # cos(x)^2 = 1/2 + cos(2x)/2
    c = lat8.zeros()
    c[lat8.mode_index(1, 0, 0)] = 0.5
    c[lat8.mode_index(-1, 0, 0)] = 0.5
    f = ScalarSpectralField(lat8, c)
    prod = multiply(f, f)
    lat_pad = prod.lattice
    assert prod.coefficients[0, 0, 0] == pytest.approx(0.5, abs=1e-15)
    assert prod.coefficients[lat_pad.mode_index(2, 0, 0)] == pytest.approx(0.25, abs=1e-15)
    assert prod.coefficients[lat_pad.mode_index(-2, 0, 0)] == pytest.approx(0.25, abs=1e-15)
    # nothing else
    mask = np.ones(lat_pad.shape, dtype=bool)
    for m in ((0, 0, 0), (2, 0, 0), (-2, 0, 0)):
        mask[lat_pad.mode_index(*m)] = False
    assert np.max(np.abs(prod.coefficients[mask])) < 1e-15


def test_multiply_matches_direct_convolution(lat8):
    f = band_limited_scalar(lat8, 8.0 / 3.0, seed=5)
    g = band_limited_scalar(lat8, 8.0 / 3.0, seed=6)
    prod = multiply(f, g)
    oracle = direct_convolution(f, g)
    lat_pad = prod.lattice
    got = prod.coefficients.copy()
    for mode, value in oracle.items():
        idx = lat_pad.mode_index(*mode)
        assert got[idx] == pytest.approx(value, abs=1e-13)
        got[idx] = 0.0
    assert np.max(np.abs(got)) < 1e-13  # no spurious modes


def test_multiply_is_pointwise_product_on_grid(lat16):
    f = band_limited_scalar(lat16, 5.0, seed=7)
    g = band_limited_scalar(lat16, 5.0, seed=8)
    prod = multiply(f, g)
    n_pad = prod.lattice.n
    # compare on the padded grid where the product is resolved
    fp = np.real(np.fft.ifftn(embed_coefficients(f.coefficients, n_pad))) * n_pad**3
    gp = np.real(np.fft.ifftn(embed_coefficients(g.coefficients, n_pad))) * n_pad**3
    assert np.allclose(to_physical(prod), fp * gp, atol=1e-12)


def test_band_limit_guard(lat16):
    limit = exactness_limit(lat16)
    assert limit == pytest.approx(16.0 / 3.0)
    wide = random_band_limited(lat16, 1.0, 6.0, 1.0, seed=9).components[0]
    with pytest.raises(AliasingError):
        multiply(wide, wide)


def test_multiply_rejects_mixed_lattices(lat8, lat16):
    f = band_limited_scalar(lat8, 2.0, seed=10)
    g = band_limited_scalar(lat16, 2.0, seed=10)
    with pytest.raises(ValueError):
        multiply(f, g)


def test_advect_scalar_matches_spectral_chain(lat16):
    u = random_band_limited(lat16, 1.0, 4.0, 1.0, seed=11)
    g = band_limited_scalar(lat16, 4.0, seed=12)
    result = advect(u, g)
    # independent check: sum_j conv(u_j, i k_j g) by direct convolution
    from nsvlab.fields import gradient

    grads = gradient(g)
    lat_pad = result.lattice
    expected = np.zeros(lat_pad.shape, dtype=np.complex128)
    for j in range(3):
        oracle = direct_convolution(u.components[j], grads[j])
        for mode, value in oracle.items():
            expected[lat_pad.mode_index(*mode)] += value
    assert np.max(np.abs(result.coefficients - expected)) < 1e-13


def test_advect_velocity_returns_components(lat16):
    u = random_band_limited(lat16, 1.0, 4.0, 1.0, seed=13)
    result = advect(u, u)
    assert len(result) == 3
    for comp, direct in zip(result, (advect(u, u.components[i]) for i in range(3))):
        assert np.array_equal(comp.coefficients, direct.coefficients)


def test_only_a_velocity_transports(lat16):
    # a scalar's one-component stack must not pass for a transporting velocity
    u = random_band_limited(lat16, 1.0, 4.0, 1.0, seed=13)
    with pytest.raises(TypeError, match="must be a velocity"):
        advect(u.components[0], u)
    with pytest.raises(TypeError, match="must be a velocity"):
        trilinear_hs(u.components[0], 1.5)
    with pytest.raises(TypeError, match="expected a spectral field"):
        advect(u, np.zeros((3, 16, 16, 9)))


def test_product_of_orthogonal_waves_mean(lat16):
    # mean of cos(k.x) * cos(q.x) over the box is 0 for k != q, 1/2 for k = q
    def wave(m):
        c = lat16.zeros()
        c[lat16.mode_index(*m)] = 0.5
        c[lat16.mode_index(*(-x for x in m))] = 0.5
        return ScalarSpectralField(lat16, c)

    same = multiply(wave((1, 2, 0)), wave((1, 2, 0)))
    other = multiply(wave((1, 2, 0)), wave((2, 1, 0)))
    assert same.mean == pytest.approx(0.5, abs=1e-15)
    assert abs(other.mean) < 1e-15


def test_products_return_on_the_padded_lattice(lat16):
    # factors with |m_i| <= 2 multiply on a 10-point grid; the results keep
    # their documented lattice
    u = random_band_limited(lat16, 1.0, 2.0, 1.0, seed=14)
    f = band_limited_scalar(lat16, 2.0, seed=15)
    products = [multiply(f, f), advect(u, f), *advect(u, u)]
    for product in products:
        assert product.lattice is pad_lattice(lat16)
        assert product.coefficients.shape == (24, 24, 24)


PADDED_PAIRS = [(8, 12), (16, 24), (24, 36), (32, 48), (64, 96)]


def resized(c, m):
    """Half-layout coefficients c on the m-point lattice, embedded or cropped."""
    return fields._resized(c, m, half=True)


def whole_grid_flux_divergence(u, gs, n_grid, lattice_out):
    """Reference for ``_flux_divergence``: one n-d real transform of each
    factor embedded on the grid and of each whole product, then the
    truncation to lattice_out (none on the grid's own lattice), summed in
    the kernel's order."""
    n_out = lattice_out.n
    kd = lattice_out._half.k_deriv

    def grid(c):
        return scipy.fft.irfftn(resized(c, n_grid), s=(n_grid,) * 3, norm="forward")

    def coefficients(values):
        whole = scipy.fft.rfftn(values, norm="forward")
        return whole if n_out == n_grid else resized(whole, n_out)

    u_grids = [grid(c) for c in u]
    out = []
    for g in gs:
        g_grids = [grid(c) for c in g]
        div = np.empty((len(g), n_out, n_out, n_out // 2 + 1), dtype=np.complex128)
        for i in range(len(g)):
            total = np.zeros(div.shape[1:], dtype=np.complex128)
            for j in range(3):
                total += kd[j] * coefficients(u_grids[j] * g_grids[i])
            div[i] = 1j * total
        out.append(div)
    return out


@pytest.mark.parametrize("period", [2.0 * math.pi, 3.0])
@pytest.mark.parametrize("n, n_grid", PADDED_PAIRS)
def test_padded_pair_is_bitwise_the_whole_grid_transform(n, n_grid, period):
    assert padded_size(n) == n_grid
    lattice = Lattice(n, period)
    u = random_band_limited(lattice, lattice.k_unit, lattice.nyquist, 1.0, seed=n)
    c = u._stack[0]
    embedded = resized(c, n_grid)
    whole = scipy.fft.irfftn(embedded, s=(n_grid,) * 3, norm="forward")
    assert to_grid(c, n_grid).tobytes() == whole.tobytes()
    reference = resized(scipy.fft.rfftn(whole, norm="forward"), n)
    assert from_grid(whole, n).tobytes() == reference.tobytes()
    # the solver's padded term: products formed block by block, never whole
    stack = u._stack.copy()
    stack[:, n // 2] = stack[:, :, n // 2] = stack[:, :, :, n // 2] = 0.0
    [got] = _flux_divergence(stack, [stack], n_grid, lattice)
    [reference] = whole_grid_flux_divergence(stack, [stack], n_grid, lattice)
    assert got.tobytes() == reference.tobytes()


def flux_divergences(u):
    """The kernel on each of its paths: the six-product term padded and
    unpadded, the solver's five-product plan under both dealiasing rules,
    and the lab's two transported stacks."""
    lattice = u.lattice
    stack = u._stack
    g = stack * lattice._half.kmag
    return [
        *_flux_divergence(stack, [stack], padded_size(lattice.n), lattice),
        *_flux_divergence(stack, [stack], lattice.n, lattice),
        _divergences(stack, sim._TRACE_FREE, sim._TERM_ROWS, padded_size(lattice.n), lattice),
        _divergences(stack, sim._TRACE_FREE, sim._TERM_ROWS, lattice.n, lattice),
        *_flux_divergence(stack, [stack, g], lattice.n, lattice),
    ]


def test_flux_divergence_is_the_same_with_and_without_the_worker(random16, monkeypatch):
    monkeypatch.setattr(products, "_two_cpus", lambda: True)
    threaded = flux_divergences(random16)
    monkeypatch.setattr(products, "_two_cpus", lambda: False)
    serial = flux_divergences(random16)
    assert [a.tobytes() for a in threaded] == [a.tobytes() for a in serial]


def test_flux_divergence_is_the_same_when_the_worker_grids_are_late(random16, monkeypatch):
    # every grid the worker forms is held back, so the caller reaches the
    # products that need it first: it must run the worker's products that
    # have not started and wait for the grid, never for each other
    monkeypatch.setattr(products, "_two_cpus", lambda: False)
    serial = flux_divergences(random16)
    monkeypatch.setattr(products, "_two_cpus", lambda: True)
    original = products._grid_blocks
    late = []

    def late_on_the_worker(*args):
        if threading.current_thread().name.startswith("nsvlab-transforms"):
            late.append(args[1])
            time.sleep(0.05)
        return original(*args)

    monkeypatch.setattr(products, "_grid_blocks", late_on_the_worker)
    result = []
    caller = threading.Thread(target=lambda: result.extend(flux_divergences(random16)), daemon=True)
    caller.start()
    caller.join(timeout=120)
    assert not caller.is_alive()
    assert late  # the worker formed a grid
    assert [a.tobytes() for a in result] == [a.tobytes() for a in serial]


def settle():
    """Wait until the worker thread has reached every task queued on it."""
    products._worker(os.getpid()).submit(int).result(timeout=60)


def test_a_worker_task_error_comes_out_of_the_kernel(random16, monkeypatch):
    monkeypatch.setattr(products, "_two_cpus", lambda: True)
    expected = flux_divergences(random16)
    original, summed = products._product_coefficients, products._summed
    on_the_worker, worker_sums = threading.Event(), []

    def failing_on_the_worker(*args):
        if threading.current_thread() is threading.main_thread():
            # hold the caller until the worker has started a task, so the
            # caller cannot take every worker task back before one fails
            assert on_the_worker.wait(timeout=60)
            return original(*args)
        on_the_worker.set()
        raise RuntimeError("worker task failed")

    def slow_on_the_worker(*args):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)  # the worker is still busy when the error comes out
            worker_sums.append(None)
        return summed(*args)

    monkeypatch.setattr(products, "_product_coefficients", failing_on_the_worker)
    monkeypatch.setattr(products, "_summed", slow_on_the_worker)
    with pytest.raises(RuntimeError, match="worker task failed"):
        flux_divergences(random16)
    assert on_the_worker.is_set()
    # the plan's job, claimed by the worker, was waited for: none of it runs later
    ran = len(worker_sums)
    settle()
    assert ran >= 1 and len(worker_sums) == ran
    monkeypatch.setattr(products, "_product_coefficients", original)
    monkeypatch.setattr(products, "_summed", summed)
    again = flux_divergences(random16)
    assert [a.tobytes() for a in again] == [a.tobytes() for a in expected]


def recorded_cells(count):
    """``count`` task cells returning their index; ``threads`` maps each
    index to the thread that ran it."""
    threads = {}

    def task(k):
        threads[k] = threading.current_thread()
        return k

    return [products._Once(partial(task, k)) for k in range(count)], threads


def recorded_draws(monkeypatch, failing=None):
    """Make each corpus draw return its seed after a short wait, and draw
    ``failing`` raise; the returned dict maps each seed to the thread that
    drew it, once the draw has ended."""
    threads = {}

    def draw(lattice, kmin, kmax, decay, seed):
        time.sleep(0.01)
        threads[seed] = threading.current_thread()
        if seed == failing:
            raise RuntimeError("draw failed")
        return seed

    monkeypatch.setattr(inequalities, "random_band_limited", draw)
    return threads


def corpus(size):
    """The corpus of ``size`` fields whose seeds are their indices."""
    return corpus_fields(Lattice(8), CorpusConfig(size=size, base_seed=0))


@pytest.mark.parametrize("runner", ["_alternately", "corpus_fields"])
def test_the_caller_takes_worker_tasks_that_have_not_started(runner, monkeypatch):
    monkeypatch.setattr(products, "_two_cpus", lambda: True)
    jobs, started = [], products._started

    def recorded_started(cells):  # records the threads that start a job of _alternately
        jobs.append(threading.current_thread())
        started(cells)

    monkeypatch.setattr(products, "_started", recorded_started)
    if runner == "_alternately":
        cells, threads = recorded_cells(7)

        def run():
            products._alternately(cells)
            return [cell() for cell in cells]
    else:
        threads = recorded_draws(monkeypatch)

        def run():
            return [entry.field for entry in corpus(7)]

    release = threading.Event()
    blocker = products._worker(os.getpid()).submit(release.wait, 60)
    try:
        assert run() == list(range(7))
    finally:
        release.set()
    assert blocker.result(timeout=60)
    settle()
    # the worker was busy throughout, so no task queued on it started there,
    # and the job it had not started was dropped
    assert threads == {k: threading.current_thread() for k in range(7)}
    assert all(thread is threading.current_thread() for thread in jobs)


def test_a_shared_task_runs_once_however_the_threads_interleave(monkeypatch):
    # four callers share the one worker; every task takes two shared tasks
    # (a product its two grids), and each shared task must run exactly once
    monkeypatch.setattr(products, "_two_cpus", lambda: True)
    failures = []

    def caller(seed):
        for _ in range(50):
            runs = []

            def shared_task(k):
                runs.append(k)
                return k

            shared = [products._Once(partial(shared_task, k), uses=2) for k in range(6)]
            tasks = [products._Once(partial(lambda a, b: a() + b(), shared[k], shared[(k + 1) % 6]))
                     for k in range(6)]
            products._alternately(shared + tasks)
            results = [task() for task in tasks]
            if results != [k + (k + 1) % 6 for k in range(6)] or sorted(runs) != list(range(6)):
                failures.append((seed, results, runs))
            if any(cell._result is not None for cell in shared):
                failures.append((seed, "a result outlived its last use"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(seed,), daemon=True) for seed in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert failures == []


def plan_events(u, plan, n_grid):
    """Run the solver's or the lab's plan on u and log, in order, when each
    product and each sum starts, when each product ends and when each grid
    block is freed; returns the log and the block finalizers."""
    lattice, stack = u.lattice, u._stack
    events, finalizers, grid_of = [], [], {}
    grid_blocks, coefficients, summed = (
        products._grid_blocks, products._product_coefficients, products._summed)

    def logged_grid_blocks(c, n):
        blocks = grid_blocks(c, n)
        k = len(grid_of)
        grid_of[id(blocks[0])] = k  # ids are looked up only while the grid lives
        finalizers.extend(weakref.finalize(block, events.append, ("free", k)) for block in blocks)
        return blocks

    def logged_coefficients(factors, n_out):
        users = {grid_of[id(blocks[0])] for blocks in factors}
        events.append(("product", users))
        result = coefficients(factors, n_out)
        events.append(("end", users))
        return result

    def logged_summed(*args):
        events.append(("sum", None))
        return summed(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(products, "_grid_blocks", logged_grid_blocks)
        patch.setattr(products, "_product_coefficients", logged_coefficients)
        patch.setattr(products, "_summed", logged_summed)
        if plan == "solver":
            _divergences(stack, sim._TRACE_FREE, sim._TERM_ROWS, n_grid, lattice)
        else:
            _flux_divergence(stack, [stack, stack * lattice._half.kmag], n_grid, lattice)
    return events, finalizers


@pytest.mark.parametrize("padded", [False, True], ids=["own-size", "padded"])
@pytest.mark.parametrize("plan", ["solver", "lab"])
def test_no_grid_outlives_its_last_product(random16, plan, padded, monkeypatch):
    # on one CPU the plan runs in one order: each grid must be freed before
    # the first product or sum that starts after its last product has ended
    n_grid = padded_size(16) if padded else 16
    monkeypatch.setattr(products, "_two_cpus", lambda: False)
    events, finalizers = plan_events(random16, plan, n_grid)
    assert not any(f.alive for f in finalizers)
    starts = [k for k, (kind, _) in enumerate(events) if kind in ("product", "sum")]
    grids = {k for kind, users in events if kind == "product" for k in users}
    assert grids == set(range(6 if plan == "lab" else 3))
    for grid in grids:
        last_end = max(k for k, (kind, users) in enumerate(events)
                       if kind == "end" and grid in users)
        next_start = min((k for k in starts if k > last_end), default=len(events))
        freed = [k for k, event in enumerate(events) if event == ("free", grid)]
        assert len(freed) == (4 if padded else 1)
        assert max(freed) < next_start, (grid, events)
    # with the worker, no grid is left alive once the plan has returned
    monkeypatch.setattr(products, "_two_cpus", lambda: True)
    _, finalizers = plan_events(random16, plan, n_grid)
    assert finalizers and not any(f.alive for f in finalizers)


@pytest.mark.parametrize("n_grid", [16, 24])
def test_a_multi_term_row_is_the_sum_of_its_single_term_rows(random16, n_grid):
    plan = [(0, 1), (0, 0, 2, 2), (1, 2)]
    rows = [((0, 0), (1, 1), (2, 2)), ((0, 0),), ((1, 1),), ((2, 2),)]
    whole, *single = _divergences(random16._stack, plan, rows, n_grid, random16.lattice)
    assert np.max(np.abs(whole)) > 0.0
    # equal as numbers: the single rows may differ from the whole in signed zeros
    assert np.array_equal(whole, single[0] + single[1] + single[2])


@pytest.mark.parametrize("failing", [0, 1], ids=["caller-half", "worker-half"])
@pytest.mark.parametrize("two_cpus", [True, False], ids=["worker", "one-cpu"])
def test_a_cell_error_comes_out_of_alternately(two_cpus, failing, monkeypatch):
    # no other cell asks for the failing one, so only the in-order wait raises it
    monkeypatch.setattr(products, "_two_cpus", lambda: two_cpus)
    cells, _ = recorded_cells(4)

    def fail():
        raise RuntimeError("cell failed")

    cells[failing] = products._Once(fail)
    with pytest.raises(RuntimeError, match="cell failed"):
        products._alternately(cells)
    settle()


@pytest.mark.parametrize("two_cpus", [True, False], ids=["worker", "one-cpu"])
def test_a_draw_error_comes_out_where_its_field_is_asked_for(two_cpus, monkeypatch):
    monkeypatch.setattr(products, "_two_cpus", lambda: two_cpus)
    threads = recorded_draws(monkeypatch, failing=1)
    fields = corpus(3)
    assert next(fields).field == 0
    settle()  # draw 1 fails meanwhile, on the worker where there is one
    assert (threads[1] is not threading.current_thread()) == two_cpus
    with pytest.raises(RuntimeError, match="draw failed"):
        next(fields)
    settle()
    assert list(threads) == [0, 1]  # draw 2 never runs


@pytest.mark.parametrize("two_cpus", [True, False], ids=["worker", "one-cpu"])
def test_an_empty_corpus_draws_nothing(two_cpus, monkeypatch):
    monkeypatch.setattr(products, "_two_cpus", lambda: two_cpus)
    threads = recorded_draws(monkeypatch)
    assert list(corpus(0)) == []
    settle()
    assert threads == {}


def test_a_closed_corpus_leaves_no_draw_behind(monkeypatch):
    monkeypatch.setattr(products, "_two_cpus", lambda: True)
    threads = recorded_draws(monkeypatch)
    fields = corpus(5)
    assert [next(fields).field for _ in range(2)] == [0, 1]
    fields.close()
    drawn = set(threads)
    assert drawn in ({0, 1}, {0, 1, 2})  # draw 2 runs to its end or not at all
    # the worker is free: a plan through it completes, and no draw runs later
    cells = [products._Once(partial(int, k)) for k in (1, 2, 3)]
    caller = threading.Thread(target=products._alternately, args=(cells,), daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert [cell() for cell in cells] == [1, 2, 3]
    settle()
    assert set(threads) == drawn


LAB_CASES = [  # n, kmax, seed, roundoff on a Nyquist plane, support and product lattice sizes
    (16, 4.0, 21, False, 10, 18),  # the support lattice is smaller than the input lattice
    (16, 2.0, 22, False, 8, 10),  # 2K + 2 < 8
    (18, 6.0, 23, False, 14, 28),  # the cap binds: 4K + 2 = 26 rounds up to 30 > padded_size 28
    (16, 4.0, 24, True, 16, 24),  # roundoff the band-limit test ignores at |m_1| = n/2
]


def whole_grid_lab_forms(u, s, n_grid):
    """The lab's forms of u at order s with every factor embedded on the
    n_grid-point product lattice and every transform one n-d transform of
    the whole grid; advect and multiply embedded on the padded lattice."""
    product = Lattice(n_grid, u.lattice.period)
    n_pad = padded_size(u.lattice.n)
    f = resized(u._stack, n_grid)
    g = _fractional_laplacian(f, product, s)
    transported, second = whole_grid_flux_divergence(f, [f, g], n_grid, product)
    grids = [scipy.fft.irfftn(c, s=(n_grid,) * 3, norm="forward") for c in f[:2]]
    multiplied = scipy.fft.rfftn(grids[0] * grids[1], norm="forward")

    def padded(c):
        return c if n_grid == n_pad else resized(c, n_pad)

    return {
        "trilinear": _padded_pairing(transported, f, product, 2.0 * s),
        "cancellation": _padded_pairing(second, g, product, 0.0),
        "commutator": _commutator(transported, second, product, s),
        "advect": padded(transported).tobytes(),
        "multiply": padded(multiplied).tobytes(),
    }


@pytest.mark.parametrize("n, kmax, seed, nyquist, n_support, n_grid", LAB_CASES)
def test_lab_forms_are_bitwise_the_whole_grid_forms(n, kmax, seed, nyquist, n_support, n_grid):
    u = random_band_limited(Lattice(n), 1.0, kmax, 1.0, seed=seed)
    if nyquist:
        stack = u._stack.copy()
        stack[0, n // 2, 1, 0] = 1e-19 * np.abs(stack).max()
        u = VelocityField._from_half(u.lattice, stack)
    support, product, _ = products._padded((u,))
    assert (support.n, product.n) == (n_support, n_grid)
    f0, f1 = u.components[:2]
    for s in (0.0, 1.5, 2.5):
        expected = whole_grid_lab_forms(u, s, n_grid)
        report = commutator_report(u, s)
        got = {
            "trilinear": [trilinear_hs(u, s), report["trilinear"]],
            "cancellation": [advection_cancellation(u, s), report["cancellation"]],
            "commutator": [commutator_l2(u, s), report["commutator"]],
        }
        for name, values in got.items():
            bits = np.float64(expected[name]).tobytes()
            assert [np.float64(v).tobytes() for v in values] == [bits, bits], (name, s)
    transported = np.stack([c._half for c in advect(u, u)])
    assert transported.tobytes() == expected["advect"]
    assert multiply(f0, f1)._half.tobytes() == expected["multiply"]
