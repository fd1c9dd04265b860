import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.linalg as sla

from phdiss import (assemble_model, control_signal, form_r, grids, initial_state,
                    make_uniform_grid, systems)
from phdiss.dissipation import _form_rates, _q_identity_rows
from phdiss.grids import Grid, GridError, norm_sq
from phdiss.semigroup import ControlSignal, _band_step, final_state, sine_basis, sine_spectrum
from phdiss.systems import (DAMPING, MAX_BAND, AssemblyError, DiscreteSystem, _dense,
                            _lapack_band, _probe_solve, assemble_custom, assemble_heat,
                            assemble_skew_damped, assemble_transport, band_product,
                            dissipativity_gap, graph_gram, graph_norm)

from conftest import (MODELS, child_env, custom_complex_system, dense_form, free_run,
                      periodic_bands, random_state, step_route)


def test_transport_boundary_collapse():
    # W A + A^T W must collapse to the two boundary entries exactly;
    # this is what makes the dissipation form a pure trace term.
    g = make_uniform_grid(41)
    sys = assemble_transport(g)
    w = np.diag(g.weights)
    sym = w @ _dense(sys.a_bands) + _dense(sys.a_bands).T @ w
    expected = np.zeros((41, 41))
    expected[0, 0] = -1.0
    expected[-1, -1] = -1.0
    np.testing.assert_allclose(sym, expected, atol=1e-13)


def test_transport_is_dissipative_exactly():
    g = make_uniform_grid(101)
    sys = assemble_transport(g)
    gap, f_norm = dissipativity_gap(sys.f_bands)
    assert abs(gap) <= 1e-12
    # F = diag(1/2, 0, ..., 0, 1/2)
    assert f_norm == pytest.approx(0.5, rel=1e-12)


def test_heat_matrix_symmetric_negative():
    g = make_uniform_grid(51)
    sys = assemble_heat(g)
    a, w = _dense(sys.a_bands), np.diag(g.weights)
    wa = w @ a
    np.testing.assert_allclose(wa, wa.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(0.5 * (wa + wa.T))
    assert eigs.max() <= 1e-12


def test_heat_boundary_rows_decoupled():
    # homogeneous Dirichlet: end nodes decay on their own and the interior
    # stencil never reads them
    g = make_uniform_grid(21)
    a = _dense(assemble_heat(g).a_bands)
    h = g.h
    assert a[0, 0] == pytest.approx(-2.0 / h**2)
    assert a[-1, -1] == pytest.approx(-2.0 / h**2)
    assert np.all(a[0, 1:] == 0.0) and np.all(a[-1, :-1] == 0.0)
    assert a[1, 0] == 0.0 and a[-2, -1] == 0.0
    np.testing.assert_allclose(a[2, 1:4], np.array([1.0, -2.0, 1.0]) / h**2)


def test_heat_generator_invertible_steady_state():
    g = make_uniform_grid(51)
    sys = assemble_heat(g)
    b = sys.b_matrix[:, 0]
    x_ss = np.linalg.solve(_dense(sys.a_bands), -b)
    assert np.linalg.norm(_dense(sys.a_bands) @ x_ss + b) <= 1e-10 * np.linalg.norm(b)


def test_skew_part_exactly_skew():
    g = make_uniform_grid(51)
    sys = assemble_skew_damped(g)
    w = np.diag(g.weights)
    j = _dense(sys.a_bands) + DAMPING * np.eye(g.n)
    np.testing.assert_allclose(w @ j + j.T @ w, 0.0, atol=1e-12)


@pytest.mark.parametrize("d", [0.0, 0.1, 2.5])
def test_another_damping_from_bands_is_the_dense_recipe(d):
    # the README's recipe for a damping d on skew_damped's bands, O(n), gives the
    # bands of the dense assemble_custom(grid, A - (d - DAMPING) I) bit for bit
    grid = make_uniform_grid(41)
    skew = assemble_skew_damped(grid)
    bands = skew.a_bands.copy()
    bands[1] -= d - DAMPING
    direct = DiscreteSystem(grid, bands, skew.b_matrix)
    dense = assemble_custom(grid, _dense(skew.a_bands) - (d - DAMPING) * np.identity(grid.n))
    assert direct.a_bands.tobytes() == dense.a_bands.tobytes()
    assert direct.f_bands.tobytes() == dense.f_bands.tobytes()
    np.testing.assert_allclose(direct.f_bands, d * grid.weights[None], rtol=1e-14)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_skew_damped_rate_is_damping_times_norm(systems101, seed):
    from phdiss import form_r
    sys = systems101["skew_damped"]
    x = random_state(sys.n, seed)
    nx2 = float(np.real(np.conj(x) @ (sys.weights * x)))
    assert form_r(sys, x) == pytest.approx(
        DAMPING * nx2, abs=1e-10 * max(1.0, nx2))


def _loop_generator(model: str, grid) -> np.ndarray:
    # the former entry-by-entry construction of each named generator, the
    # oracle of the stencil writes
    n, h = grid.n, grid.h
    a = np.zeros((n, n))
    if model == "transport":
        a[0, 0], a[0, 1] = -1.0 / h, 1.0 / h
        for i in range(1, n - 1):
            a[i, i - 1] = -1.0 / (2.0 * h)
            a[i, i + 1] = 1.0 / (2.0 * h)
        a[-1, -2], a[-1, -1] = -1.0 / h, 1.0 / h
        a[-1, -1] -= 2.0 / h
    elif model == "heat":
        for i in range(1, n - 1):
            a[i, i - 1] = 1.0 / h**2
            a[i, i] = -2.0 / h**2
            a[i, i + 1] = 1.0 / h**2
        a[1, 0] = 0.0
        a[-2, -1] = 0.0
        a[0, 0] = -2.0 / h**2
        a[-1, -1] = -2.0 / h**2
    else:
        c = np.zeros((n, n))
        for i in range(n):
            c[i, (i + 1) % n] += 1.0 / (2.0 * h)
            c[i, (i - 1) % n] -= 1.0 / (2.0 * h)
        w = grid.weights
        a = 0.5 * (c - (1.0 / w)[:, None] * (c.T * w[None, :]))
        a.flat[::n + 1] -= DAMPING
    return a


@pytest.mark.parametrize("n", [3, 4, 5, 21, 401])
@pytest.mark.parametrize("model", MODELS)
def test_stencil_generator_matches_the_loop_oracle(model, n):
    # same bits, zero signs included, in A's three bands, in F's bands out to
    # its own width (tridiagonal for heat past n = 3, else diagonal), and in
    # the dense A and F built from them
    grid = make_uniform_grid(n)
    system = assemble_model(model, grid)
    a = _loop_generator(model, grid)
    f = dense_form(a, grid.weights)
    kf = 1 if model == "heat" and n > 3 else 0
    for new, old in ((system.a_bands, periodic_bands(a, 1)),
                     (system.f_bands, periodic_bands(f, kf)), (_dense(system.a_bands), a)):
        assert np.array_equal(new, old)
        assert np.array_equal(np.signbit(new), np.signbit(old))
    assert np.array_equal(_dense(system.f_bands), f)


@pytest.mark.parametrize("model", MODELS)
def test_assembly_memory_is_linear_in_n(model):
    # the bands of A and F, the gate's band storage and LAPACK's work arrays:
    # at n = 1601, where one dense operator takes 20.5 MB, assembly stays
    # within 32 arrays of n floats
    n = 1601
    grid = make_uniform_grid(n)
    assemble_model(model, make_uniform_grid(5))  # lazy imports, caches
    tracemalloc.start()
    try:
        assemble_model(model, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 8 * n


def test_custom_rejects_non_dissipative():
    g = make_uniform_grid(5)
    with pytest.raises(AssemblyError):
        assemble_custom(g, np.eye(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_custom_rejects_non_finite_generator(bad):
    # refused before any product or eigensolve touches it
    g = make_uniform_grid(5)
    a = -np.eye(5)
    a[1, 2] = bad
    with pytest.raises(AssemblyError, match="non-finite"):
        assemble_custom(g, a)


def test_custom_rejects_a_generator_of_another_size():
    with pytest.raises(AssemblyError, match=r"shape \(4, 4\) does not match grid size 5"):
        assemble_custom(make_uniform_grid(5), -np.eye(4))


def test_custom_accepts_dissipative():
    g = make_uniform_grid(5)
    sys = assemble_custom(g, -np.eye(5))
    assert sys.model_tag == "custom"
    assert sys.m_inputs == 1


def test_unknown_model_rejected(grid101):
    with pytest.raises(ValueError, match="unsupported model"):
        assemble_model("advection", grid101)


def test_input_profile_shape_checked(grid101):
    with pytest.raises(AssemblyError):
        assemble_transport(grid101, input_profile=np.ones(7))


def test_callable_profile_shape_checked():
    # a function of the nodes with the wrong length meets the system's shape
    # check, not a bare reshape error
    with pytest.raises(AssemblyError, match=r"input map has shape \(7, 1\), grid has 11"):
        assemble_transport(make_uniform_grid(11), input_profile=lambda w: np.ones(7))


def test_integer_parts_are_kept_as_float():
    g = make_uniform_grid(5)
    sys = assemble_custom(g, -np.eye(5, dtype=int), b_matrix=np.ones(5, dtype=bool))
    assert (sys.a_bands.dtype, sys.b_matrix.dtype) == (np.float64, np.float64)
    np.testing.assert_array_equal(_dense(sys.a_bands), -np.eye(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("form", ["array", "callable"])
def test_input_map_rejects_non_finite(bad, form):
    # refused at assembly, before any product reads the map
    g = make_uniform_grid(5)
    col = np.ones(5)
    col[2] = bad
    profile = col if form == "array" else (lambda w: col)
    with pytest.raises(AssemblyError, match="non-finite"):
        assemble_custom(g, -np.eye(5), b_matrix=profile)
    with pytest.raises(AssemblyError, match="non-finite"):
        assemble_transport(g, input_profile=profile)


def test_complex_input_map_stays_complex():
    g = make_uniform_grid(5)
    sys = assemble_custom(g, -np.eye(5) + 0j, b_matrix=1j * np.ones((5, 1)))
    np.testing.assert_array_equal(sys.b_matrix, 1j * np.ones((5, 1)))
    heat = assemble_heat(g, input_profile=lambda w: np.exp(1j * w))
    np.testing.assert_array_equal(heat.b_matrix[:, 0], np.exp(1j * g.nodes))


def test_default_input_is_constant_window(systems101):
    for sys in systems101.values():
        assert sys.b_matrix.shape == (sys.n, 1)
        np.testing.assert_array_equal(sys.b_matrix[:, 0], np.ones(sys.n))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(MODELS))
def test_graph_norm_definition(systems101, seed, model):
    sys = systems101[model]
    x = random_state(sys.n, seed)
    w = sys.weights
    direct = np.sqrt(np.sum(w * x**2) + np.sum(w * (_dense(sys.a_bands) @ x) ** 2))
    assert graph_norm(sys, x) == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("n, shift", [(401, 12.0), (801, 15.0)])
def test_custom_rejects_shifted_heat(n, shift):
    # heat + shift * I is anti-dissipative on its smooth modes (r[sin pi w]
    # < 0) by a gap of about 5e-3; the tolerance scales with ||F||_2, not
    # with ||A||_2 ~ 1/h^2, so fine grids do not let it through
    g = make_uniform_grid(n)
    a = _dense(assemble_heat(g).a_bands) + shift * np.identity(n)
    with pytest.raises(AssemblyError, match="not dissipative"):
        assemble_custom(g, a)


@pytest.mark.parametrize("model", ["transport", "heat", "skew_damped", "custom"])
def test_assembly_makes_one_eigensolve(monkeypatch, model):
    # the gate reads the stored F: its bands are formed once, then they decide:
    # a diagonal F (transport, skew_damped) is its own eigenvalues, a
    # tridiagonal one (heat) gives its two end eigenvalues to two selected
    # banded solves, and only a band wider than MAX_BAND (the dense custom F)
    # takes the dense eigvalsh
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("eigvalsh", "eigvals_banded"):
        monkeypatch.setattr(sla, name, counting(name, getattr(sla, name)))
    monkeypatch.setattr(systems, "form_bands", counting("form_bands", systems.form_bands))
    if model == "custom":
        custom_complex_system(41)
    else:
        assemble_model(model, make_uniform_grid(41))
    solves = {"custom": ["eigvalsh"], "heat": ["eigvals_banded"] * 2}.get(model, [])
    assert sorted(calls) == sorted(solves + ["form_bands"])


def _random_periodic(rng, n, kd, corners, complex_values, hermitian=False):
    # a random n x n matrix whose entries lie at periodic distance
    # min(|i - j|, n - |i - j|) <= kd, the wrapped ones (|i - j| > kd) kept or
    # cut; Hermitian on request
    m = rng.standard_normal((n, n))
    if complex_values:
        m = m + 1j * rng.standard_normal((n, n))
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    keep = (np.minimum(dist, n - dist) <= kd) & (corners | (dist <= kd))
    m = np.where(keep, m, 0)
    return 0.5 * (m + m.conj().T) if hermitian else m


def _random_generator(rng, w, kd, corners, complex_values, skew=False):
    # a random dissipative A of periodic half-bandwidth kd: W A = M - c I with c
    # above Herm(M)'s top eigenvalue, or with skew W A = Skew(M) - D, D >= 0
    # diagonal with some zeros; on the grid weights (h and h / 2) w_i A_ij and
    # w_j A_ji of the skew part then cancel to the last bit, so F = D
    n = w.size
    m = _random_periodic(rng, n, kd, corners, complex_values)
    if skew:
        wa = 0.5 * (m - m.conj().T) - np.diag(rng.uniform(0.0, 2.0, n) * rng.integers(0, 2, n))
    else:
        c = np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1] + rng.uniform(0.1, 2.0)
        wa = m - c * np.identity(n)
    return wa / w[:, None]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 60),
       kd=st.sampled_from([0, 1, 2, 5]), corners=st.booleans(), complex_values=st.booleans())
def test_band_gap_matches_dense_eigvalsh(seed, n, kd, corners, complex_values):
    # F given by its periodic bands: a diagonal one is its eigenvalues, and any
    # other band, folded when it wraps (half-width <= 2 kd = 10 <= MAX_BAND),
    # takes the two selected banded solves
    kd = min(kd, n // 2)
    f = _random_periodic(np.random.default_rng(seed), n, kd, corners, complex_values,
                         hermitian=True)
    eigs = np.linalg.eigvalsh(f)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("eigvals_banded", "eigvalsh"):
            def counted(*args, _fn=getattr(sla, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            mp.setattr(sla, name, counted)
        gap, f_norm = dissipativity_gap(periodic_bands(f, kd))
    assert calls == (["eigvals_banded"] * 2 if kd else [])
    scale = max(np.abs(eigs).max(), 1e-300)
    assert gap == pytest.approx(-eigs[0], abs=1e-13 * scale)
    assert f_norm == pytest.approx(max(-eigs[0], eigs[-1]), abs=1e-13 * scale)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40),
       kd=st.sampled_from([0, 1, 2, 5, "full"]), corners=st.booleans(),
       complex_values=st.booleans(), skew=st.booleans())
def test_form_bands_reach_the_widest_band_of_f(seed, n, kd, corners, complex_values, skew):
    # F's bands go out to the widest nonzero band of -Herm(W A) and no further,
    # where 2 kd = n with band kd alone holding the entries at distance n / 2;
    # a W-skew-plus-diagonal A of any width, 2 kd = n included, has one band
    kd = n // 2 if kd == "full" else min(kd, n // 2)
    grid = make_uniform_grid(n)
    a = _random_generator(np.random.default_rng(seed), grid.weights, kd, corners,
                          complex_values, skew)
    f = dense_form(a, grid.weights)
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    kf = int(np.minimum(dist, n - dist)[f != 0].max(initial=0))
    f_bands = assemble_custom(grid, a).f_bands
    want = periodic_bands(f, kf)
    assert f_bands.shape == want.shape and f_bands.dtype == want.dtype
    assert f_bands.tobytes() == want.tobytes()  # bit for bit, sign bits included
    assert kf == 0 or f_bands[[0, -1]].any()
    assert kf == 0 or not skew
    # _dense adds the bands onto +0.0, so a -0.0 of F reads +0.0 there: its
    # sign bits are the bands' above
    assert np.array_equal(_dense(f_bands), f)


def _check_band_storage(bands):
    # read back, ab[u + p - q, q] = B[p, q] is B = P A P^T, P moving node i to
    # pos[i]; with an entry that wraps the order is 0, n - 1, 1, n - 2, ... and
    # u <= 2 kd, and with none it is the natural order, and ab LAPACK's (kd, kd)
    # storage ab[kd + i - j, j] = A[i, j], bit for bit
    kd, n = bands.shape[0] // 2, bands.shape[1]
    ab, pos, u = _lapack_band(bands)
    b = np.zeros((n, n))
    for p in range(n):
        for q in range(max(0, p - u), min(n, p + u + 1)):
            b[p, q] = ab[u + p - q, q]
    dense = _dense(bands)
    np.testing.assert_array_equal(b[np.ix_(pos, pos)], dense)
    if np.any(dense[np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > kd]):
        folded = np.column_stack((np.arange(n), np.arange(n)[::-1])).ravel()[:n]
        np.testing.assert_array_equal(np.argsort(pos), folded)
        assert u <= 2 * kd
        return
    want_ab = np.zeros((2 * kd + 1, n))
    for k in range(-kd, kd + 1):
        for i in range(max(0, -k), min(n, n - k)):
            want_ab[kd - k, i + k] = bands[k + kd, i]
    np.testing.assert_array_equal(pos, np.arange(n))
    assert u == kd
    np.testing.assert_array_equal(ab, want_ab)


def _cut_wrapped(bands):
    # the same bands with every entry that wraps from one end to the other cut
    kd, n = bands.shape[0] // 2, bands.shape[1]
    j = np.arange(n) + np.arange(-kd, kd + 1)[:, None]
    return np.where((0 <= j) & (j < n), bands, 0.0)


@pytest.mark.parametrize("lower, upper", [(0, 0), (1, 1), (2, 0), (0, 3), (3, 1)])
def test_band_storage_is_lapack_layout(lower, upper):
    # a lopsided band, sub-diagonals -lower..upper of kd = max(lower, upper),
    # whose outer rows wrap around, and the same band with the wrapped entries
    # cut; its rows u.. are eigvals_banded's lower layout, one sub-diagonal per row
    n, kd = 9, max(lower, upper)
    bands = np.random.default_rng(lower + 4 * upper).standard_normal((2 * kd + 1, n))
    bands[:kd - lower] = bands[kd + upper + 1:] = 0.0
    _check_band_storage(bands)
    _check_band_storage(_cut_wrapped(bands))


@pytest.mark.parametrize("n, kd", [(3, 1), (4, 2), (6, 3), (9, 4)])
def test_band_storage_of_the_widest_bands(n, kd):
    # kd = n // 2: with 2 kd = n, band -kd is zero and band kd holds the
    # entries at distance n / 2, on both sides of the diagonal, or the two
    # bands hold parts of them that add up
    bands = np.random.default_rng(n).standard_normal((2 * kd + 1, n))
    _check_band_storage(bands)
    _check_band_storage(_cut_wrapped(bands))
    if 2 * kd == n:
        bands[0] = 0.0
        _check_band_storage(bands)
        _check_band_storage(_cut_wrapped(bands))


def _index_array_fold(bands):
    # the fold as first written, placing every band at once through (2 kd + 1) x n
    # index and mask arrays: the reference _lapack_band keeps the output of
    n, kd = bands.shape[1], bands.shape[0] // 2
    if 2 * kd == n:
        both, low = bands[0] + bands[-1], np.arange(n) < kd
        bands = np.vstack((np.where(low, 0, both), bands[1:-1], np.where(low, both, 0)))
    i = np.broadcast_to(np.arange(n), bands.shape)
    j = i + np.arange(-kd, kd + 1)[:, None]
    pos = np.arange(n)
    if bands[(j < 0) | (j >= n)].any():
        pos = np.minimum(2 * pos, 2 * (n - 1 - pos) + 1)
    nz = bands != 0
    p, q = pos[i[nz]], pos[j[nz] % n]
    u = int(np.abs(p - q).max(initial=0))
    ab = np.zeros((2 * u + 1, n), dtype=bands.dtype)
    ab[u + p - q, q] = bands[nz]
    return ab, pos, u


def _assert_same_fold(bands):
    (ab, pos, u), (want_ab, want_pos, want_u) = _lapack_band(bands), _index_array_fold(bands)
    assert u == want_u and ab.dtype == want_ab.dtype and ab.shape == want_ab.shape
    np.testing.assert_array_equal(pos, want_pos)
    assert ab.tobytes() == want_ab.tobytes()  # bit for bit, sign bits included


@pytest.mark.parametrize("n", [21, 801])
@pytest.mark.parametrize("model", MODELS)
def test_fold_of_the_named_models_matches_the_index_array_fold(model, n):
    # F, and A - I as the probe solve shifts it, of every named model
    system = assemble_model(model, make_uniform_grid(n))
    shifted = system.a_bands.copy()
    shifted[shifted.shape[0] // 2] -= 1.0
    _assert_same_fold(system.f_bands)
    _assert_same_fold(shifted)


@pytest.mark.parametrize("n", [6, 7, 40, 41])
def test_fold_of_every_width_matches_the_index_array_fold(n):
    # every kd up to n // 2 (2 kd = n at even n), with zeros, -0.0 entries that are
    # not placed, one diagonal alone, and complex entries
    rng = np.random.default_rng(n)
    for kd in range(n // 2 + 1):
        bands = rng.standard_normal((2 * kd + 1, n))
        bands[rng.random(bands.shape) < 0.3] = 0.0
        signed = bands.copy()
        signed[rng.random(bands.shape) < 0.2] = -0.0
        diagonal = np.zeros_like(bands)
        diagonal[kd] = 1.0
        for case in (bands, signed, diagonal, bands + 1j * rng.standard_normal(bands.shape),
                     _cut_wrapped(bands)):
            _assert_same_fold(case)


def test_fold_of_a_dense_band_holds_only_its_output():
    # a dense periodic band at n = 801 (kd = 400, every entry nonzero, so it wraps)
    # folds into u = 800: the fold holds its 10.3 MB output and O(n) indices per
    # band, 1.03 times the output measured; the index-array fold held 3.57 times
    n = 801
    bands = np.random.default_rng(1).standard_normal((n, n))
    tracemalloc.start()
    try:
        ab, _, u = _lapack_band(bands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u == n - 1
    assert peak <= 1.1 * ab.nbytes


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(MAX_BAND + 3, 60),
       band=st.sampled_from([(1, 1), (0, 2), (3, 1), (MAX_BAND + 1, MAX_BAND + 1)]),
       corners=st.booleans(), complex_values=st.booleans())
def test_probe_solve_matches_dense_solve(seed, n, band, corners, complex_values):
    # a random dissipative generator, W A = M - c I with M of the given
    # (lower, upper) band and c above Herm(M)'s top eigenvalue: tridiagonal,
    # lopsided or wider than MAX_BAND, or with periodic corners, which fold
    # the band; every one takes one banded solve
    rng = np.random.default_rng(seed)
    grid = make_uniform_grid(n)
    draw = (lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            if complex_values else rng.standard_normal(shape))
    m = np.triu(np.tril(draw(n, n), band[1]), -band[0])
    if corners:
        m[0, -1], m[-1, 0] = draw(2)
    c = np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1] + rng.uniform(0.0, 2.0)
    sys = assemble_custom(grid, (m - c * np.identity(n)) / grid.weights[:, None])
    w, rhs = grid.weights, draw(n, 3)
    shifted = np.identity(n) - np.sqrt(w)[:, None] * _dense(sys.a_bands) / np.sqrt(w)
    want = np.linalg.solve(shifted, rhs)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("solve_banded", "solve"):
            def counted(*args, _fn=getattr(sla, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            mp.setattr(sla, name, counted)
        got = _probe_solve(sys, rhs)
    assert calls == ["solve_banded"]
    # round-off: the backward-stable bound, relative to the solution
    tol = n * np.finfo(float).eps * np.linalg.cond(shifted)
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


def test_probe_solve_band_without_corners_may_be_singular():
    # shifted = W^{1/2} A W^{-1/2} - I = T - c I, T the periodic tridiagonal matrix with
    # off-diagonals t and twisted corners -t. Cutting the corners leaves the
    # path matrix, whose top eigenvalue 2 t cos(pi / (n + 1)) is c: the cut band
    # is singular while the whole stays dissipative with margin 11, so the solve
    # must keep the corners in its band, as the folded order does; it solves with -shifted
    n, t = 20, 5000.0
    grid = make_uniform_grid(n)
    path = np.diag(np.full(n - 1, t), 1) + np.diag(np.full(n - 1, t), -1)
    path -= 2 * t * np.cos(np.pi / (n + 1)) * np.identity(n)
    shifted = path.copy()
    shifted[0, -1] = shifted[-1, 0] = -t
    assert np.linalg.cond(path) > 1e15
    assert np.linalg.eigvalsh(shifted)[-1] < -11.0
    sw = np.sqrt(grid.weights)
    sys = assemble_custom(grid, (shifted + np.identity(n)) * sw / sw[:, None])
    rhs = np.random.default_rng(3).standard_normal((n, 3))
    want = np.linalg.solve(-shifted, rhs)
    got = _probe_solve(sys, rhs)
    tol = n * np.finfo(float).eps * np.linalg.cond(shifted)
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40),
       kd=st.sampled_from([0, 1, 2, 5, "full"]), corners=st.booleans(),
       complex_values=st.booleans())
def test_band_paths_match_their_dense_references(seed, n, kd, corners, complex_values):
    # a random dissipative custom generator, W A = M - c I with M of periodic
    # half-bandwidth kd ("full": n // 2, so a dense A when the corners stay),
    # against the dense reference of every reader of its bands
    kd = n // 2 if kd == "full" else min(kd, n // 2)
    rng = np.random.default_rng(seed)
    grid, w = make_uniform_grid(n), make_uniform_grid(n).weights
    a = _random_generator(rng, w, kd, corners, complex_values)
    sys = assemble_custom(grid, a)
    # dense -> bands -> dense is bit-exact; an aliased band (2 kd = n) is kept once
    kd = sys.a_bands.shape[0] // 2
    np.testing.assert_array_equal(sys.a_bands, periodic_bands(a, kd))
    dense = _dense(sys.a_bands)
    assert dense.dtype == a.dtype and dense.tobytes() == a.tobytes()
    # F = -Herm(W A), bit for bit
    f = dense_form(a, w)
    assert np.array_equal(_dense(sys.f_bands), f)
    x = rng.standard_normal((7, n)) + (1j * rng.standard_normal((7, n)) if complex_values else 0)
    ax_bound = np.abs(x) @ np.abs(a).T
    assert np.all(np.abs(band_product(sys.a_bands, x) - x @ a.T) <= 1e-13 * ax_bound)
    assert np.all(np.abs(band_product(sys.a_bands, x[0]) - a @ x[0]) <= 1e-13 * ax_bound[0])
    rates = np.einsum("ij,ij->i", x.conj(), x @ f.T).real
    rate_bound = np.einsum("ij,jk,ik->i", np.abs(x), np.abs(f), np.abs(x))
    assert np.all(np.abs(_form_rates(sys.f_bands, x) - rates) <= 1e-13 * rate_bound)
    assert abs(form_r(sys, x[0]) - rates[0]) <= 1e-13 * rate_bound[0]
    assert form_r(sys, x[0]) == _form_rates(sys.f_bands, x[:1])[0]  # one kernel, one set of bits
    cross = np.conj(x[1]) @ f @ x[0]
    assert abs(form_r(sys, x[0], x[1]) - cross) <= 1e-13 * (np.abs(x[1]) @ np.abs(f) @ np.abs(x[0]))
    graph = np.sqrt(norm_sq(w, x[0]) + norm_sq(w, a @ x[0]))
    assert graph_norm(sys, x[0]) == pytest.approx(graph, rel=1e-13)
    eigs = np.linalg.eigvalsh(f)
    gap, f_norm = dissipativity_gap(sys.f_bands)
    scale = np.abs(eigs).max()
    assert gap == pytest.approx(-eigs[0], abs=1e-12 * scale)
    assert f_norm == pytest.approx(max(-eigs[0], eigs[-1]), abs=1e-12 * scale)
    sw = np.sqrt(w)
    shifted = np.identity(n) - sw[:, None] * a / sw
    rhs = x[:3].T
    want = np.linalg.solve(shifted, rhs)
    got = _probe_solve(sys, rhs)
    tol = n * np.finfo(float).eps * np.linalg.cond(shifted)
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), half=st.integers(2, 20), corners=st.booleans(),
       complex_values=st.booleans(), skew=st.booleans())
def test_aliased_bands_add_up_in_every_reader(seed, half, corners, complex_values, skew):
    # where 2 kd = n, bands -kd and kd hold entries of the same places: a system whose
    # entries at distance n / 2 are split at random between the two (all in one, all
    # in the other, or a random share) is the A of their sums to every reader, at the
    # tolerances of test_band_paths_match_their_dense_references
    n, kd = 2 * half, half
    rng = np.random.default_rng(seed)
    grid, w = make_uniform_grid(n), make_uniform_grid(n).weights
    bands = periodic_bands(_random_generator(rng, w, kd, corners, complex_values, skew), kd)
    share = np.where(rng.integers(0, 3, n) == 2, rng.uniform(size=n), rng.integers(0, 2, n))
    bands[0] = share * bands[-1]
    bands[-1] -= bands[0]
    sys = DiscreteSystem(grid, bands, np.ones((n, 1)))
    a = np.zeros((n, n), dtype=bands.dtype)  # the oracle: each band entry added in its place
    for k in range(-kd, kd + 1):
        for i in range(n):
            a[i, (i + k) % n] += bands[k + kd, i]
    x = rng.standard_normal((7, n)) + (1j * rng.standard_normal((7, n)) if complex_values else 0)
    ax_bound = np.abs(x) @ _dense(np.abs(bands)).T
    assert np.all(np.abs(band_product(sys.a_bands, x) - x @ a.T) <= 1e-13 * ax_bound)
    f = dense_form(a, w)
    f_bound = dense_form(-_dense(np.abs(bands)), w)
    assert np.all(np.abs(_dense(sys.f_bands) - f) <= 1e-13 * f_bound)
    rates = np.einsum("ij,ij->i", x.conj(), x @ f.T).real
    rate_bound = np.einsum("ij,jk,ik->i", np.abs(x), f_bound, np.abs(x))
    assert abs(form_r(sys, x[0]) - rates[0]) <= 1e-13 * rate_bound[0]
    cross = np.conj(x[1]) @ f @ x[0]
    assert abs(form_r(sys, x[0], x[1]) - cross) <= 1e-13 * (np.abs(x[1]) @ f_bound @ np.abs(x[0]))
    eigs = np.linalg.eigvalsh(f)
    gap, f_norm = dissipativity_gap(sys.f_bands)
    # the scale of F's parts, which does not vanish where they cancel (a skew A, D = 0)
    scale = f_bound.sum(axis=1).max()
    assert gap == pytest.approx(-eigs[0], abs=1e-12 * scale)
    assert f_norm == pytest.approx(max(-eigs[0], eigs[-1]), abs=1e-12 * scale)
    sw = np.sqrt(w)
    shifted = np.identity(n) - sw[:, None] * a / sw
    want = np.linalg.solve(shifted, x[:3].T)
    got = _probe_solve(sys, x[:3].T)
    tol = n * np.finfo(float).eps * np.linalg.cond(shifted)
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)
    # the run steps on expm of the dense A, against a loop on expm of the oracle
    u = ControlSignal(0.05, rng.standard_normal(6))
    p, x_k = sla.expm(u.dt * a), x[0]
    for k in range(5):
        x_k = p @ (x_k + 0.5 * u.dt * u.values[k]) + 0.5 * u.dt * u.values[k + 1]
    got = final_state(sys, x[0], u)
    assert np.linalg.norm(got - x_k) <= 1e-12 * max(1.0, np.linalg.norm(x_k))


def _wrapped_band_product(bands, x):
    # the oracle of band_product: a copy of x with kd entries wrapped onto each
    # end, band k times the slice k entries past x's start
    n, kd = bands.shape[1], bands.shape[0] // 2
    wrapped = np.concatenate((x[..., n - kd:], x, x[..., :kd]), axis=-1)
    return sum(bands[k + kd] * wrapped[..., kd + k:kd + k + n] for k in range(-kd, kd + 1))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kd=st.integers(0, 4), extra=st.integers(0, 5),
       complex_bands=st.booleans(), complex_states=st.booleans(),
       rows=st.sampled_from([None, 1, 3]))
def test_band_product_matches_a_wrapped_copy_bitwise(seed, kd, extra, complex_bands,
                                                     complex_states, rows):
    # n = 2 kd + extra, so extra = 0 is the aliased 2 kd = n; rows None is a 1-D state.
    # Half the entries are zeros, signed where a negative entry multiplies one
    n = max(2 * kd + extra, 1)
    rng = np.random.default_rng(seed)

    def draw(shape, complex_values):
        v = rng.standard_normal(shape) * (rng.random(shape) < 0.5)
        if complex_values:
            v = v + 1j * rng.standard_normal(shape) * (rng.random(shape) < 0.5)
        return v

    bands = draw((2 * kd + 1, n), complex_bands)
    x = draw(n if rows is None else (rows, n), complex_states)
    got, want = band_product(bands, x), _wrapped_band_product(bands, x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_one_band_product_copies_no_state():
    # a one-band F times a block of 64 rows on 801 nodes holds the product
    # and no copy of the block (measured 1.16 blocks; a wrapped copy makes it 2.16)
    rng = np.random.default_rng(0)
    f, block = rng.standard_normal((1, 801)), rng.standard_normal((64, 801))
    band_product(f, block)
    tracemalloc.start()
    try:
        band_product(f, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * block.nbytes


def test_wrapping_custom_generator_takes_the_band_routes(monkeypatch):
    # skew_damped's A plus a periodic viscosity, 1e-3 times the periodic second
    # difference over W: F is tridiagonal with two wrapped corners, so its
    # folded band (half-width 2) takes the gate's two banded solves, no eigvalsh
    n = 1601
    grid = make_uniform_grid(n)
    lap = -2.0 * np.identity(n) + np.roll(np.identity(n), 1, 1) + np.roll(np.identity(n), -1, 1)
    a = _dense(assemble_skew_damped(grid).a_bands) + 1e-3 * lap / grid.h**2 / grid.weights[:, None]
    calls = []
    for name in ("eigvals_banded", "eigvalsh"):
        def counted(*args, _fn=getattr(sla, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(sla, name, counted)
    sys = assemble_custom(grid, a)
    gap, f_norm = dissipativity_gap(sys.f_bands)
    monkeypatch.undo()
    assert calls == ["eigvals_banded"] * 4
    eigs = np.linalg.eigvalsh(_dense(sys.f_bands))
    scale = np.abs(eigs).max()
    assert gap == pytest.approx(-eigs[0], abs=1e-13 * scale)
    assert f_norm == pytest.approx(max(-eigs[0], eigs[-1]), abs=1e-13 * scale)
    states = np.stack([random_state(n, seed, complex_values=seed % 2 == 1) for seed in range(4)])
    assert np.all(_q_identity_rows(sys, states) <= 1e-10)


@pytest.mark.parametrize("n", [21, 201, 801])
def test_heat_probe_root_matches_dense_root(n):
    # the dense solve-and-eigh root against heat's closed form: A = S diag(lambda) S
    # with S = sine_basis, and W^{1/2} A W^{-1/2} = A since the boundary nodes are
    # decoupled, so the probe core is S diag((1 - lambda)^{-1/2}) S
    grid = make_uniform_grid(n)
    closed = sine_basis(np.identity(n))
    closed *= (1.0 - sine_spectrum(grid)) ** -0.5
    sine_basis(closed)
    np.testing.assert_allclose(assemble_heat(grid).q_sqrt_hat, closed, rtol=0, atol=1e-13)


def _numpy_psd_sqrt(hat):
    # psd_sqrt as first written, on numpy's eigh
    eigvals, vecs = np.linalg.eigh(hat)
    return (vecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ vecs.conj().T


def _first_m_factors(system):
    # the M core as first written, on numpy's Cholesky and eigh: G = graph_gram of the
    # dense A, symmetrized as 0.5 * (g + g^H), and each Hermitian part
    # 0.5 * (x + x^H) of a sum
    a, f, w = _dense(system.a_bands), _dense(system.f_bands), system.weights
    g = (a.conj().T * w) @ a
    g.flat[::g.shape[0] + 1] += w
    g = 0.5 * (g + g.conj().T)
    np.testing.assert_array_equal(graph_gram(a, w), g)
    l = np.linalg.cholesky(g)
    half = sla.solve_triangular(l, 0.5 * (f + f.conj().T), lower=True)
    hat = sla.solve_triangular(l, half.conj().T, lower=True).conj().T
    return l, _numpy_psd_sqrt(0.5 * (hat + hat.conj().T))


# the complex generator stops at n = 201: at 801 its two routes take 5 s
_ROOT_CASES = [(m, n) for n in (41, 201, 801) for m in (*MODELS, "complex")
               if (m, n) != ("complex", 801)]


def _roots_off_their_first_formulas():
    """The dense roots that differ in a bit from their first formulas, one
    "model-n name" line each; run in a child on one BLAS thread."""
    for model, n in _ROOT_CASES:
        system = (custom_complex_system(n) if model == "complex"
                  else assemble_model(model, make_uniform_grid(n)))
        res = _probe_solve(system, np.identity(n))
        want = (*_first_m_factors(system), _numpy_psd_sqrt(0.5 * (res + res.conj().T)))
        for name, have in zip(("g_chol", "m_sqrt_hat", "q_sqrt_hat"), want):
            got = getattr(system, name)
            if got.dtype != have.dtype or not np.array_equal(got, have):
                print(f"{model}-{n} {name}")


def _one_thread_child(code: str) -> str:
    # the stdout of code run in a fresh interpreter on one BLAS thread, which can
    # import this module
    env = child_env()
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    env["PYTHONPATH"] = os.pathsep.join((env["PYTHONPATH"], str(Path(__file__).parent)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def roots_off_their_first_formulas():
    code = "import test_systems; test_systems._roots_off_their_first_formulas()"
    return _one_thread_child(code).split("\n")


@pytest.mark.parametrize("model, n", _ROOT_CASES)
def test_dense_roots_keep_the_bits_of_their_first_formulas(model, n,
                                                           roots_off_their_first_formulas):
    # scipy's Cholesky, triangular solves and eigh (syevd, numpy's driver), each in
    # place, against numpy's LAPACK on copies: every bit of L and both cores, on one
    # BLAS thread, where the two libraries' OpenBLAS builds agree
    off = [line for line in roots_off_their_first_formulas if line.startswith(f"{model}-{n} ")]
    assert off == []


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("root, arrays", [("m_sqrt_hat", 5.5), ("q_sqrt_hat", 4.5)])
def test_dense_roots_hold_few_n_by_n_arrays(model, root, arrays):
    # a fresh system at n = 401: each step runs in place and each n x n array is
    # freed after its last read, so the M core peaks at 4 float64 arrays and the Q
    # core at 3, syevd's workspace of 2 included (tracemalloc sees it: scipy
    # allocates it as a numpy array); the first formulas held 11 and 5, and numpy's
    # eigh added its copy and workspace unseen
    n = 401
    system = assemble_model(model, make_uniform_grid(n))
    tracemalloc.start()
    try:
        getattr(system, root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * n * n


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS and VmHWM")
@pytest.mark.parametrize("root, arrays", [("m_sqrt_hat", 5.2), ("q_sqrt_hat", 4.0)])
def test_dense_roots_peak_rss(root, arrays):
    # the peak resident memory that reading a root adds to a fresh interpreter's
    # assembled transport system at n = 1601, in n x n float64 arrays: it counts what
    # tracemalloc misses (the allocator's free chunks, the BLAS buffers). M reads
    # 4.75 and Q 3.6; on numpy's eigh and Cholesky they read 6.6 and 5.2, and on
    # scipy's without the in-place steps 5.6 and 4.2. The peak is VmHWM, not
    # ru_maxrss, which keeps the high-water mark of the process that spawned the child
    n = 1601
    code = ("from phdiss import assemble_model, make_uniform_grid\n"
            "def kib(key):\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(line.split()[1]) for line in f if line.startswith(key))\n"
            f"system = assemble_model('transport', make_uniform_grid({n}))\n"
            "base = kib('VmRSS:')\n"
            f"system.{root}\n"
            "print(kib('VmHWM:') - base)\n")
    added = 1024 * int(_one_thread_child(code))
    assert added <= arrays * 8 * n * n


# the dense A and F that a reader forms, and the two roots
_DENSE_READERS = (lambda s: _dense(s.a_bands), lambda s: _dense(s.f_bands),
                  lambda s: s.m_sqrt_hat, lambda s: s.q_sqrt_hat)


def test_oversized_grid_refused_before_allocating():
    # a 50,000-node grid needs 20 GB per n x n operator: its grid and bands
    # are O(n) and build, and each dense reader refuses it before its first
    # n x n array exists
    system = assemble_model("transport", Grid(50_000))
    tracemalloc.start()
    try:
        for reader in _DENSE_READERS:
            with pytest.raises(GridError, match="MAX_OPERATOR_MB"):
                reader(system)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def _refused_before_allocating(read, limit=2**20):
    # read() raises GridError naming the budget, with under limit bytes allocated
    tracemalloc.start()
    try:
        with pytest.raises(GridError, match="MAX_OPERATOR_MB"):
            read()
        assert tracemalloc.get_traced_memory()[1] < limit
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model", MODELS)
def test_dense_readers_refuse_the_first_grid_past_the_budget(model):
    # n = 2001 is the first grid whose n x n float64 array (32.03 MB) exceeds
    # MAX_OPERATOR_MB; a run's bands are O(n), so the system builds
    system = assemble_model(model, make_uniform_grid(2001))
    for reader in _DENSE_READERS:
        _refused_before_allocating(lambda: reader(system))


def test_dense_routes_of_custom_generators_refuse_past_the_budget():
    grid = make_uniform_grid(2001)
    # assemble_custom reads a dense A: refused before it looks at one, here a
    # broadcast zero that holds no n x n memory
    _refused_before_allocating(lambda: assemble_custom(grid, np.broadcast_to(0.0, (2001, 2001))))
    # a direct system at dt = 100 needs more Taylor steps than a dense product
    # costs, so its step route forms the dense propagator
    skew = assemble_model("skew_damped", grid)
    direct = DiscreteSystem(grid, skew.a_bands, skew.b_matrix)
    u = control_signal("zero", 100.0, 100.0)
    assert _band_step(direct.a_bands, u.dt, float) is None
    _refused_before_allocating(lambda: final_state(direct, np.ones(2001), u))
    # an F wider than MAX_BAND takes the eigvalsh gate when the system is built,
    # after forming F's 35 bands and their folded LAPACK form (2.6 MB measured),
    # below an eighth of the 32 MB n x n array
    wide = np.zeros((2 * MAX_BAND + 3, 2001))
    wide[MAX_BAND + 1], wide[0], wide[-1] = -1.0, 0.01, 0.01
    _refused_before_allocating(lambda: DiscreteSystem(grid, wide, np.ones((2001, 1))),
                               limit=2**22)


_FAULTS = ("non_dissipative", "nan_a", "inf_b", "object_a", "a_long", "a_short",
           "a_even", "a_too_wide", "a_flat", "b_flat", "b_short")


def _faulty_parts(system, fault, i, j, scale):
    # A's bands and B of a good system with one fault injected at (i, j) or
    # of size scale
    n, a, b = system.n, system.a_bands.copy(), system.b_matrix.copy()
    if fault == "non_dissipative":
        a *= -scale  # F becomes -scale * F, whose smallest eigenvalue is < 0
    elif fault == "nan_a":
        a[i % a.shape[0], j] = np.nan
    elif fault == "inf_b":
        b[i, 0] = -np.inf
    elif fault == "object_a":
        a = a.astype(object)
    elif fault == "a_long":
        a = np.hstack((a, a[:, :1]))  # bands of n + 1 entries
    elif fault == "a_short":
        a = a[:, :-1]
    elif fault == "a_even":
        a = a[:-1]  # no middle band
    elif fault == "a_too_wide":
        a = np.zeros((n + 2 + n % 2, n))  # 2 kd + 1 > n + 1 bands
    elif fault == "a_flat":
        a = a[1]
    elif fault == "b_flat":
        b = b[:, 0]
    else:
        b = b[:-1]
    return a, b


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(MODELS), n=st.integers(3, 40), fault=st.sampled_from(_FAULTS),
       i=st.integers(0, 10**6), j=st.integers(0, 10**6), scale=st.floats(0.5, 100.0))
def test_direct_system_with_a_fault_is_refused(model, n, fault, i, j, scale):
    # a DiscreteSystem built directly checks itself as an assembled one does
    system = assemble_model(model, make_uniform_grid(n))
    a, b = _faulty_parts(system, fault, i % n, j % n, scale)
    with pytest.raises(AssemblyError):
        DiscreteSystem(system.grid, a, b)
    # the same parts without the fault build, and form the assembled F
    rebuilt = DiscreteSystem(system.grid, system.a_bands, system.b_matrix)
    assert np.array_equal(rebuilt.f_bands, system.f_bands)


def test_direct_system_fields():
    init = [f.name for f in dataclasses.fields(DiscreteSystem) if f.init]
    assert init == ["grid", "a_bands", "b_matrix"]


def test_direct_system_takes_the_custom_step_route():
    # a system built directly is "custom" whatever bands it holds, so it steps
    # as assemble_custom's does and cannot claim another model's step route
    grid = make_uniform_grid(101)
    skew = assemble_model("skew_damped", grid)
    direct = DiscreteSystem(grid, skew.a_bands, skew.b_matrix)
    assert direct.model_tag == "custom"
    x0 = initial_state(grid, "sine:1")
    final = [free_run(system, x0, 1.0, grid.h)[-1]
             for system in (direct, assemble_custom(grid, _dense(skew.a_bands)), skew)]
    np.testing.assert_array_equal(final[0], final[1])
    assert np.linalg.norm(final[0] - final[2]) <= 1e-12 * np.linalg.norm(final[2])
    with pytest.raises(TypeError):
        DiscreteSystem(grid, skew.a_bands, skew.b_matrix, "heat")
    with pytest.raises(TypeError):
        DiscreteSystem(grid, skew.a_bands, skew.b_matrix, model_tag="heat")


def test_model_tag_is_read_only():
    # only an assembler names a system: a direct one cannot be renamed into
    # heat's sine step route after it is built
    grid = make_uniform_grid(101)
    skew = assemble_model("skew_damped", grid)
    direct = DiscreteSystem(grid, skew.a_bands, skew.b_matrix)
    for system in (direct, skew):
        with pytest.raises(AttributeError):
            system.model_tag = "heat"
    assert direct.model_tag == "custom" and step_route(direct, grid.h) == "expm"
    assert skew.model_tag == "skew_damped"
    assert "model_tag" not in {f.name for f in dataclasses.fields(DiscreteSystem)}


def test_registry_maps_each_tag_to_its_assembler_and_step_route():
    # MODELS holds one assembler per tag; the tag alone picks the step route,
    # so the same bands built directly are "custom" and take expm
    grid = make_uniform_grid(41)
    named = {tag: assemble(grid) for tag, assemble in systems.MODELS.items()}
    assert {tag: system.model_tag for tag, system in named.items()} == {
        tag: tag for tag in MODELS}
    assert {tag: step_route(system, grid.h) for tag, system in named.items()} == {
        "transport": "shift", "heat": "sine", "skew_damped": "expm"}
    for tag in ("heat", "transport"):
        direct = DiscreteSystem(grid, named[tag].a_bands, named[tag].b_matrix)
        assert step_route(direct, grid.h) == "expm"


def test_operator_budget_is_the_module_constant(monkeypatch):
    # exercised on a small budget, so no test allocates near the real one:
    # 21 nodes take 3.5 kB per operator, 41 nodes 13.4 kB
    monkeypatch.setattr(grids, "MAX_OPERATOR_MB", 0.01)
    assert _dense(assemble_model("heat", make_uniform_grid(21)).a_bands).shape == (21, 21)
    with pytest.raises(GridError, match="MAX_OPERATOR_MB"):
        _dense(assemble_model("heat", make_uniform_grid(41)).a_bands)


def test_operator_budget_admits_the_largest_grid():
    assert 8 * 1601**2 / 1e6 <= grids.MAX_OPERATOR_MB
