import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from phdiss import (assemble_custom, assemble_model, control_signal,
                    make_uniform_grid)
from phdiss.semigroup import _make_step, _shift_values, run_blocks, sine_basis
from phdiss.systems import _dense

MODELS = ("transport", "heat", "skew_damped")
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def child_env() -> dict:
    """The environment of a child interpreter that runs phdiss: this one's,
    without PHDISS_OUT, with the checkout's src/ first on PYTHONPATH, as
    pytest's own pythonpath setting reaches only this process."""
    env = {k: v for k, v in os.environ.items() if k != "PHDISS_OUT"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def script_main(name: str):
    """The main function of scripts/name, loaded as a fresh module."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.fixture(scope="session")
def grid101():
    return make_uniform_grid(101)


@pytest.fixture(scope="session")
def systems101(grid101):
    return {m: assemble_model(m, grid101) for m in MODELS}


def random_state(n: int, seed: int, complex_values: bool = False) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    if complex_values:
        v = v + 1j * rng.standard_normal(n)
    return v


def free_control(system, t_final: float, dt: float):
    """The zero control of the system on the clock of t_final and dt."""
    return control_signal("zero", t_final, dt, m=system.m_inputs)


def run_states(system, x0, u):
    """Every state of the run of x0 under the control u, as the rows of one
    (K+1) x n array: run_blocks' blocks stacked."""
    return np.concatenate(list(run_blocks(system, x0, u)))


def free_run(system, x0, t_final: float, dt: float):
    """The states of the uncontrolled run of x0: run_states under the zero
    control."""
    return run_states(system, x0, free_control(system, t_final, dt))


def step_route(system, dt: float) -> str:
    """The step route _make_step takes for the system at dt, read off what it
    does to a real state: "sine" when its basis is sine_basis, "shift" when
    its step is the exact shift by dt / h nodes, "expm" when the step agrees
    with scipy's e^{dt A} to 1e-10, else "unknown"."""
    basis, step, _, _ = _make_step(system, dt, float)
    if basis is sine_basis:
        return "sine"
    v = random_state(system.n, 7)
    got = step(v.copy(), np.empty_like(v))
    k = round(dt / system.grid.h)
    if k >= 1 and np.array_equal(got, _shift_values(v, k, system.n, np.empty_like(v))):
        return "shift"
    ref = sla.expm(dt * _dense(system.a_bands)) @ v
    return "expm" if np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref) else "unknown"


def custom_complex_system(n: int = 21, seed: int = 5):
    """A complex, non-normal custom system on n nodes, dissipative in W."""
    # W A = K - C with K skew-Hermitian and C Hermitian PSD
    g = make_uniform_grid(n)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    wa = 0.5 * (z - z.conj().T) - (c @ c.conj().T / n + np.eye(n))
    return assemble_custom(g, wa / g.weights[:, None])


def periodic_bands(a: np.ndarray, kd: int) -> np.ndarray:
    """The oracle of assemble_custom's conversion: the 2 kd + 1 periodic
    bands of the n x n matrix a, entry by entry, bands[k + kd, i] =
    a[i, (i + k) mod n]; where 2 kd = n, band -kd is zero and band kd keeps
    the entries at distance n / 2."""
    n = a.shape[0]
    bands = np.array([[a[i, (i + k) % n] for i in range(n)] for k in range(-kd, kd + 1)])
    if 2 * kd == n:
        bands[0] = 0
    return bands


def dense_form(a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """F = -Herm(W A) of a dense A, the oracle of the system's F bands."""
    wa = weights[:, None] * a
    return -(0.5 * (wa + wa.conj().T))


def apply_m_sqrt(system, x: np.ndarray) -> np.ndarray:
    """M^{1/2} x = L^{-H} s_hat L^H x from the system's core."""
    lh = system.g_chol.conj().T
    return sla.solve_triangular(lh, system.m_sqrt_hat @ (lh @ x), lower=False)
