import numpy as np
import pytest

from phdiss import (assemble_model, control_signal, make_uniform_grid,
                    mild_solution)

MODELS = ("transport", "heat", "skew_damped")


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


def free_run(system, x0, t_final: float, dt: float):
    """The uncontrolled run of x0: mild_solution under the zero control."""
    return mild_solution(system, x0, control_signal("zero", t_final, dt, m=system.m_inputs))
