"""The embedded RK5(4): accuracy, stats, determinism, failure modes."""

import numpy as np
import pytest

from cohspace.errors import ConfigError, NumericalError, StiffnessError
from cohspace.integrate import solve_rk45


def test_exponential_accuracy():
    sol = solve_rk45(lambda t, y: 1j * y, 0.0, 10.0, np.array([1.0 + 0j]),
                     rtol=1e-9, atol=1e-12, t_eval=[0.0, 2.5, 10.0])
    assert sol.times.tolist() == [0.0, 2.5, 10.0]
    for t, y in zip(sol.times, sol.states):
        assert abs(y[0] - np.exp(1j * t)) < 5e-9
    assert sol.stats.steps > 10 and sol.stats.rejected >= 0


def test_linear_system_matches_expm():
    import scipy.linalg

    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = -0.3 * (a + a.conj().T) + 1j * np.diag(rng.standard_normal(4))
    y0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    sol = solve_rk45(lambda t, y: a @ y, 0.0, 2.0, y0, rtol=1e-10, atol=1e-13, t_eval=[2.0])
    ref = scipy.linalg.expm(2.0 * a) @ y0
    np.testing.assert_allclose(sol.states[0], ref, rtol=1e-8, atol=1e-10)


def test_eval_times_hit_exactly_and_include_t0():
    ts = [0.0, 0.1, 0.25, 0.9, 1.0]
    sol = solve_rk45(lambda t, y: -y, 0.0, 1.0, np.array([1.0 + 0j]), t_eval=ts)
    assert sol.times.tolist() == ts


def test_byte_determinism():
    def f(t, y):
        return np.array([y[1], -np.sin(y[0].real) + 0j])

    runs = []
    for _ in range(2):
        sol = solve_rk45(f, 0.0, 7.0, np.array([1.0 + 0j, 0.0j]), t_eval=np.linspace(0, 7, 15))
        runs.append((sol.states.tobytes(), sol.stats.steps, sol.stats.rejected))
    assert runs[0] == runs[1]


def test_stiffness_error():
    # y' = -1e16 (y - cos t): required step underflows the 1e-14*span floor
    def f(t, y):
        return -1e16 * (y - np.cos(t))

    with pytest.raises(StiffnessError):
        solve_rk45(f, 0.0, 1.0, np.array([2.0 + 0j]), rtol=1e-12, atol=1e-14, max_steps=5000)


@pytest.mark.filterwarnings("error")
def test_nan_rhs_is_reported_as_numerical_not_stiff():
    def f(t, y):
        return np.full_like(y, np.nan) if t > 0.3 else -y

    with pytest.raises(NumericalError) as info:
        solve_rk45(f, 0.0, 1.0, np.array([1.0 + 0j]))
    assert not isinstance(info.value, StiffnessError)
    msg = str(info.value)
    assert "non-finite" in msg and "stage k" in msg and "h = " in msg
    t = float(msg.split("t = ")[1].split(" ")[0])
    assert 0.0 < t <= 0.3


def test_blow_up_is_reported_as_numerical_not_stiff():
    # y' = y^2, y(0) = 1 blows up at t = 1; the steps underflow only there
    with pytest.raises(NumericalError) as info:
        solve_rk45(lambda t, y: y * y, 0.0, 2.0, np.array([1.0 + 0j]))
    assert not isinstance(info.value, StiffnessError)
    msg = str(info.value)
    assert "blow-up" in msg and "h = " in msg and "max|y| = " in msg
    t = float(msg.split("t = ")[1].split(" ")[0])
    assert t == pytest.approx(1.0, abs=1e-6)
    assert float(msg.split("max|y| = ")[1].split(" ")[0]) > 1e6


def test_step_hook_halts():
    sol = solve_rk45(lambda t, y: y, 0.0, 5.0, np.array([1.0 + 0j]),
                     step_hook=lambda t, y: abs(y[0]) > 3.0)
    assert sol.halted
    assert sol.t_end < 5.0
    assert abs(sol.y_end[0]) > 3.0


def test_bad_configs():
    with pytest.raises(ConfigError):
        solve_rk45(lambda t, y: y, 1.0, 0.0, np.array([1.0 + 0j]))
    with pytest.raises(ConfigError):
        solve_rk45(lambda t, y: y, 0.0, 1.0, np.array([1.0 + 0j]), t_eval=[0.5, 0.2])
    with pytest.raises(ConfigError):
        solve_rk45(lambda t, y: y, 0.0, 1.0, np.array([1.0 + 0j]), t_eval=[0.5, 2.0])


def test_rejection_counter_moves_on_rough_problem():
    def f(t, y):  # vector-field switch forces rejections at the crossing
        return y if t < 2.0 else -80.0 * y

    sol = solve_rk45(f, 0.0, 3.0, np.array([1.0 + 0j]), rtol=1e-9, atol=1e-12)
    assert sol.stats.rejected > 0
