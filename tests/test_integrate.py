"""The embedded RK5(4): accuracy, stats, determinism, failure modes, dense output.

Sample times do not shape the step sequence: states at them are interpolated.
The route that ends a solve on every sample time, one solve per sample
interval, stays as the oracle for the interpolated samples (bound 10 rtol,
relative to max(1, max|y|)).
"""

import numpy as np
import pytest

from cohspace.errors import ConfigError, NumericalError, StiffnessError
from cohspace.integrate import solve_rk45
from cohspace.kernels import Point, spin_space
from cohspace.reps import SpinRep
from cohspace.tdvp import MatrixExpectation, chart_for, chart_rhs


def pendulum(t, y):
    return np.array([y[1], -np.sin(y[0].real) + 0j])


def rough(t, y):  # vector-field switch forces rejections at the crossing
    return y if t < 2.0 else -80.0 * y


def step_hitting(f, times, y0, rtol, atol):
    """Oracle: one solve per sample interval, each ending on its sample."""
    states = [np.asarray(y0, dtype=complex)]
    for a, b in zip(times[:-1], times[1:]):
        states.append(solve_rk45(f, a, b, states[-1], rtol=rtol, atol=atol).y_end)
    return np.array(states)


def rel_dev(got, ref):
    return np.abs(got - ref).max() / max(1.0, np.abs(ref).max())


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
    times = np.linspace(0.0, 2.0, 21)
    rtol, atol = 1e-10, 1e-13
    def f(t, y):
        return a @ y

    sol = solve_rk45(f, 0.0, 2.0, y0, rtol=rtol, atol=atol, t_eval=times)
    ref = np.array([scipy.linalg.expm(t * a) @ y0 for t in times])
    np.testing.assert_allclose(sol.states, ref, rtol=1e-8, atol=1e-10)
    assert rel_dev(sol.states, step_hitting(f, times, y0, rtol, atol)) <= 10 * rtol


def test_eval_times_hit_exactly_and_include_t0():
    ts = [0.0, 0.1, 0.25, 0.9, 1.0]
    sol = solve_rk45(lambda t, y: -y, 0.0, 1.0, np.array([1.0 + 0j]), t_eval=ts)
    assert sol.times.tolist() == ts


def test_byte_determinism():
    runs = []
    for _ in range(2):
        sol = solve_rk45(pendulum, 0.0, 7.0, np.array([1.0 + 0j, 0.0j]),
                         t_eval=np.linspace(0, 7, 15))
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
    sol = solve_rk45(rough, 0.0, 3.0, np.array([1.0 + 0j]), rtol=1e-9, atol=1e-12)
    assert sol.stats.rejected > 0


@pytest.mark.parametrize("f, t1, y0", [
    (pendulum, 7.0, np.array([1.0 + 0j, 0.0j])),
    (rough, 3.0, np.array([1.0 + 0j])),
])
def test_samples_do_not_change_the_run(f, t1, y0):
    bare = solve_rk45(f, 0.0, t1, y0)
    sampled = solve_rk45(f, 0.0, t1, y0, t_eval=np.linspace(0.0, t1, 301))
    assert sampled.stats == bare.stats
    assert sampled.t_end == bare.t_end
    assert sampled.y_end.tobytes() == bare.y_end.tobytes()
    assert len(sampled.times) == 301 and len(bare.times) == 0


def _linear_cases():
    # criterion 4: the Klauder oscillator and the spin rotation label flows
    g = np.diag([0.0, 1.3]).astype(complex)
    axis = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    a = 1.1 * (axis[0] * np.array([[0, 1], [1, 0]]) + axis[1] * np.array([[0, -1j], [1j, 0]])
               + axis[2] * np.diag([1, -1])).astype(complex) / 2
    yield (lambda t, y: g @ y / 1j, np.array([0.2 + 0.1j, 1.1 - 0.4j]),
           np.linspace(0.0, 10.0 / 1.3, 33), 1e-9, 1e-12)
    yield (lambda t, y: a @ y / 1j, np.array([0.8, 0.6j]),
           np.linspace(0.0, 10.0 / 1.1, 33), 1e-9, 1e-12)
    # criterion 5: the variational chart flow of spin 4 under 1.1 J_z
    sp = spin_space(4)
    z = Point(np.array([0.8, 0.48 + 0.36j]) / np.linalg.norm([0.8, 0.48 + 0.36j]))
    chart = chart_for(sp, z)
    energy = MatrixExpectation(SpinRep(4).dgamma(1.1 * np.diag([0.5, -0.5]).astype(complex)))
    rhs = chart_rhs(chart, energy.on(chart), 1.0)
    yield rhs, chart.coords(z), np.linspace(0.0, 8.0, 17), 1e-9, 1e-12


def test_dense_samples_match_step_hitting_oracle():
    for f, y0, times, rtol, atol in _linear_cases():
        dense = solve_rk45(f, times[0], times[-1], y0, rtol=rtol, atol=atol, t_eval=times)
        assert dense.times.tolist() == times.tolist()
        assert rel_dev(dense.states, step_hitting(f, times, y0, rtol, atol)) <= 10 * rtol


def test_sample_on_a_step_end_returns_that_steps_state():
    ends = []

    def record(t, y):
        ends.append((t, y.copy()))
        return False

    y0 = np.array([1.0 + 0j, 0.0j])
    solve_rk45(pendulum, 0.0, 7.0, y0, step_hook=record)
    t_mid, y_mid = ends[len(ends) // 2]
    sol = solve_rk45(pendulum, 0.0, 7.0, y0, t_eval=[0.5 * t_mid, t_mid, 7.0])
    assert sol.times[1] == t_mid
    assert sol.states[1].tobytes() == y_mid.tobytes()
    assert sol.states[2].tobytes() == ends[-1][1].tobytes()
