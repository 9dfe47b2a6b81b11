"""The embedded Dormand-Prince 8(5,3) pair: accuracy, stats, determinism, failure
modes, dense output, agreement with scipy's DOP853, and a step carried from
one solve into the next (`h_next` as `first_step`).

Sample times do not shape the step sequence: states at them are interpolated.
The route that ends a solve on every sample time, one solve per sample
interval, stays as the oracle for the interpolated samples (bound 10 rtol,
relative to max(1, max|y|)).
"""

import dataclasses
import warnings

import numpy as np
import pytest

from labels import label
from cohspace.errors import ConfigError, NumericalError, StiffnessError
from cohspace.integrate import solve_rk45
from cohspace.kernels import spin_space
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


def test_stiffness_error(monkeypatch):
    # y' = -1e16 (y - cos t): required step underflows the 1e-14*span floor
    # well inside a small step budget
    from cohspace import integrate

    def f(t, y):
        return -1e16 * (y - np.cos(t))

    monkeypatch.setattr(integrate, "MAX_STEPS", 5000)
    with pytest.raises(StiffnessError):
        solve_rk45(f, 0.0, 1.0, np.array([2.0 + 0j]), rtol=1e-12, atol=1e-14)


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


def test_an_overflowed_first_rhs_is_reported_as_numerical():
    # |f / (atol + rtol |y|)| overflows: the initial-step probe has no step to try
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as info:
            solve_rk45(lambda t, y: 1e306j * y, 0.0, 1.0, np.array([1.0 + 0j]))
    msg = str(info.value)
    assert "overflowed at t0 = 0" in msg and "max|f| = 1.000e+306" in msg


def test_a_nan_first_rhs_is_reported_before_any_probe():
    # h0 = 0.01 d0 / nan would be nan, and the probe would call f at t = nan
    times = []

    def f(t, y):
        times.append(t)
        return np.full_like(y, np.nan)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as info:
            solve_rk45(f, 0.25, 1.0, np.array([1.0 + 0j]))
    assert times == [0.25]
    msg = str(info.value)
    assert "non-finite right-hand side at t0 = 0.25" in msg and "stage k1" in msg


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
    assert dataclasses.replace(sampled.stats, rhs_evals=bare.stats.rhs_evals) == bare.stats
    # the dense output's 3 extra stages run only on steps that cover a sample
    extra = sampled.stats.rhs_evals - bare.stats.rhs_evals
    assert 0 < extra <= 3 * bare.stats.steps and extra % 3 == 0
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
    z = label(np.array([0.8, 0.48 + 0.36j]) / np.linalg.norm([0.8, 0.48 + 0.36j]))
    chart, u = chart_for(sp, z)
    energy = MatrixExpectation(SpinRep(4).dgamma(1.1 * np.diag([0.5, -0.5]).astype(complex)))
    rhs = chart_rhs(chart, energy.on(chart), 1.0)
    yield rhs, u, np.linspace(0.0, 8.0, 17), 1e-9, 1e-12


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


@pytest.mark.parametrize("rtol, atol", [(0.0, 1e-12), (-1e-9, 1e-12), (float("nan"), 1e-12),
                                        (1e-9, -1e-12), (1e-9, float("nan"))])
def test_a_tolerance_out_of_range_is_a_config_error(rtol, atol):
    with pytest.raises(ConfigError, match="rtol > 0 and atol >= 0"):
        solve_rk45(lambda t, y: -y, 0.0, 1.0, np.array([1.0 + 0j]), rtol=rtol, atol=atol)


def test_zero_atol_is_a_pure_relative_tolerance():
    sol = solve_rk45(lambda t, y: 1j * y, 0.0, 3.0, np.array([1.0 + 0j]), rtol=1e-10, atol=0.0)
    assert abs(sol.y_end[0] - np.exp(3j)) < 1e-9


class Counted:
    """The RHS wrapped with a call counter."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, t, y):
        self.calls += 1
        return self.f(t, y)


@pytest.mark.parametrize("f, t1, y0, t_eval, hook", [
    (pendulum, 7.0, np.array([1.0 + 0j, 0.0j]), None, None),
    (pendulum, 7.0, np.array([1.0 + 0j, 0.0j]), np.linspace(0.0, 7.0, 301), None),
    (pendulum, 7.0, np.array([1.0 + 0j, 0.0j]), [0.0, 3.5, 7.0], lambda t, y: t > 4.0),
    (rough, 3.0, np.array([1.0 + 0j]), np.linspace(0.0, 3.0, 7), None),
], ids=["bare", "dense", "halted", "rejections"])
def test_rhs_evals_count_every_call_of_the_rhs(f, t1, y0, t_eval, hook):
    counted = Counted(f)
    sol = solve_rk45(counted, 0.0, t1, y0, t_eval=t_eval, step_hook=hook)
    assert sol.stats.rhs_evals == counted.calls
    # the initial probe, 11 stages per attempted step, the FSAL stage per
    # accepted one, and 3 dense stages per step that covers a sample
    dense = counted.calls - 2 - 11 * (sol.stats.steps + sol.stats.rejected) - sol.stats.steps
    assert dense % 3 == 0 and 0 <= dense <= 3 * sol.stats.steps


def test_an_empty_sample_grid_integrates_to_t1():
    y0 = np.array([1.0 + 0j, 0.0j])
    with pytest.raises(ConfigError):  # the grid is checked
        solve_rk45(pendulum, 1.0, 0.0, y0, t_eval=[])
    for t_eval, hook in (([], None), ([], lambda t, y: False), (None, None)):
        sol = solve_rk45(pendulum, 0.0, 7.0, y0, t_eval=t_eval, step_hook=hook)
        assert sol.t_end == 7.0 and sol.stats.steps > 0
        assert sol.times.shape == (0,) and sol.states.shape == (0, 2)


# ------------------------------------------------- scipy's DOP853 as oracle


def test_tableau_literals_equal_scipys_dop853_coefficients_bit_for_bit():
    from scipy.integrate._ivp import dop853_coefficients as ref

    from cohspace import integrate

    a = np.zeros((16, 16))
    for i, row in enumerate(integrate._A):
        assert len(row) == i
        a[i, :i] = row
    assert a.tobytes() == ref.A.tobytes()
    assert np.array(integrate._C).tobytes() == ref.C.tobytes()
    assert integrate._B.tobytes() == ref.B.tobytes()
    # scipy pads both estimators with a weight 0 for the FSAL stage
    assert integrate._E5.tobytes() == ref.E5[:12].tobytes() and ref.E5[12] == 0.0
    assert integrate._E3.tobytes() == ref.E3[:12].tobytes() and ref.E3[12] == 0.0
    assert integrate._D.tobytes() == ref.D.tobytes()


def _spin40_chart_flow():
    # the benchmark's tdvp-spin40 flow: spin 40 under 1.1 n.J, n near (0.3, 0.5, 0.8)
    axis = np.array([0.3, 0.5, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8])
    a = 1.1 * (axis[0] * np.array([[0, 1], [1, 0]]) + axis[1] * np.array([[0, -1j], [1j, 0]])
               + axis[2] * np.diag([1, -1])).astype(complex) / 2
    z = label(np.array([0.8, 0.48 + 0.36j]) / np.linalg.norm([0.8, 0.48 + 0.36j]))
    chart, u = chart_for(spin_space(40), z)  # |w| stays below 1 on [0, 7.5]: no chart switch
    energy = MatrixExpectation(SpinRep(40).dgamma(a))
    return chart_rhs(chart, energy.on(chart), 1.0), u


@pytest.mark.parametrize("case", ["pendulum", "tdvp-spin40"])
def test_samples_and_end_state_agree_with_scipys_dop853(case):
    from scipy.integrate import solve_ivp

    if case == "pendulum":
        f, y0, t1 = pendulum, np.array([1.0 + 0j, 0.0j]), 7.0
    else:
        (f, y0), t1 = _spin40_chart_flow(), 7.5
    rtol, atol = 1e-13, 1e-15
    times = np.linspace(0.0, t1, 751)
    ref = solve_ivp(f, (0.0, t1), y0, method="DOP853", rtol=rtol, atol=atol, t_eval=times)
    assert ref.success
    sol = solve_rk45(f, 0.0, t1, y0, rtol=rtol, atol=atol, t_eval=times)
    # two DOP853 runs with different step controllers, each within a few rtol
    # of the flow (1.6 rtol and 1.1 rtol observed)
    assert rel_dev(sol.states, ref.y.T) <= 100 * rtol
    assert rel_dev(sol.y_end, ref.y[:, -1]) <= 100 * rtol


# ------------------------------------------- carrying the step across solves


@pytest.mark.parametrize("f, t1, y0", [
    (pendulum, 7.0, np.array([1.0 + 0j, 0.0j])),
    (rough, 3.0, np.array([1.0 + 0j])),
])
def test_a_first_step_replaces_the_initial_probe(f, t1, y0):
    counted = Counted(f)
    sol = solve_rk45(counted, 0.0, t1, y0, first_step=0.05)
    # f at t0, then 11 stages per attempted step and the FSAL stage per accepted one
    assert sol.stats.rhs_evals == counted.calls
    assert counted.calls == 1 + 11 * (sol.stats.steps + sol.stats.rejected) + sol.stats.steps


@pytest.mark.parametrize("first_step", [0.0, -0.1, float("nan"), float("inf")])
def test_a_first_step_out_of_range_is_a_config_error(first_step):
    with pytest.raises(ConfigError, match="first_step"):
        solve_rk45(pendulum, 0.0, 1.0, np.array([1.0 + 0j, 0.0j]), first_step=first_step)


def test_an_oversized_first_step_is_clipped_then_rejected_down():
    from cohspace.integrate import _C

    y0, rtol = np.array([1.0 + 0j, 0.0j]), 1e-9
    times = []
    sol = solve_rk45(lambda t, y: times.append(t) or pendulum(t, y), 0.0, 2.0, y0, rtol=rtol,
                     first_step=20.0)
    assert times[1] == _C[1] * 2.0   # the first attempt spans [0, 2]
    assert sol.stats.rejected > 0
    assert sol.stats.h_max < 2.0
    ref = solve_rk45(pendulum, 0.0, 2.0, y0, rtol=rtol)
    assert sol.t_end == ref.t_end == 2.0
    assert rel_dev(sol.y_end, ref.y_end) <= 100 * rtol


def test_h_next_after_a_clipped_last_step_is_the_proposal_before_the_clip():
    # the solve over [0, 5] follows the solve over [0, 9] step for step up to
    # its last step, which it clips; the longer solve takes that step whole
    y0 = np.array([1.0 + 0j, 0.0j])

    def stepped(t1):
        ends = [0.0]
        sol = solve_rk45(pendulum, 0.0, t1, y0, first_step=0.01,
                         step_hook=lambda t, y: ends.append(t) or False)
        return sol, ends

    short, short_ends = stepped(5.0)
    long, long_ends = stepped(9.0)
    assert long.stats.rejected == 0
    k = len(short_ends) - 2                      # the short solve's last step starts here
    assert long_ends[:k + 1] == short_ends[:k + 1]
    proposal = long_ends[k + 1] - long_ends[k]
    assert long_ends[k + 1] > 5.0 and short_ends[-1] == 5.0
    assert short.h_next == pytest.approx(proposal, rel=1e-12)
    assert short.h_next > 5.0 - short_ends[k]    # the clip shortened the last step


def test_h_next_after_a_halt_is_the_step_just_accepted():
    ends = [0.0]
    sol = solve_rk45(pendulum, 0.0, 7.0, np.array([1.0 + 0j, 0.0j]),
                     step_hook=lambda t, y: ends.append(t) or t > 3.0)
    assert sol.halted
    assert sol.h_next == pytest.approx(ends[-1] - ends[-2], rel=1e-12)


def test_a_carried_step_continues_the_step_sequence():
    y0 = np.array([1.0 + 0j, 0.0j])
    whole = solve_rk45(pendulum, 0.0, 2.0, y0)
    first = solve_rk45(pendulum, 0.0, 1.0, y0)
    second = solve_rk45(pendulum, 1.0, 2.0, first.y_end, first_step=first.h_next)
    assert first.stats.steps + second.stats.steps <= whole.stats.steps + 2
    restarted = solve_rk45(pendulum, 1.0, 2.0, first.y_end)
    assert second.stats.steps < restarted.stats.steps


def test_h_min_and_h_max_bound_the_accepted_steps():
    from cohspace.integrate import total_stats

    y0 = np.array([1.0 + 0j, 0.0j])
    ends = [0.0]
    sol = solve_rk45(rough, 0.0, 3.0, np.array([1.0 + 0j]),
                     step_hook=lambda t, y: ends.append(t) or False)
    sizes = np.diff(ends)
    assert sol.stats.h_min == pytest.approx(sizes.min(), rel=1e-9)
    assert sol.stats.h_max == pytest.approx(sizes.max(), rel=1e-9)
    assert sol.stats.h_min <= 3.0 / sol.stats.steps <= sol.stats.h_max
    # consecutive solves: counts summed, the range of steps combined
    first = solve_rk45(pendulum, 0.0, 1.0, y0)
    second = solve_rk45(pendulum, 1.0, 7.0, first.y_end, first_step=first.h_next)
    both = total_stats([first.stats, second.stats])
    assert both.steps == first.stats.steps + second.stats.steps
    assert both.rhs_evals == first.stats.rhs_evals + second.stats.rhs_evals
    assert both.h_min == min(first.stats.h_min, second.stats.h_min)
    assert both.h_max == max(first.stats.h_max, second.stats.h_max)
    assert both.h_min <= (second.t_end - 0.0) / both.steps <= both.h_max
