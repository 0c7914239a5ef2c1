"""The numpy trust-region-reflective port against scipy's own solver.

Both run the same algorithm with the same exact Jacobians; only the SVD's
last bits differ, so the two must end at the same point up to the stopping
tolerances.
"""

import numpy as np
import pytest

from bubbledyn import fit_combined, fit_supply_demand, fitting

from conftest import FIT_SD_GRID, annual
from test_combined import BOUNDED, make_food
from test_fitting import stiff_valley, stiff_valley_jacobian

optimize = pytest.importorskip("scipy.optimize")


def spied_problems(fit, *args, **kwargs):
    """(residuals, jacobian, start, bounds) of every solve ``fit`` runs."""
    problems = []
    solve = fitting.minimize

    def spy(residuals, start, bounds, jacobian):
        problems.append((residuals, jacobian, np.array(start), bounds))
        return solve(residuals, start, bounds, jacobian)

    mp = pytest.MonkeyPatch()
    mp.setattr(fitting, "minimize", spy)
    try:
        fit(*args, **kwargs)
    finally:
        mp.undo()
    assert all(callable(jac) for _, jac, _, _ in problems)
    return problems


def fit_sd_golden_problems():
    """(residuals, jacobian, start, bounds) of the fit-sd CLI golden from
    every point of the start grid the fit once ran; the golden's one solve
    starts at (0.9, 1.0, 0.3)."""
    price = annual([94.031, 94.971, 98.0, 96.51, 100.716, 97.161, 95.401, 97.12,
                    106.556, 101.633, 96.664, 96.584])
    consumption = annual([326.377, 324.745, 331.239, 333.735, 342.723, 348.755,
                          351.797, 355.225, 358.889, 367.304, 375.643, 379.733])
    surplus = annual([0.0, -6.5, 4.0, -9.0, 7.5, 2.0, -3.5, -11.0, 5.0, 8.5,
                      -2.0, 1.0])
    (fun, jac, x0, bounds), = spied_problems(fit_supply_demand, price,
                                             consumption, surplus)
    assert x0.tolist() == [0.9, 1.0, 0.3]
    return [(fun, jac, np.array(start), bounds) for start in FIT_SD_GRID]


def fit_combined_problems():
    """(residuals, jacobian, start, bounds) of the joint fit of the bounded
    generator, one per switch candidate: the true month and two wrong ones."""
    food, markets = make_food(88, BOUNDED)
    problems = spied_problems(fit_combined, food, markets,
                              switch_candidates=[36, 40, 45])
    assert len(problems) == 3
    return problems


def rosenbrock(v):
    return np.array([1 - v[0], 10 * (v[1] - v[0] ** 2)])


def rosenbrock_jacobian(v):
    return np.array([[-1.0, 0.0], [-20.0 * v[0], 10.0]])


def optimum_past_bound(v):
    # unconstrained optimum (0.5, -2); the box holds x >= 1, y >= -1
    return np.array([v[0] - 0.5, v[1] + 2.0, 0.1 * v[0] * v[1]])


def optimum_past_bound_jacobian(v):
    return np.array([[1.0, 0.0], [0.0, 1.0], [0.1 * v[1], 0.1 * v[0]]])


def edge(v):
    # finite only for x <= 1, short of the optimum x = 2
    return np.array([v[0] - 2.0, v[1]]) if v[0] <= 1.0 else np.array([np.nan] * 2)


def cases():
    # the golden fit's own start, (lambda, beta_d, beta_s) = (0.9, 1, 0.3)
    fun, jac, x0, bounds = fit_sd_golden_problems()[FIT_SD_GRID.index((0.9, 1.0, 0.3))]
    yield pytest.param(fun, jac, x0, bounds, id="fit-sd-golden")
    yield pytest.param(rosenbrock, rosenbrock_jacobian, np.array([-1.5, 2.0]),
                       [(-2.0, 0.5), (-1.0, 3.0)], id="rosenbrock-box")
    yield pytest.param(optimum_past_bound, optimum_past_bound_jacobian,
                       np.array([2.0, 1.0]), [(1.0, 3.0), (-1.0, 2.0)],
                       id="optimum-on-bound")
    yield pytest.param(stiff_valley, stiff_valley_jacobian, np.array([-1.5, 2.0]),
                       [(-5.0, 5.0), (-5.0, 25.0)], id="evaluation-cap")


def scipy_solve(fun, jac, x0, bounds):
    """scipy's own solve of a problem, given as :func:`fitting.minimize`
    takes it."""
    return optimize.least_squares(fun, x0, jac=jac, bounds=tuple(np.array(bounds).T),
                                  method="trf")


def assert_same_end(got, want):
    """A :class:`fitting.FitReport` ends where scipy's result does, up to
    the stopping tolerances."""
    assert got.converged == want.success and got.evaluations == want.nfev
    np.testing.assert_allclose(got.parameter_vector, want.x, rtol=1e-6, atol=0)
    assert got.objective_value == pytest.approx(want.fun @ want.fun, rel=1e-9, abs=0)


@pytest.mark.parametrize("fun, jac, x0, bounds", cases())
def test_port_matches_scipy(fun, jac, x0, bounds):
    assert_same_end(fitting.minimize(fun, x0, bounds, jac),
                    scipy_solve(fun, jac, x0, bounds))


def test_every_fit_sd_start_ends_at_scipy_objective():
    for fun, jac, x0, bounds in fit_sd_golden_problems():
        assert_same_end(fitting.minimize(fun, x0, bounds, jac),
                        scipy_solve(fun, jac, x0, bounds))


def retrace(monkeypatch, problems):
    """With scipy's SVD swapped in, the port retraces scipy's solve of each
    problem exactly: the same residual and Jacobian calls in the same order,
    the same bits at the end, where the port's last residual vector at the
    returned point is scipy's ``fun``.  After a stop on its cost or step
    tolerance scipy evaluates the Jacobian once more at the point it
    returns, which the port skips; that one call is the only difference
    allowed."""
    from scipy import linalg

    monkeypatch.setattr(np.linalg, "svd", lambda a, full_matrices: linalg.svd(
        a, full_matrices=full_matrices))
    for fun, jac, x0, bounds in problems:
        calls = {"scipy": [], "port": []}

        def logged(name, f):
            def call(v):
                out = f(v)
                calls[name].append((f, v.copy(), out))
                return out
            return call

        want = scipy_solve(logged("scipy", fun), logged("scipy", jac), x0, bounds)
        got = fitting.minimize(logged("port", fun), x0, bounds, logged("port", jac))
        assert got.converged == want.success and got.evaluations == want.nfev
        assert np.array_equal(got.parameter_vector, want.x)
        *_, f_end = [out for f, v, out in calls["port"]
                     if f is fun and np.array_equal(v, want.x)]
        assert np.array_equal(np.asarray(f_end, dtype=float), want.fun)
        assert got.objective_value == float(want.fun @ want.fun)
        if len(calls["scipy"]) == len(calls["port"]) + 1:
            f_last, v_last, _ = calls["scipy"].pop()
            assert f_last is jac and np.array_equal(v_last, want.x)
        assert len(calls["port"]) == len(calls["scipy"])
        for (f_port, v_port, _), (f_scipy, v_scipy, _) in zip(calls["port"],
                                                              calls["scipy"]):
            assert f_port is f_scipy and np.array_equal(v_port, v_scipy)


def test_same_steps_as_scipy_given_its_svd(monkeypatch):
    problems = [p.values for p in cases()] + fit_sd_golden_problems()
    problems.append((edge, lambda v: np.eye(2), np.array([0.0, 1.0]),
                     [(-5.0, 5.0)] * 2))
    retrace(monkeypatch, problems)


def test_exact_jacobian_steps_as_scipy_given_its_svd(monkeypatch):
    """The combined fit's own solves, one per switch candidate, retrace
    scipy's with its exact Jacobian as ``jac=callable``."""
    retrace(monkeypatch, fit_combined_problems())
