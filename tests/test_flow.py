"""Normalized gradient flow toward constant volume coefficients."""

from math import comb

import numpy as np
import pytest

from confvol import flow
from confvol.cli import cli_dispatch
from confvol.errors import NoConvergence, StepRejected
from confvol.flow import (
    TorusGrid, discretize, flow_step, make_state, run_flow)
from confvol.models import FlatTorus, RoundSphere, fourier_field
from confvol.spectral import sphere_basis
from conftest import raises_exit


def test_torus_flow_converges():
    torus = FlatTorus((1.0, 1.0, 1.0))
    omega0 = fourier_field(torus, (1, 0, 0), amplitude=0.05)
    report = run_flow(torus, 1, omega0, tol=1e-6, max_steps=10000)
    assert report.converged
    assert report.final.sup_deviation < 1e-6
    assert report.volume_drift < 1e-10
    # the flat metric is the constant-v_1 critical point: v_1 -> 0
    assert abs(report.final_constant) < 1e-5
    # variance decreases monotonically on accepted steps
    assert np.all(np.diff(report.variance_history) <= 1e-14)


def test_torus_spectral_matches_full_fft():
    # Laplacian and |grad|^2 on the half spectrum against the real parts of
    # full-spectrum inverse transforms, on rough fields with Nyquist content;
    # the x_1-only field is carried on its line and takes the line transform
    def rough(shape):
        return np.random.default_rng(3).standard_normal(shape)

    x1_only = np.broadcast_to(rough((16, 1, 1)), (16, 8, 4))
    for periods, om in (((1.0, 2.0, 0.5), rough((8, 7, 6))),
                        ((1.5, 1.0), rough((6, 6))),
                        ((1.0, 2.0, 0.5), x1_only)):
        shape = om.shape
        disc = discretize(FlatTorus(periods), shape=shape)
        hat = np.fft.fftn(om)
        ks = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(N, d=p / N)
                           for N, p in zip(shape, periods)], indexing="ij")
        lap = np.real(np.fft.ifftn(-sum(k ** 2 for k in ks) * hat))
        grad2 = sum(np.real(np.fft.ifftn(1j * k * hat)) ** 2 for k in ks)
        line, w = disc.on_line(om.ravel())
        got_lap, got_grad2 = (np.repeat(x, line.copies)
                              for x in line._spectral(w))
        assert np.max(np.abs(got_lap - lap.ravel())) <= 1e-13 * np.max(np.abs(lap))
        assert np.max(np.abs(got_grad2 - grad2.ravel())) <= 1e-13 * np.max(grad2)


# grids of the line-against-grid test: (periods, shape, max_steps); the
# 16^3 and larger flows stop early, (16, 12, 16) keeps the n-D path
LINE_GRIDS = (
    ((1.0, 1.0, 1.0), (8, 8, 8), 10000),
    ((1.0, 1.0, 1.0), (12, 16, 16), 10000),
    ((1.0, 1.0, 1.0), (10, 16, 16), 10000),
    ((1.0, 1.0, 1.0, 1.0), (8, 8, 8, 8), 10000),
    ((1.0, 1.0, 1.0), (16, 16, 16), 150),
    ((2.0, 1.0, 1.5), (16, 16, 16), 150),
    ((1.0, 1.0, 1.0), (24, 8, 4), 150),
    ((1.0, 1.0, 1.0), (32, 32, 32), 20),
    ((1.0, 1.0, 1.0), (16, 12, 16), 50),
)


def _recorded_flow(monkeypatch, torus, shape, max_steps):
    """run_flow's report and (volume, mean_vk, variance) of every state."""
    measures = []

    def recorded(*args):
        state = real_state(*args)
        measures.append((state.volume, state.mean_vk, state.variance))
        return state

    real_state = flow._state
    omega0 = fourier_field(torus, (1,) + (0,) * (torus.n - 1), amplitude=0.05)
    with monkeypatch.context() as patch:
        patch.setattr(flow, "_state", recorded)
        try:
            report = run_flow(torus, 1, omega0, max_steps=max_steps, shape=shape)
        except NoConvergence as exc:
            assert max_steps < 10000
            report = exc.report
    return report, measures


def test_torus_line_state_is_bitwise_the_grid_flow(monkeypatch):
    # a CLI start on the mode (1, 0, ..., 0) is carried on its x_1 line when
    # x_2..x_n have power-of-two lengths; every count, variance, volume and
    # final field must be the full grid's flow's, bit for bit
    for periods, shape, max_steps in LINE_GRIDS:
        torus = FlatTorus(periods)
        line, line_measures = _recorded_flow(monkeypatch, torus, shape,
                                             max_steps)
        with monkeypatch.context() as patch:
            patch.setattr(TorusGrid, "on_line", lambda disc, omega: (disc, omega))
            grid, grid_measures = _recorded_flow(monkeypatch, torus, shape,
                                                 max_steps)
        copies = int(np.prod(shape[1:]))
        on_line = shape != (16, 12, 16)
        assert len(line.final.omega) == (shape[0] if on_line else copies * shape[0])
        assert len(grid.final.omega) == copies * shape[0]
        assert (line.steps, line.accepted, line.rejected) == \
            (grid.steps, grid.accepted, grid.rejected), shape
        assert line.steps >= min(max_steps, 100)
        assert line.variance_history.tobytes() == grid.variance_history.tobytes()
        assert line_measures == grid_measures
        for field in ("omega", "vk"):
            got = getattr(line.final, field)
            if on_line:
                got = np.repeat(got, copies)
            assert got.tobytes() == getattr(grid.final, field).tobytes()
        assert (line.final_constant, line.volume_drift) == \
            (grid.final_constant, grid.volume_drift)


def test_cli_torus_start_takes_the_line_state(capsys, monkeypatch):
    # the CLI's Fourier start is carried on the x_1 line on power-of-two
    # grids only; a (1, 1, 0) start or a 12-point axis keeps the full grid
    lengths = []
    real_make_state = flow.make_state

    def spied(*args):
        state = real_make_state(*args)
        lengths.append(len(state.omega))
        return state

    monkeypatch.setattr(flow, "make_state", spied)
    for periods, grid, length in (("1,1,1", 8, 8), ("1,1,1", 16, 16),
                                  ("1,1,1,1", 8, 8), ("1,1,1", 12, 12 ** 3)):
        lengths.clear()
        code = cli_dispatch(["flow", "--model", "torus", "--periods", periods,
                             "--grid", str(grid), "--max-steps", "2"])
        capsys.readouterr()
        assert code == 2 and lengths == [length], (periods, grid)
    torus = FlatTorus((1.0, 1.0, 1.0))
    for shape, mode, length in (((16, 12, 16), (1, 0, 0), 16 * 12 * 16),
                                ((16, 16, 16), (1, 1, 0), 16 ** 3)):
        state = make_state(discretize(torus, shape=shape),
                           fourier_field(torus, mode, amplitude=0.05), 1)
        assert len(state.omega) == length, (shape, mode)


def test_zero_start_is_stationary():
    torus = FlatTorus((1.0, 1.0, 1.0))
    report = run_flow(torus, 1, np.zeros(8 ** 3), tol=1e-8, shape=(8, 8, 8))
    assert report.accepted == 0
    assert report.final.sup_deviation < 1e-12


def test_sphere_zonal_flow():
    sphere = RoundSphere(3, 1.0)
    disc = discretize(sphere, nodes=48, degree=16)
    # zonal degree-2 perturbation
    omega0 = 0.05 * disc.synth[:, 2]
    report = run_flow(sphere, 1, omega0, tol=1e-6, max_steps=10000)
    assert report.converged
    # constant target: v_1 of a unit 3-sphere is a binom(n,1) = 1.5
    assert report.final_constant == pytest.approx(1.5, abs=1e-4)


def test_sphere_flow_k2():
    sphere = RoundSphere(5, 1.0)
    disc = discretize(sphere, nodes=32, degree=8)
    omega0 = 0.02 * disc.synth[:, 2]
    report = run_flow(sphere, 2, omega0, tol=1e-5, max_steps=4000,
                      nodes=32, degree=8)
    assert report.converged
    # v_2 = a^2 binom(5, 2) = 2.5 at a = 1/2
    assert report.final_constant == pytest.approx(2.5, abs=1e-3)


def test_sphere_flow_beyond_half_dimension():
    # for 2k > n the flow still moves omega by -(v_k - mean): v_k -> a^k C(n, k)
    for n in (4, 5):
        sphere = RoundSphere(n, 1.0)
        disc = discretize(sphere, nodes=32, degree=8)
        report = run_flow(sphere, 3, 0.02 * disc.synth[:, 2], tol=1e-6,
                          max_steps=4000, nodes=32, degree=8)
        assert report.final_constant == pytest.approx(comb(n, 3) / 8.0, abs=1e-5)


def test_volume_renormalized_each_step():
    torus = FlatTorus((1.0, 1.0, 1.0))
    disc = discretize(torus, shape=(8, 8, 8))
    omega0 = fourier_field(torus, (1, 1, 0), amplitude=0.1)
    state = make_state(disc, omega0, 1)
    assert state.volume == pytest.approx(disc.base_volume, rel=1e-13)
    nxt = flow_step(state, dt=1e-3)
    assert nxt.volume == pytest.approx(disc.base_volume, rel=1e-13)
    assert nxt.variance <= state.variance


def test_oversized_step_rejected():
    torus = FlatTorus((1.0, 1.0, 1.0))
    disc = discretize(torus, shape=(8, 8, 8))
    state = make_state(disc, fourier_field(torus, (1, 0, 0), amplitude=0.1), 1)
    with pytest.raises(StepRejected):
        flow_step(state, dt=1.0)
    # at amplitude 50 the trial overflows: its NaN variance must be rejected,
    # not pass the growth test, and numpy must stay quiet
    state = make_state(disc, fourier_field(torus, (1, 0, 0), amplitude=50.0), 1)
    with pytest.raises(StepRejected, match="nan"):
        flow_step(state, dt=1e-3)
    # on the sphere at k = 2 an overflowing trial metric is refused by the
    # chart front end; the step rejects it too
    sphere = RoundSphere(5, 1.0)
    member = sphere_basis(sphere, lmax=2).members[sphere.n + 1]
    state = make_state(discretize(sphere), lambda x: 50.0 * member(x), 2)
    with pytest.raises(StepRejected, match="metric overflows"):
        flow_step(state, dt=1e-3)


def test_no_convergence_carries_report():
    torus = FlatTorus((1.0, 1.0, 1.0))
    omega0 = fourier_field(torus, (1, 0, 0), amplitude=0.05)
    with pytest.raises(NoConvergence) as exc:
        run_flow(torus, 1, omega0, tol=1e-6, max_steps=3)
    assert exc.value.report is not None
    assert exc.value.report.steps == 3


def test_discretization_keywords_reach_the_grid():
    # a keyword the kind's grid does not take is an error, never ignored
    with pytest.raises(TypeError):
        discretize(FlatTorus((1.0, 1.0, 1.0)), nodes=32)
    with pytest.raises(TypeError):
        run_flow(RoundSphere(3, 1.0), 1, lambda x: 0.0, shape=(8,))
    assert discretize(RoundSphere(3, 1.0), nodes=32).t.shape == (32,)


def test_guards():
    torus = FlatTorus((1.0, 1.0, 1.0))
    disc = discretize(torus)
    with raises_exit(1, "spectrally for k = 1 only"):
        disc.vk(np.zeros(16 ** 3), 2)
    with raises_exit(1, "F_1 is conformally invariant in dimension 2"):
        make_state(discretize(FlatTorus((1.0, 1.0))), np.zeros(16 * 16), 1)
    from confvol.models import HyperbolicSpace

    with raises_exit(1, "no flow discretization for HyperbolicSpace"):
        discretize(HyperbolicSpace(3, 1.0))


def test_state_measure_bitwise_unchanged():
    # one density per state gives the volume, mean and variance that
    # per-quantity exponentials gave, bit for bit
    # on the grid; a field constant off the x_1 axis is carried on its line,
    # whose sums must still be the grid's
    torus, sphere = FlatTorus((1.0, 2.0, 1.0)), RoundSphere(5, 1.0)
    x1_only = np.repeat(np.random.default_rng(5).standard_normal(8), 32)
    for disc, k, omega in ((discretize(torus, shape=(8, 6, 4)), 1, None),
                           (discretize(torus, shape=(8, 8, 4)), 1, x1_only),
                           (discretize(sphere), 1, None),
                           (discretize(sphere), 2, None)):
        n = disc.base.n
        rng = np.random.default_rng(11)
        if omega is None:
            omega = disc.project(rng.standard_normal(len(disc.points)))
        state = make_state(disc, 0.05 * omega, k)
        assert len(state.omega) == (8 if omega is x1_only else len(omega))
        om, vk = (np.repeat(x, len(omega) // len(state.omega))
                  for x in (state.omega, state.vk))
        if isinstance(disc.base, FlatTorus):
            w = np.exp(n * om)
            volume = disc.base_volume * float(np.mean(np.exp(n * om)))
        else:
            w = disc.w * np.exp(n * om)
            volume = float(np.sum(disc.w * np.exp(n * om)))
        mean = float(np.sum(vk * w) / np.sum(w))
        var = float(np.sum((vk - mean) ** 2 * w) / np.sum(w))
        assert (state.volume, state.mean_vk, state.variance) == (volume, mean, var)
