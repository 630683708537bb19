"""Normalized gradient flow toward constant volume coefficients."""

from math import comb

import numpy as np
import pytest

from confvol.errors import InvalidRange, KOutOfRange, NoConvergence, StepRejected
from confvol.flow import (
    TorusGrid, discretize, flow_step, make_state, run_flow)
from confvol.models import FlatTorus, RoundSphere, fourier_field


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
    # the x_1-only field takes the first-axis line transform
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
        got_lap, got_grad2 = disc._spectral(om.ravel())
        assert np.max(np.abs(got_lap - lap.ravel())) <= 1e-13 * np.max(np.abs(lap))
        assert np.max(np.abs(got_grad2 - grad2.ravel())) <= 1e-13 * np.max(grad2)


def test_torus_line_transform_is_bitwise_the_3d_transform(monkeypatch):
    # along CLI-start flows, fields constant off the x_1 axis differentiate
    # on the x_1 line only when every other axis has a power-of-two length;
    # (16, 12, 16) must keep the 3-D transform, which the line misses there
    calls = []
    line_spectral = TorusGrid._spectral

    def checked(disc, omega):
        lap, grad2 = line_spectral(disc, omega)
        axes = tuple(range(1, len(disc.shape) + 1))
        hat = np.fft.rfftn(omega.reshape(disc.shape))
        out = np.fft.irfftn(disc._mult * hat, s=disc.shape, axes=axes)
        assert lap.tobytes() == out[0].ravel().tobytes()
        assert grad2.tobytes() == np.sum(out[1:] ** 2, axis=0).ravel().tobytes()
        calls.append(disc._line_mult is not None)
        return lap, grad2

    monkeypatch.setattr(TorusGrid, "_spectral", checked)
    for periods, shape, max_steps in (
            ((1.0, 1.0, 1.0), (8, 8, 8), 10000),
            ((1.0, 1.0, 1.0), (12, 16, 16), 10000),
            ((1.0, 1.0, 1.0), (10, 16, 16), 10000),
            ((1.0, 1.0, 1.0, 1.0), (8, 8, 8, 8), 10000),
            ((1.0, 1.0, 1.0), (16, 16, 16), 150),
            ((2.0, 1.0, 1.5), (16, 16, 16), 150),
            ((1.0, 1.0, 1.0), (24, 8, 4), 150),
            ((1.0, 1.0, 1.0), (32, 32, 32), 20),
            ((1.0, 1.0, 1.0), (16, 12, 16), 50)):
        torus = FlatTorus(periods)
        omega0 = fourier_field(torus, (1,) + (0,) * (torus.n - 1),
                               amplitude=0.05)
        calls.clear()
        try:
            run_flow(torus, 1, omega0, max_steps=max_steps, shape=shape)
        except NoConvergence:
            assert max_steps < 10000
        assert len(calls) > min(max_steps, 100)
        assert set(calls) == {shape != (16, 12, 16)}


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
    with pytest.raises(KOutOfRange):
        disc.vk(np.zeros(16 ** 3), 2)
    with pytest.raises(InvalidRange):
        make_state(discretize(FlatTorus((1.0, 1.0))), np.zeros(16 * 16), 1)
    from confvol.models import HyperbolicSpace

    with pytest.raises(InvalidRange):
        discretize(HyperbolicSpace(3, 1.0))


def test_state_measure_bitwise_unchanged():
    # one density per state gives the volume, mean and variance that
    # per-quantity exponentials gave, bit for bit
    torus, sphere = FlatTorus((1.0, 2.0, 1.0)), RoundSphere(5, 1.0)
    for disc, k in ((discretize(torus, shape=(8, 6, 4)), 1),
                    (discretize(sphere), 1), (discretize(sphere), 2)):
        n = disc.base.n
        rng = np.random.default_rng(11)
        omega = 0.05 * disc.project(rng.standard_normal(len(disc.points)))
        state = make_state(disc, omega, k)
        om, vk = state.omega, state.vk
        if isinstance(disc.base, FlatTorus):
            w = np.exp(n * om)
            volume = disc.base_volume * float(np.mean(np.exp(n * om)))
        else:
            w = disc.w * np.exp(n * om)
            volume = float(np.sum(disc.w * np.exp(n * om)))
        mean = float(np.sum(vk * w) / np.sum(w))
        var = float(np.sum((vk - mean) ** 2 * w) / np.sum(w))
        assert (state.volume, state.mean_vk, state.variance) == (volume, mean, var)
