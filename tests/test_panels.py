"""Profile panels: derivative formulas, supports, plane waves, tensorization."""

import numpy as np
import pytest

from degenpde import panels
from degenpde.grid import XBox, make_grid


def _fd_check(prof, y, h=1e-6, tol=1e-4):
    """Central-difference cross-check of the stored derivative closures."""
    d1_fd = (prof(y + h) - prof(y - h)) / (2.0 * h)
    d2_fd = (prof(y + h) - 2.0 * prof(y) + prof(y - h)) / h ** 2
    assert np.abs(prof.d1(y) - d1_fd).max() < tol
    assert np.abs(prof.d2(y) - d2_fd).max() < tol * 100


def test_bump_profile_support_and_derivatives():
    prof = panels.bump_profile(0.5, 0.2)
    y = np.linspace(0.32, 0.68, 41)  # strictly inside the support
    _fd_check(prof, y)
    outside = np.array([0.0, 0.29, 0.71, 1.0])
    assert np.all(prof(outside) == 0.0)
    assert np.all(prof.d1(outside) == 0.0)
    assert np.all(prof.d2(outside) == 0.0)
    assert prof(np.array([0.5]))[0] == pytest.approx(np.exp(-1.0))


def test_quartic_profile_exact_derivatives():
    prof = panels.quartic_profile(0.4, 0.1)
    y = np.linspace(0.2, 0.6, 31)
    _fd_check(prof, y)
    # tails are negligible three widths out
    assert prof(np.array([0.8]))[0] < 1e-35


def test_edge_plateau_flat_at_origin():
    # the quartic centred on the edge is flat there to fourth order
    prof = panels.quartic_profile(0.0, 0.3)
    y0 = np.array([0.0])
    assert prof(y0)[0] == pytest.approx(1.0)
    assert prof.d1(y0)[0] == 0.0
    assert prof.d2(y0)[0] == 0.0
    # flat-to-fourth-order: value still ~1 at y = w/4
    assert prof(np.array([0.075]))[0] > 0.99
    _fd_check(prof, np.linspace(0.05, 0.9, 25))


def test_vertical_panel_counts_and_supports():
    Y = 2.0
    panel = panels.vertical_panel(Y, count=8, kind="mixed")
    assert len(panel) == 8
    far = np.linspace(0.55 * Y, Y, 50)  # beyond the (0, Y/2) design support
    for prof in panel:
        assert np.abs(prof(far)).max() < 1e-12
        assert np.abs(prof(np.linspace(0, 0.5 * Y, 200))).max() > 0.1


def test_vertical_panel_interior_avoids_edge():
    panel = panels.vertical_panel(1.0, count=6, kind="interior")
    near_zero = np.linspace(0.0, 0.02, 20)
    for prof in panel:
        assert np.all(prof(near_zero) == 0.0)  # compact support off the edge


def test_vertical_panel_randomized_reproducible():
    p1 = panels.vertical_panel(1.0, count=4, rng=np.random.default_rng(7))
    p2 = panels.vertical_panel(1.0, count=4, rng=np.random.default_rng(7))
    y = np.linspace(0, 1, 100)
    for a, b in zip(p1, p2):
        assert np.array_equal(a(y), b(y))


def test_plane_wave_eigenfunction():
    box = XBox(2.0 * np.pi, 16, 1)
    wave = panels.plane_wave(box, [3])
    assert wave.wavenumber[0] == pytest.approx(3.0)
    x = box.nodes()
    vals = wave(x)
    assert np.allclose(np.abs(vals), 1.0)
    # single Fourier coefficient: the FFT has one spike at k = 3
    vh = np.fft.fft(vals) / box.num_points
    k = np.fft.fftfreq(box.num_points, d=1.0 / box.num_points).astype(int)
    assert abs(vh[k == 3][0] - 1.0) < 1e-13
    assert np.abs(vh[k != 3]).max() < 1e-13


def test_plane_wave_multidimensional():
    box = XBox(1.0, 8, 2)
    wave = panels.plane_wave(box, [1, -2])
    assert np.allclose(wave.wavenumber, 2.0 * np.pi * np.array([1, -2]))
    X, Y = np.meshgrid(box.nodes(), box.nodes(), indexing="ij")
    vals = wave(X, Y)
    assert vals.shape == (8, 8)
    assert np.allclose(np.abs(vals), 1.0)


def test_tensor_values_shapes():
    prof = panels.bump_profile(0.4, 0.2)
    g0 = make_grid(32, 1.0, 2.0)
    v0 = panels.tensor_values(g0, None, prof)
    assert v0.shape == (32,) and v0.dtype == complex

    box = XBox(2.0 * np.pi, 8, 2)
    g2 = make_grid(16, 1.0, 2.0, box)
    wave = panels.plane_wave(box, [1, 0])
    v2 = panels.tensor_values(g2, wave, prof)
    assert v2.shape == (8, 8, 16)
    # separable: on the support of the profile every x-slice has modulus 1
    supp = prof(g2.y_nodes) > 1e-6
    ratio = np.abs(v2[..., supp]) / prof(g2.y_nodes)[supp]
    assert np.allclose(ratio, 1.0, atol=1e-12)
