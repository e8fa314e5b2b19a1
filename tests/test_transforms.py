"""Isometry properties and the power-map similarity of the transform module."""

import numpy as np
import pytest

from degenpde import panels
from degenpde.grid import Field, XBox, lp_norm, make_grid, partition_weights
from degenpde.harness import decay_order, refinement_study
from degenpde.params import beta_map, invert_beta
from degenpde.transforms import (apply_phase, apply_power, apply_shear,
                                 power_image_grid, similarity_check_power)


def _bump_field(grid):
    prof = panels.bump_profile(0.4, 0.2)
    return Field(prof(grid.y_nodes).astype(complex), grid)


def test_power_image_grid_nodes_and_grading():
    g = make_grid(64, 1.0, 2.0)
    gi = power_image_grid(g, 0.5)
    assert np.allclose(gi.y_nodes, g.y_nodes ** 1.5, rtol=1e-14)
    assert gi.grading_exponent == pytest.approx(3.0)
    # the image's weights are the partition weights of the mapped nodes,
    # telescoping to their span
    assert np.array_equal(gi.y_weights, partition_weights(gi.y_nodes))
    assert gi.y_weights.sum() == pytest.approx(
        gi.y_nodes[-1] - gi.y_nodes[0], rel=1e-14)
    with pytest.raises(ValueError):
        power_image_grid(g, -1.0)


def test_apply_power_is_weighted_isometry():
    g = make_grid(256, 1.0, 2.0)
    p, m = 2.7, 0.4
    u = _bump_field(g)
    for beta in (0.5, -0.4, 1.3):
        m_t = beta_map(invert_beta(beta), 0.0, 0.0, 0.0, m)[3]
        img = apply_power(u, beta, p)
        n0 = lp_norm(u.values, p, m, g)
        n1 = lp_norm(img.values, p, m_t, img.grid)
        assert abs(n1 - n0) / n0 < 1e-3
        # values are a pure relabel times |beta+1|^(1/p)
        assert np.allclose(img.values,
                           abs(beta + 1.0) ** (1.0 / p) * u.values)


def test_apply_power_round_trip_is_identity():
    g = make_grid(128, 1.0, 2.0)
    u = _bump_field(g)
    beta = 0.7
    img = apply_power(u, beta, 2.0)
    back = apply_power(img, beta, 2.0, target_grid=g, inverse=True)
    assert np.allclose(back.values, u.values, atol=1e-14)
    assert np.allclose(back.grid.y_nodes, g.y_nodes)


def test_apply_power_rejects_mismatched_grids():
    g = make_grid(64, 1.0, 2.0)
    other = make_grid(64, 1.0, 1.0)
    u = _bump_field(g)
    with pytest.raises(ValueError, match="matched power pair"):
        apply_power(u, 0.5, 2.0, target_grid=other)
    with pytest.raises(ValueError, match="beta > -1"):
        apply_power(u, -1.2, 2.0)


def test_apply_phase_exact_modulus_and_inverse():
    g = make_grid(128, 1.0, 2.0)
    u = _bump_field(g)
    img = apply_phase(u, 0.7, 1.5)
    assert np.allclose(np.abs(img.values), np.abs(u.values), atol=1e-15)
    back = apply_phase(img, 0.7, 1.5, inverse=True)
    assert np.allclose(back.values, u.values, atol=1e-15)


def test_apply_shear_norm_preserving_and_invertible():
    box = XBox(2.0 * np.pi, 32, 1)
    g = make_grid(96, 1.0, 2.0, box)
    wave = panels.plane_wave(box, [3])
    prof = panels.bump_profile(0.4, 0.2)
    u = Field(panels.tensor_values(g, wave, prof), g)
    img = apply_shear(u, [0.6])
    n0 = lp_norm(u.values, 2.0, 0.4, g)
    n1 = lp_norm(img.values, 2.0, 0.4, g)
    assert abs(n1 - n0) / n0 < 1e-12
    back = apply_shear(img, [-0.6])        # the shear by -e undoes e
    assert np.abs(back.values - u.values).max() < 1e-12


def test_apply_shear_exact_on_plane_waves():
    # u = e^(i xi x) v(y) shears to e^(i xi (x - e y)) v(y) exactly
    box = XBox(2.0 * np.pi, 32, 1)
    g = make_grid(64, 1.0, 2.0, box)
    wave = panels.plane_wave(box, [2])
    prof = panels.quartic_profile(0.4, 0.08)
    u = Field(panels.tensor_values(g, wave, prof), g)
    e = 0.35
    img = apply_shear(u, [e])
    xi = wave.wavenumber[0]
    expect = (np.exp(1j * xi * (box.nodes()[:, None] - e * g.y_nodes[None, :]))
              * prof(g.y_nodes)[None, :])
    assert np.abs(img.values - expect).max() < 1e-12


def test_shear_direction_cancels_oblique_drift():
    # with u(x,y) = v(x - e y, y) and e = b/c the drift b Dx + c Dy acting on
    # u carries no x-derivative of v; the opposite orientation doubles it
    from degenpde.grid import diff1_matrix

    b, c = 0.5, 1.0

    def mismatch(J, e):
        box = XBox(2.0 * np.pi, 32, 1)
        g = make_grid(J, 1.0, 2.0, box)
        wave = panels.plane_wave(box, [2])
        prof = panels.bump_profile(0.4, 0.15)
        v = Field(panels.tensor_values(g, wave, prof), g)
        u = apply_shear(v, [e])
        k = box.wavenumbers()
        ux = np.fft.ifft(1j * k[:, None] * np.fft.fft(u.values, axis=0),
                         axis=0)
        uy = u.values @ diff1_matrix(g.y_nodes).T
        drift = b * ux + c * uy
        vy = v.values @ diff1_matrix(g.y_nodes).T
        expect = apply_shear(Field(c * vy, g), [e]).values
        sl = slice(J // 8, 7 * J // 8)  # interior: FD stencil O(h^2) there
        return (np.abs(drift[:, sl] - expect[:, sl]).max()
                / np.abs(drift[:, sl]).max())

    right_coarse = mismatch(128, b / c)
    right_fine = mismatch(256, b / c)
    assert right_fine < right_coarse / 2.5  # FD truncation only: converges
    assert right_fine < 2e-2
    assert mismatch(128, -b / c) > 0.1     # wrong sign leaves b-transport


def test_apply_shear_requires_box_and_matching_dim():
    g = make_grid(32, 1.0, 2.0)
    u = _bump_field(g)
    with pytest.raises(ValueError, match="x-box"):
        apply_shear(u, [0.5])
    box = XBox(1.0, 8, 2)
    g2 = make_grid(16, 1.0, 2.0, box)
    vals = np.zeros((8, 8, 16), dtype=complex)
    with pytest.raises(ValueError, match="shift length"):
        apply_shear(Field(vals, g2), [0.5])


def test_similarity_check_power_converges():
    levels = (128, 256)
    values, _ = refinement_study(levels, lambda J: similarity_check_power(
        0.5, 1.0, 1.2, J, q_mixed=0.3))
    errors = [e for e, _ in values]
    assert decay_order(levels, errors) > 0.9
    assert errors[-1] < errors[0]
    assert max(cc for _, cc in values) < 0.02
