"""Smooth test profiles with closed-form derivatives.

Strong-form identity checks (conjugation consistency, manufactured solutions,
a-priori fits) need panels of smooth functions that vanish near the degenerate
edge y = 0 and near the truncation height, together with their exact first and
second derivatives.  Two families:

  * bump: exp(-1/(1-t^2)) on |t| < 1, truly compactly supported, all
    derivatives vanish at the support edge (the classical mollifier profile);
  * quartic: exp(-t^4), effectively supported on |t| <~ 3 (tails < 1e-35),
    cheaper and free of the support-edge rounding of the bump.

Profiles are callables with .d1 and .d2 closures; vertical_panel returns a
list of them.  Centers and widths are chosen inside (0, Y_max/2) so the
domain truncation never matters.
"""

import numpy as np


class Profile:
    """A scalar profile with exact first and second derivatives."""

    def __init__(self, f, d1, d2, label):
        self.f = f
        self.d1 = d1
        self.d2 = d2
        self.label = label

    def __call__(self, y):
        return self.f(y)

    def __repr__(self):
        return "Profile(%s)" % self.label


def bump_profile(center, width):
    """exp(-1/(1-t^2)) with t = (y-center)/width, support [c-w, c+w]."""
    c, w = float(center), float(width)

    def t_of(y):
        return (np.asarray(y, dtype=float) - c) / w

    def f(y):
        t = t_of(y)
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        ti = t[inside]
        out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
        return out

    def d1(y):
        t = t_of(y)
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        ti = t[inside]
        g = 1.0 - ti * ti
        out[inside] = np.exp(-1.0 / g) * (-2.0 * ti / g ** 2) / w
        return out

    def d2(y):
        t = t_of(y)
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        ti = t[inside]
        g = 1.0 - ti * ti
        val = np.exp(-1.0 / g)
        out[inside] = val * ((2.0 * ti / g ** 2) ** 2
                             - (2.0 + 6.0 * ti * ti) / g ** 3) / w ** 2
        return out

    return Profile(f, d1, d2, "bump(c=%g,w=%g)" % (c, w))


def quartic_profile(center, width):
    """exp(-t^4) with t = (y-center)/width; tails below 1e-35 for |t| > 3."""
    c, w = float(center), float(width)

    def t_of(y):
        return (np.asarray(y, dtype=float) - c) / w

    def f(y):
        t = t_of(y)
        return np.exp(-t ** 4)

    def d1(y):
        t = t_of(y)
        return np.exp(-t ** 4) * (-4.0 * t ** 3) / w

    def d2(y):
        t = t_of(y)
        return np.exp(-t ** 4) * (16.0 * t ** 6 - 12.0 * t ** 2) / w ** 2

    return Profile(f, d1, d2, "quartic(c=%g,w=%g)" % (c, w))


def vertical_panel(y_max, count=10, kind="mixed", rng=None):
    """Panel of profiles supported in (0, y_max/2), away from both ends.

    kind='interior' gives only edge-avoiding bumps (zero near y = 0, member of
    the flat-near-zero core class); 'mixed' alternates bump and quartic shapes
    over a spread of centers and widths.
    """
    Y = float(y_max)
    if rng is None:
        centers = np.linspace(0.14 * Y, 0.38 * Y, count)
        widths = np.linspace(0.05 * Y, 0.11 * Y, count)
    else:
        centers = rng.uniform(0.14 * Y, 0.38 * Y, count)
        widths = rng.uniform(0.05 * Y, 0.11 * Y, count)
    panel = []
    for i, (c, w) in enumerate(zip(centers, widths)):
        w = min(w, 0.9 * c, 0.9 * (0.5 * Y - c))  # keep support in (0, Y/2)
        if kind == "interior" or i % 2 == 0:
            panel.append(bump_profile(c, w))
        else:
            panel.append(quartic_profile(c, w / 2.5))
    return panel


def plane_wave(box, mode_vector):
    """Exact torus eigenfunction exp(i 2 pi k . x / L); carries .wavenumber."""
    k = np.asarray(mode_vector, dtype=int)
    xi = 2.0 * np.pi * k / box.length

    def f(*coords):
        phase = sum(xi[d] * coords[d] for d in range(len(k)))
        return np.exp(1j * phase)

    f.wavenumber = xi
    return f


def tensor_values(grid, x_fun, y_profile):
    """Sample x_fun(x1,..,xN) * y_profile(y) on the tensor grid."""
    if grid.x_box is None:
        return y_profile(grid.y_nodes).astype(complex)
    box = grid.x_box
    axes = np.meshgrid(*([box.nodes()] * box.dim), indexing="ij")
    xv = np.asarray(x_fun(*axes), dtype=complex)
    return xv[..., None] * y_profile(grid.y_nodes)[None, ...]
