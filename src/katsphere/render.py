"""SVG rendering of circle patterns through stereographic projection.

Stereographic projection maps circles to circles as long as no boundary
circle passes through the projection pole.  The pole is picked from a
deterministic candidate lattice to maximize the angular clearance from
every boundary circle and every cap center, the configuration is
rotated to put that pole on top, and each cap boundary then lands on an
ordinary circle in the plane with a closed-form center and radius.
"""

from __future__ import annotations

import math

import numpy as np

from .complexes import Triangulation
from .sphere import _elementwise, fibonacci_sphere

_POLE_CANDIDATES = 400


def choose_projection_pole(cfg) -> np.ndarray:
    """Point with the largest clearance from circles and centers."""
    probes = fibonacci_sphere(_POLE_CANDIDATES)
    # the candidates x caps arrays are a render's largest allocation:
    # two of them, updated in place
    dist = probes @ cfg.centers.T
    np.clip(dist, -1.0, 1.0, out=dist)
    np.arccos(dist, out=dist)
    gap = dist - cfg.radii
    np.abs(gap, out=gap)
    np.minimum(gap, dist, out=gap)
    return probes[int(np.argmax(gap.min(axis=1)))]


def _rotation_to_north(pole: np.ndarray) -> np.ndarray:
    seed = np.eye(3)[int(np.argmin(np.abs(pole)))]
    x = seed - float(seed @ pole) * pole
    x /= np.linalg.norm(x)
    y = np.cross(pole, x)
    return np.vstack([x, y, pole])


def _project(centers: np.ndarray, radii: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Images under projection from the north pole onto the equatorial
    plane: (n, 3) rows (cx, cy, radius) of the cap boundaries and (n, 2)
    rows (x, y) of the cap centers.  The cosines and sines round like
    the scalar math calls."""
    x, y, z = centers.T
    k = z - _elementwise(math.cos, radii)
    circles = np.column_stack(
        [-x / k, -y / k, _elementwise(math.sin, radii) / np.abs(k)])
    points = np.column_stack([x / (1.0 - z), y / (1.0 - z)])
    return circles, points


def render_svg(tri: Triangulation, cfg) -> str:
    pole = choose_projection_pole(cfg)
    rot = _rotation_to_north(pole)
    circles, points = _project(cfg.centers @ rot.T, cfg.radii)

    cx, cy, r = circles.T
    xs = np.concatenate([cx - r, cx + r, points[:, 0]])
    ys = np.concatenate([cy - r, cy + r, points[:, 1]])
    lo_x, hi_x = float(xs.min()), float(xs.max())
    lo_y, hi_y = float(ys.min()), float(ys.max())
    span = max(hi_x - lo_x, hi_y - lo_y)
    pad = 0.05 * span
    view = (lo_x - pad, lo_y - pad,
            (hi_x - lo_x) + 2 * pad, (hi_y - lo_y) + 2 * pad)
    stroke = "%.4f" % (0.004 * span)

    line = '<line x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f"/>'
    circle = '<circle cx="%.4f" cy="%.4f" r="%.4f"/>'
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="%.4f %.4f %.4f %.4f">' % view,
        f'<g stroke="#888888" stroke-width="{stroke}">',
        *[line % tuple(row) for row in
          points[tri.edge_array].reshape(-1, 4).tolist()],
        "</g>",
        f'<g fill="none" stroke="#1f77b4" stroke-width="{stroke}">',
        *[circle % tuple(row) for row in circles.tolist()],
        "</g>",
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def render_to_file(tri: Triangulation, cfg, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_svg(tri, cfg))
