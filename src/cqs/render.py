"""Deterministic SVG figures of fans: lattice dots, solid rays from the
origin to the primitive generators, one dashed roof polyline, ray labels.

Rendering is a pure function of the fan and the style constants below, so
identical input yields byte-identical output. Figures are drawn in the input
cone's coordinates. Every coordinate written is a whole number of thousandths
of a pixel, so the figure is computed in integers.

The lattice dots come from one tiled `<pattern>`: a `scale`-by-`scale` cell,
offset by half a cell so that its one circle sits on a lattice point, fills a
`<rect>` over the whole figure. A figure's size therefore follows its ray
count, not the lattice points of its bounding box. The cell clips each dot
when `scale` < 2·`dot_radius`; at those scales neighbouring dots merge anyway.
"""

from __future__ import annotations

from .fans import Fan, minimal_resolution_fan
from .invariants import SingularityReport
from .model import NormalForm

#: all style constants in one place; tests rely on the dot radius and dash
STYLE = {
    "scale": 40,
    "margin": 1,
    "dot_radius": 2,
    "dash": "6,4",
    "ray_width": 1.5,
    "roof_width": 1.2,
    "font_size": 12,
    "dot_fill": "#555555",
    "stroke": "#000000",
}


def _fmt(milli: int) -> str:
    """milli / 1000 as an exact decimal with at most three places."""
    sign = "-" if milli < 0 else ""
    whole, frac = divmod(abs(milli), 1000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + f"{frac:03d}".rstrip("0")


def fan_svg(fan: Fan, nf: NormalForm, scale: int | None = None) -> str:
    scale = STYLE["scale"] if scale is None else scale
    margin = STYLE["margin"]

    gens = [nf.to_input_ray(r).xy for r in fan.rays]

    xs = [0] + [x for x, _ in gens]
    ys = [0] + [y for _, y in gens]
    x0, x1 = min(xs) - margin, max(xs) + margin
    y0, y1 = min(ys) - margin, max(ys) + margin
    width, height = (x1 - x0) * scale, (y1 - y0) * scale

    def sx(x: int) -> str:
        return _fmt((x - x0) * scale * 1000)

    def sy(y: int) -> str:
        return _fmt((y1 - y) * scale * 1000)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    ]
    # x0 and y1 are lattice coordinates, so lattice points sit on multiples
    # of the scale; the half-cell offset centres each cell's dot on one
    half = _fmt(scale * 500)
    out.append(
        f'<defs><pattern id="dots" patternUnits="userSpaceOnUse" '
        f'x="-{half}" y="-{half}" width="{scale}" height="{scale}">'
        f'<circle cx="{half}" cy="{half}" r="{STYLE["dot_radius"]}" '
        f'fill="{STYLE["dot_fill"]}"/></pattern></defs>'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="url(#dots)"/>')
    for gx, gy in gens:
        out.append(
            f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(gx)}" y2="{sy(gy)}" '
            f'stroke="{STYLE["stroke"]}" stroke-width="{STYLE["ray_width"]}"/>'
        )
    # every roof ends on its cone's primitive generators, so the roof path
    # runs through the generators in ray order
    pts = " ".join(f"{sx(gx)},{sy(gy)}" for gx, gy in gens)
    out.append(
        f'<polyline points="{pts}" fill="none" stroke="{STYLE["stroke"]}" '
        f'stroke-width="{STYLE["roof_width"]}" '
        f'stroke-dasharray="{STYLE["dash"]}"/>'
    )
    for i, (gx, gy) in enumerate(gens):
        # labels sit an eighth of a cell up and right of the generator
        lx = (gx - x0) * scale * 1000 + scale * 125
        ly = (y1 - gy) * scale * 1000 - scale * 125
        out.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-family="sans-serif" '
            f'font-size="{STYLE["font_size"]}">v{i}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def chain_filename(chain) -> str:
    return "fan_" + "-".join(str(c) for c in chain.k) + ".svg"


def fan_figures(report: SingularityReport, scale: int | None = None) -> dict[str, str]:
    """One figure per P-resolution plus the minimal resolution."""
    nf = report.nf
    figures = {"fan_minimal.svg": fan_svg(minimal_resolution_fan(nf), nf, scale)}
    for comp in report.components:
        figures[chain_filename(comp.chain)] = fan_svg(comp.fan, nf, scale)
    return figures
