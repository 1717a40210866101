"""Fan constructions over a normalized cone: minimal resolution, RDP fan,
the fan of an admissible chain, P-resolution validation, and the
convex-path oracle that double-checks the chain enumeration.

All fans live in normal coordinates, rays ordered counterclockwise from
(1,0) to (-q,n). Each two-dimensional cone carries a roof: the segment its
defining functional w cuts out at its height h (model.Roof). Both endpoints
of every roof are the cone's primitive generators, so the module works in
integers throughout. Every roof is checked against the cone's own geometry
(model.cone_geometry, run once per cone): chain-built roofs must equal it,
other cones take it as their roof. The roof is also the cone's class
(smooth, Du Val A, T or general): Roof.tag reads it off h and l.

The oracle (brute_force_presolutions) finds the P-resolutions without the
chains: a P-resolution is a path from (1,0) to (-q,n) through the dominating
rays whose every cone is T and whose roof path turns strictly convex at each
interior ray. It searches edges i -> j of T-cones, keeps those from which a
convex path still reaches the end ray, and lists exactly those paths.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd

from .chains import KChain, rdp_chain
from .errors import ConsistencyError, DomainError, ValidationError
from .lattice import LatticeVector, det2, nvec
from .model import SMOOTH, NormalForm, Roof, cone_geometry


@dataclass(frozen=True)
class Cone2D:
    """The cone <left, right> with its roof, which the constructors in this
    module have checked against the cone's own geometry."""

    left: LatticeVector
    right: LatticeVector
    roof: Roof


@dataclass(frozen=True)
class Fan:
    """Ordered subdivision of the normalized cone."""

    rays: tuple[LatticeVector, ...]
    cones: tuple[Cone2D, ...]

    def ray_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(r.xy for r in self.rays)

    def interior_rays(self) -> tuple[LatticeVector, ...]:
        return self.rays[1:-1]

    def roof_sum(self) -> int:
        """Sum of l/h over the two-dimensional cones; each l/h must be integral."""
        total = 0
        for c in self.cones:
            quotient, rest = divmod(c.roof.l, c.roof.h)
            if rest:
                raise ConsistencyError(
                    "non-integral l/h in a roof sum",
                    cone=(c.left, c.right), l=c.roof.l, h=c.roof.h,
                )
            total += quotient
        return total


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failed: str | None = None
    detail: str = ""


def _intrinsic_cone(u: LatticeVector, v: LatticeVector) -> Cone2D:
    """Cone with the roof its own geometry defines."""
    return Cone2D(u, v, cone_geometry(u, v))


def fan_from_rays(rays) -> Fan:
    """Fan through the given primitive rays, which must be in strict
    counterclockwise order; every cone gets its intrinsic roof."""
    rays = tuple(rays)
    if len(rays) < 2:
        raise DomainError("a fan needs at least two rays")
    for a, b in zip(rays, rays[1:]):
        if det2(a, b) <= 0:
            raise DomainError(f"rays out of angular order: {a}, {b}")
    cones = tuple(_intrinsic_cone(a, b) for a, b in zip(rays, rays[1:]))
    return Fan(rays, cones)


def minimal_resolution_fan(nf: NormalForm) -> Fan:
    """Subdivision along all v^i; every cone must come out smooth."""
    fan = fan_from_rays(nf.vs)
    for c in fan.cones:
        if c.roof.tag != SMOOTH:
            raise ConsistencyError(
                "minimal resolution produced a singular cone", cone=(c.left, c.right)
            )
    return fan


def _inside_sigma(nf: NormalForm, v: LatticeVector) -> bool:
    # det((1,0), v) >= 0 and det(v, (-q,n)) >= 0
    return v.y >= 0 and nf.n * v.x + nf.q * v.y >= 0


def fan_from_chain(nf: NormalForm, chain: KChain) -> Fan:
    """The fan attached to an admissible chain.

    The ray between tau_{i-1} and tau_i (i = 3..e-1) is the vector rho with
    dual coordinates (<rho, w^{i-1}>, <rho, w^i>) = (q_{i-1}, q_i). These
    determine it, since w^{i-1}, w^i is a basis of M (det(w^1, w^2) = -1 and
    the recursion keeps the determinant): with w^{i-1} = (a0, b0) and
    w^i = (a1, b1),

        rho = (b0 q_i - b1 q_{i-1}, a1 q_{i-1} - a0 q_i).

    rho is primitive because q_{i-1} and q_i are coprime (q_1 = 0, q_2 = 1
    and q_{i+1} = k_i q_i - q_{i-1}); that it lies in sigma is checked.
    Consecutive duplicates come exactly from the degenerate indices
    a_i = k_i and are merged; each surviving cone tau_i carries the roof at
    height q_i with length (a_i - k_i)*q_i.

    That roof ends on the primitive generators of tau_i: both of its rays
    have <rho, w^i> = q_i, the interior rays by construction and the
    generators (1,0) and (-q,n) because their dual coordinates are
    (q_1, q_2) = (0, 1) in the basis w^1, w^2 and (q_{e-1}, q_e) = (1, 0) in
    the basis w^{e-1}, w^e. So the cone's own roof (w, h, l) must equal
    (w^i, q_i, (a_i - k_i) q_i); one comparison per cone asserts it. Then h
    divides l, and every cone passes the T-test.
    """
    e = nf.e
    a = nf.a_chain.coeffs
    if len(chain.k) != e - 2:
        raise DomainError(f"chain length {len(chain.k)} does not match e - 2 = {e - 2}")
    if any(k > ai for k, ai in zip(chain.k, a)):
        raise DomainError(f"chain {chain} exceeds the a-chain caps {list(a)}")

    ws = nf.ws
    qs = chain.q_seq
    s_left, s_right = nf.sigma

    raw = [s_left]
    for i in range(3, e):
        w0, w1, q0, q1 = ws[i - 2], ws[i - 1], qs[i - 2], qs[i - 1]
        ray = nvec(w0.y * q1 - w1.y * q0, w1.x * q0 - w0.x * q1)
        if not _inside_sigma(nf, ray):
            raise ValidationError(f"ray for index {i} lies outside sigma: {ray}")
        raw.append(ray)
    raw.append(s_right)

    rays = [s_left]
    cones: list[Cone2D] = []
    for i in range(2, e):
        left, right = raw[i - 2], raw[i - 1]
        degenerate = a[i - 2] == chain.k[i - 2]
        if (left == right) != degenerate:
            raise ValidationError(
                f"ray merge disagrees with degeneracy at index {i}: "
                f"{left} vs {right}, a_i={a[i - 2]}, k_i={chain.k[i - 2]}"
            )
        if degenerate:
            continue
        if left != rays[-1]:
            raise ValidationError(f"rays out of order at index {i}")
        if det2(left, right) <= 0:
            raise ValidationError(f"rays out of angular order: {left}, {right}")
        rays.append(right)

        roof = Roof(ws[i - 1], qs[i - 1], (a[i - 2] - chain.k[i - 2]) * qs[i - 1])
        intrinsic = cone_geometry(left, right)
        if intrinsic != roof:
            raise ConsistencyError(
                "chain roof (w^i, q_i, (a_i - k_i) q_i) disagrees with the cone's geometry",
                index=i, chain=chain, roof=roof, intrinsic=intrinsic,
            )
        cones.append(Cone2D(left, right, roof))

    if rays[-1] != s_right:
        raise ValidationError("fan does not close up on the second generator")
    return Fan(tuple(rays), tuple(cones))


def rdp_fan(nf: NormalForm) -> Fan:
    """Fan of the RDP resolution: the chain construction for (1,2,...,2,1),
    cross-checked against rays through the hull vertices."""
    if nf.e <= 3:
        raise DomainError("RDP fan needs embedding dimension >= 4")
    fan = fan_from_chain(nf, rdp_chain(nf.e - 2))
    hull = {v.xy for v in hull_vertex_rays(nf)}
    if fan.ray_set() != hull:
        raise ConsistencyError(
            "chain-built RDP fan disagrees with hull vertices",
            chain_rays=sorted(fan.ray_set()), hull_rays=sorted(hull),
        )
    return fan


def _turn(p0: tuple[int, int], p1: tuple[int, int], p2: tuple[int, int]) -> int:
    """Cross product of p1 - p0 and p2 - p1: positive for a left
    (counterclockwise) turn at p1, zero when the three points are collinear."""
    return (p1[0] - p0[0]) * (p2[1] - p1[1]) - (p1[1] - p0[1]) * (p2[0] - p1[0])


def validate_presolution(fan: Fan) -> ValidationReport:
    """Check the three P-resolution conditions.

    (1) every cone is smooth or T (h divides l); (2) adjacent roofs share
    their endpoint on the common ray; (3) the concatenated roof path is
    strictly convex at every interior ray. Collinear adjacent roofs are the
    crepant case and fail, as does any reflex turn. Roofs end on the
    primitive generators, so (2) and (3) are checks on the integer rays.
    """
    for c in fan.cones:
        if not c.roof.is_t_like:
            return ValidationReport(
                False, "t-test", f"cone {c.left},{c.right} has h={c.roof.h}, l={c.roof.l}"
            )
    for ca, cb in zip(fan.cones, fan.cones[1:]):
        if ca.right != cb.left:
            return ValidationReport(
                False, "roof-continuity",
                f"roofs disagree between rays {ca.right} and {cb.left}",
            )
    points = [fan.cones[0].left] + [c.right for c in fan.cones]
    for j in range(1, len(points) - 1):
        cross = _turn(points[j - 1].xy, points[j].xy, points[j + 1].xy)
        if cross == 0:
            return ValidationReport(
                False, "roof-convexity", f"collinear roofs (crepant) at {points[j]}"
            )
        if cross > 0:
            return ValidationReport(
                False, "roof-convexity", f"reflex roof path at {points[j]}"
            )
    return ValidationReport(True)


# --- lattice points, hulls, convex-path oracle -----------------------------


def triangle_lattice_points(nf: NormalForm) -> list[tuple[int, int]]:
    """Lattice points of conv{0, (1,0), (-q,n)} without the origin."""
    n, q = nf.n, nf.q
    pts = []
    for y in range(n + 1):
        xmin = -((q * y) // n)                 # ceil(-q*y/n)
        xmax = (n - (q + 1) * y) // n          # floor(1 - (q+1)*y/n)
        for x in range(xmin, xmax + 1):
            if (x, y) != (0, 0):
                pts.append((x, y))
    return pts


def _convex_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Counterclockwise hull vertices (monotone chain, collinear dropped)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and _turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def hull_vertex_rays(nf: NormalForm) -> list[LatticeVector]:
    """Rays through the vertices of the hull chain facing the origin,
    from (1,0) to (-q,n)."""
    g1, g2 = (1, 0), (-nf.q, nf.n)
    hull = _convex_hull(triangle_lattice_points(nf))
    if len(hull) == 2:
        return [nvec(*g1), nvec(*g2)]
    i1, i2 = hull.index(g1), hull.index(g2)

    def arc(i, j):
        out = [hull[i]]
        while i != j:
            i = (i + 1) % len(hull)
            out.append(hull[i])
        return out

    forward, backward = arc(i1, i2), arc(i2, i1)[::-1]
    # the chain facing the origin keeps its interior strictly off the
    # hypotenuse [g1, g2], on the origin's side
    def on_origin_side(p):
        return _turn(g1, g2, p) * _turn(g1, g2, (0, 0)) > 0

    for candidate in (forward, backward):
        interior = candidate[1:-1]
        if interior and all(on_origin_side(p) for p in interior):
            return [nvec(*p) for p in candidate]
    return [nvec(*g1), nvec(*g2)]


def hull_boundary_lattice_points(nf: NormalForm) -> list[LatticeVector]:
    """All lattice points on the origin-facing hull chain (minimal-resolution
    ray set, computed without the b-chain recursion)."""
    verts = hull_vertex_rays(nf)
    out = [verts[0]]
    for a, b in zip(verts, verts[1:]):
        steps = gcd(b.x - a.x, b.y - a.y)
        sx, sy = (b.x - a.x) // steps, (b.y - a.y) // steps
        for s in range(1, steps + 1):
            out.append(nvec(a.x + sx * s, a.y + sy * s))
    return out


def dominating_interior_rays(nf: NormalForm) -> list[LatticeVector]:
    """Primitive interior directions of all lattice points in the bounding
    triangle; every P-resolution's rays are among them."""
    dirs = {nvec(x, y).primitive().xy for x, y in triangle_lattice_points(nf)}
    dirs.discard((1, 0))
    dirs.discard((-nf.q, nf.n))
    rays = [nvec(*d) for d in dirs]
    rays.sort(key=functools.cmp_to_key(lambda a, b: -det2(a, b)))
    return rays


def brute_force_presolutions(nf: NormalForm) -> tuple[Fan, ...]:
    """All P-resolutions, found as convex T-paths through the dominating rays.

    An edge i -> j between the counterclockwise-sorted rays exists when the
    cone <rays[i], rays[j]> is T: h | l, which with det = l*h and
    l = gcd(dx, dy) of the roof's direction reads det | l^2, a test on the
    integer coordinates alone. An edge is live when it ends on (-q,n) or
    continues in a live edge j -> k that turns strictly convex at rays[j];
    filled backward from the end ray, live[i, j] holds the edge's cone and
    those k. Only live edges get their roof from cone_geometry, which
    asserts det = l*h, so every cone of every fan found is checked. The
    forward walk extends only live edges, so every path it starts ends in a
    P-resolution: O(R^2) T-tests, O(R^3) turn tests, and work per fan found.
    Consecutive roofs share the ray between them, so roof continuity holds
    on every path.
    """
    if nf.e <= 3:
        raise DomainError("the P-resolution oracle needs embedding dimension >= 4")
    s_left, s_right = nf.sigma
    rays = [s_left] + dominating_interior_rays(nf) + [s_right]
    pts = [r.xy for r in rays]
    end = len(rays) - 1
    live: dict[tuple[int, int], tuple[Cone2D, list[int]]] = {}
    for i in range(end - 1, -1, -1):
        xi, yi = pts[i]
        for j in range(i + 1, end + 1):
            xj, yj = pts[j]
            l = gcd(xj - xi, yj - yi)
            if l * l % (xi * yj - yi * xj):
                continue
            succ = [k for k in range(j + 1, end + 1)
                    if (j, k) in live and _turn(pts[i], pts[j], pts[k]) < 0]
            if j == end or succ:
                live[i, j] = (_intrinsic_cone(rays[i], rays[j]), succ)
    fans = []
    stack = [[0, j] for j in range(1, end + 1) if (0, j) in live]
    while stack:
        path = stack.pop()
        if path[-1] == end:
            fans.append(Fan(tuple(rays[t] for t in path),
                            tuple(live[a, b][0] for a, b in zip(path, path[1:]))))
        else:
            stack.extend(path + [k] for k in live[path[-2], path[-1]][1])
    fans.sort(key=lambda f: tuple(r.xy for r in f.rays))
    return tuple(fans)
