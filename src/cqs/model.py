"""Normal form Y(n,q) of a two-dimensional cone, generator recursions and
singularity classification.

A singular cone is brought to the normal position <(1,0), (-q,n)> by a
unimodular transform. The continued fraction of n/(n-q) drives the dual
generators w^i, the one of n/q drives the minimal-resolution rays v^i, and
both recursions carry self-detecting endpoint identities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd

from .errors import (
    ConsistencyError,
    DomainError,
    HypersurfaceError,
    ResourceLimitError,
    SmoothConeError,
)
from .lattice import (
    M_SIDE,
    N_SIDE,
    ROLE_A,
    ROLE_B,
    CoeffChain,
    LatticeVector,
    det2,
    hj_expand,
    hj_lengths,
    mvec,
    nvec,
    pair,
    primitive_normal,
)

Mat2 = tuple[tuple[int, int], tuple[int, int]]

IDENTITY: Mat2 = ((1, 0), (0, 1))

#: longest a- or b-chain NormalForm.from_nq builds; every document lists
#: both chains, so no bounded answer exists past it
MAX_CHAIN_LENGTH = 10**5


def mat_vec(m: Mat2, v: tuple[int, int]) -> tuple[int, int]:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_det(m: Mat2) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_transpose(m: Mat2) -> Mat2:
    return ((m[0][0], m[1][0]), (m[0][1], m[1][1]))


def mat_inverse_unimodular(m: Mat2) -> Mat2:
    d = mat_det(m)
    if d not in (1, -1):
        raise DomainError(f"matrix is not unimodular (det {d})")
    return ((m[1][1] // d, -m[0][1] // d), (-m[1][0] // d, m[0][0] // d))


@dataclass(frozen=True)
class InputCone:
    """A two-dimensional cone given by two primitive generators."""

    g1: LatticeVector
    g2: LatticeVector

    def __post_init__(self) -> None:
        for g in (self.g1, self.g2):
            if g.side != N_SIDE:
                raise DomainError("cone generators must be N-side vectors")
            if not g.is_primitive():
                raise DomainError(f"cone generator {g} is not primitive")
        if det2(self.g1, self.g2) == 0:
            raise DomainError("cone generators are collinear (det = 0)")

    @classmethod
    def from_ints(cls, x1: int, y1: int, x2: int, y2: int) -> "InputCone":
        return cls(nvec(x1, y1), nvec(x2, y2))


@dataclass(frozen=True)
class NormalForm:
    """The pair (n, q) with the transform that produced it.

    transform maps g1 to (1,0) and g2 to (-q,n); dual_q is the inverse of q
    mod n, which is what normalizing the reversed generator order yields.
    The generator recursions and the inverse transform are computed on first
    use and kept, so every chain of one singularity shares them.
    """

    n: int
    q: int
    dual_q: int
    transform: Mat2
    a_chain: CoeffChain
    b_chain: CoeffChain

    @property
    def e(self) -> int:
        """Embedding dimension."""
        return len(self.a_chain) + 2

    @property
    def r(self) -> int:
        """Number of exceptional divisors of the minimal resolution."""
        return len(self.b_chain)

    @property
    def sigma(self) -> tuple[LatticeVector, LatticeVector]:
        """Generators of the cone in normal coordinates, counterclockwise."""
        return (nvec(1, 0), nvec(-self.q, self.n))

    @cached_property
    def ws(self) -> tuple[LatticeVector, ...]:
        """The dual generators w^1, ..., w^e (see w_generators)."""
        return tuple(w_generators(self))

    @cached_property
    def vs(self) -> tuple[LatticeVector, ...]:
        """The minimal resolution rays v^0, ..., v^{r+1} (see v_rays)."""
        return tuple(v_rays(self))

    @cached_property
    def _inverse(self) -> Mat2:
        return mat_inverse_unimodular(self.transform)

    def to_input_ray(self, v: LatticeVector) -> LatticeVector:
        """Map an N-side vector from normal coordinates back to input coordinates."""
        if self.transform == IDENTITY:
            return v
        x, y = mat_vec(self._inverse, v.xy)
        return LatticeVector(x, y, v.side)

    def to_input_normal(self, w: LatticeVector) -> LatticeVector:
        """Map an M-side vector back to input coordinates (transpose rule)."""
        if w.side != M_SIDE:
            raise ValueError("expected an M-side vector")
        if self.transform == IDENTITY:
            return w
        x, y = mat_vec(mat_transpose(self.transform), w.xy)
        return LatticeVector(x, y, M_SIDE)

    @classmethod
    def from_nq(cls, n: int, q: int) -> "NormalForm":
        if n == 1:
            raise SmoothConeError("Y(1,q) is smooth")
        if n < 2 or not 0 < q < n or gcd(n, q) != 1:
            raise DomainError(f"need n >= 2, 0 < q < n coprime, got ({n}, {q})")
        len_a, len_b = hj_lengths(n, q)
        if max(len_a, len_b) > MAX_CHAIN_LENGTH:
            raise ResourceLimitError(
                f"Y({n},{q}) has an a-chain of length {len_a} and a b-chain of "
                f"length {len_b}, beyond the bound of {MAX_CHAIN_LENGTH}"
            )
        return cls(
            n=n,
            q=q,
            dual_q=pow(q, -1, n),
            transform=IDENTITY,
            a_chain=hj_expand(n, n - q, ROLE_A),
            b_chain=hj_expand(n, q, ROLE_B),
        )

    def __str__(self) -> str:
        return f"Y({self.n},{self.q})"


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(s, t) with s*a + t*b = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        c, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - c * s1
        t0, t1 = t1, t0 - c * t1
    return (-s0, -t0) if a < 0 else (s0, t0)


def normalize_cone(cone: InputCone) -> NormalForm:
    """Unimodular change of basis sending g1 to (1,0) and g2 to (-q,n).

    n = |det(g1,g2)|; 0 <= q < n. Raises SmoothConeError when n = 1.
    Reversing the generator order yields (n, q^-1 mod n).
    """
    g1, g2 = cone.g1, cone.g2
    d0 = det2(g1, g2)
    n = abs(d0)
    if n == 1:
        raise SmoothConeError(f"cone <{g1}, {g2}> is smooth")
    s, t = _bezout(g1.x, g1.y)
    rows = ((s, t), (-g1.y, g1.x))
    if d0 < 0:
        rows = (rows[0], (g1.y, -g1.x))
    p = rows[0][0] * g2.x + rows[0][1] * g2.y
    q = (-p) % n
    k = (-q - p) // n
    shear: Mat2 = ((1, k), (0, 1))
    transform = mat_mul(shear, rows)
    if mat_vec(transform, g1.xy) != (1, 0) or mat_vec(transform, g2.xy) != (-q, n):
        raise ConsistencyError(
            "normalizing transform failed to map the generators", g1=g1, g2=g2
        )
    if mat_det(transform) not in (1, -1):
        raise ConsistencyError("normalizing transform is not unimodular")
    return replace(NormalForm.from_nq(n, q), transform=transform)


def w_generators(nf: NormalForm) -> list[LatticeVector]:
    """Dual semigroup generators w^1 = (0,1), ..., w^e = (n,q).

    Forward recursion w^{i+1} = a_i * w^i - w^{i-1} starting from the fixed
    convention w^2 = (1,1); the endpoint identity w^e = (n,q) is asserted.
    """
    ws = [mvec(0, 1), mvec(1, 1)]
    for a in nf.a_chain:
        ws.append(ws[-1].scaled(a) - ws[-2])
    if ws[-1].xy != (nf.n, nf.q):
        raise ConsistencyError(
            "dual generator recursion missed its endpoint",
            got=ws[-1].xy, expected=(nf.n, nf.q),
        )
    return ws


def v_rays(nf: NormalForm) -> list[LatticeVector]:
    """Minimal resolution rays v^0 = (1,0), ..., v^{r+1} = (-q,n).

    Forward recursion v^{i+1} = b_i * v^i - v^{i-1}; endpoint asserted.
    """
    vs = [nvec(1, 0), nvec(0, 1)]
    for b in nf.b_chain:
        vs.append(vs[-1].scaled(b) - vs[-2])
    if vs[-1].xy != (-nf.q, nf.n):
        raise ConsistencyError(
            "ray recursion missed its endpoint",
            got=vs[-1].xy, expected=(-nf.q, nf.n),
        )
    return vs


SMOOTH = "smooth"
DUVAL_A = "duval_a"
T_SINGULARITY = "t"
GENERAL = "general"


@dataclass(frozen=True)
class Roof:
    """Roof of a two-dimensional cone: the segment at height h cut out by the
    primitive normal w, between the cone's generators, of lattice length l.

    det = l*h, so the roof is also the cone's class: smooth means det = 1, Du
    Val A is a height-1 roof of length >= 2, and T requires h | l.
    """

    w: LatticeVector
    h: int
    l: int

    @property
    def tag(self) -> str:
        if self.h * self.l == 1:
            return SMOOTH
        if self.h == 1:
            return DUVAL_A
        if self.l % self.h == 0:
            return T_SINGULARITY
        return GENERAL

    @property
    def is_t_like(self) -> bool:
        """True for the cones allowed in a P-resolution (h divides l)."""
        return self.l % self.h == 0

    def label(self) -> str:
        tag = self.tag
        if tag == DUVAL_A:
            return f"A_{self.l - 1}"
        if tag == T_SINGULARITY:
            return f"T(h={self.h},l={self.l})"
        return tag


def cone_geometry(u: LatticeVector, v: LatticeVector) -> Roof:
    """Roof of the cone <u, v>: primitive roof normal w, height h, length l.

    Requires det(u, v) > 0. The identity det = l * h is asserted.
    """
    d = v - u
    l = gcd(d.x, d.y)
    w = primitive_normal(d, u)
    h = pair(u, w)
    if pair(v, w) != h:
        raise ConsistencyError("roof normal heights disagree", u=u, v=v)
    if l * h != det2(u, v):
        raise ConsistencyError("det(u,v) != l*h", u=u, v=v, l=l, h=h)
    return Roof(w, h, l)


def classify_cone(u: LatticeVector, v: LatticeVector) -> Roof:
    """Roof of the cone <u, v>, oriented so that det > 0; its tag says
    smooth, Du Val A, T or general."""
    if not (u.is_primitive() and v.is_primitive()):
        raise DomainError("cone generators must be primitive")
    d0 = det2(u, v)
    if d0 == 0:
        raise DomainError("degenerate cone (det = 0)")
    if d0 < 0:
        u, v = v, u
    return cone_geometry(u, v)


def dim_t1(nf: NormalForm) -> int:
    """Dimension of the space of infinitesimal deformations: sum(a_i) - 2.

    Only valid for embedding dimension e >= 4; the e = 3 case is a
    hypersurface with irreducible versal base.
    """
    if nf.e <= 3:
        raise HypersurfaceError()
    return nf.a_chain.total - 2
