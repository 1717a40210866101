"""Exact 2D lattice primitives.

Everything in this module is exact: no floats, no rounding, no overflow.
Vectors, pairings and continued fractions are plain integer arithmetic;
``fractions.Fraction`` appears only in the two rational oracles, cf_eval and
lattice_length, which the package keeps public for tests and callers but no
longer uses on its own computing paths. Vectors are tagged with the lattice
they live in (N for rays and points, M for functionals and roof normals) so
that the pairing can only be taken between opposite sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Sequence, Union

from .errors import DomainError

N_SIDE = "N"
M_SIDE = "M"

#: a point in the plane with integer or rational coordinates
PointLike = Sequence[Union[int, Fraction]]


@dataclass(frozen=True)
class LatticeVector:
    """Integer vector marked as an N-side (ray) or M-side (functional) element."""

    x: int
    y: int
    side: str = N_SIDE

    def __post_init__(self) -> None:
        if self.side not in (N_SIDE, M_SIDE):
            raise ValueError(f"unknown lattice side: {self.side!r}")

    @property
    def xy(self) -> tuple[int, int]:
        return (self.x, self.y)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_primitive(self) -> bool:
        return gcd(self.x, self.y) == 1

    def primitive(self) -> "LatticeVector":
        g = gcd(self.x, self.y)
        if g == 0:
            raise DomainError("the zero vector has no primitive representative")
        return _with_valid_side(self.x // g, self.y // g, self.side)

    def _same_side(self, other: "LatticeVector") -> None:
        if self.side != other.side:
            raise ValueError("cannot combine N-side and M-side vectors")

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        self._same_side(other)
        return _with_valid_side(self.x + other.x, self.y + other.y, self.side)

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        self._same_side(other)
        return _with_valid_side(self.x - other.x, self.y - other.y, self.side)

    def __neg__(self) -> "LatticeVector":
        return _with_valid_side(-self.x, -self.y, self.side)

    def scaled(self, c: int) -> "LatticeVector":
        return _with_valid_side(c * self.x, c * self.y, self.side)

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


def _with_valid_side(x: int, y: int, side: str) -> LatticeVector:
    """A vector whose side was taken from a valid vector: skips __post_init__.

    Arithmetic results use it, so the side test runs once per vector built
    from outside, not once per sum or multiple.
    """
    v = object.__new__(LatticeVector)
    v.__dict__.update(x=x, y=y, side=side)
    return v


def nvec(x: int, y: int) -> LatticeVector:
    return LatticeVector(x, y, N_SIDE)


def mvec(x: int, y: int) -> LatticeVector:
    return LatticeVector(x, y, M_SIDE)


def pair(v: LatticeVector, w: LatticeVector) -> int:
    """Canonical pairing <v, w> of an N-side vector with an M-side vector."""
    if v.side != N_SIDE or w.side != M_SIDE:
        raise ValueError("pairing takes an N-side vector and an M-side vector")
    return v.x * w.x + v.y * w.y


def det2(u: LatticeVector, v: LatticeVector) -> int:
    """Determinant of two same-side vectors."""
    u._same_side(v)
    return u.x * v.y - u.y * v.x


ROLE_A = "a-chain"
ROLE_B = "b-chain"
ROLE_K = "k-chain"
ROLE_GENERIC = "generic"

_MIN_ENTRY = {ROLE_A: 2, ROLE_B: 2, ROLE_K: 1, ROLE_GENERIC: None}


@dataclass(frozen=True)
class CoeffChain:
    """Integer coefficient sequence of a continued fraction.

    The role tags the standard constraints: a-chains and b-chains have all
    entries >= 2, k-chains all entries >= 1, generic chains are unconstrained.
    """

    coeffs: tuple[int, ...]
    role: str = ROLE_GENERIC

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if self.role not in _MIN_ENTRY:
            raise ValueError(f"unknown chain role: {self.role!r}")
        floor = _MIN_ENTRY[self.role]
        if floor is not None and any(c < floor for c in self.coeffs):
            raise ValueError(f"{self.role} entries must all be >= {floor}: {self.coeffs}")

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]

    @property
    def total(self) -> int:
        return sum(self.coeffs)

    def reversed(self) -> "CoeffChain":
        return CoeffChain(self.coeffs[::-1], self.role)

    def __str__(self) -> str:
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"


def hj_expand(n: int, q: int, role: str = ROLE_GENERIC) -> CoeffChain:
    """Continued fraction expansion of n/q with all coefficients >= 2.

    Computed by repeated ceiling division: n/q = c - 1/(q/(c*q - n)).
    Requires n >= 2, 0 < q < n and gcd(n, q) = 1.
    """
    if n < 2 or not 0 < q < n or gcd(n, q) != 1:
        raise DomainError(f"hj_expand needs n >= 2, 0 < q < n coprime, got ({n}, {q})")
    coeffs = []
    a, b = n, q
    while b:
        c = -(-a // b)
        coeffs.append(c)
        a, b = b, c * b - a
    return CoeffChain(tuple(coeffs), role)


def hj_lengths(n: int, q: int) -> tuple[int, int]:
    """Lengths of hj_expand(n, n - q) and hj_expand(n, q) (the a- and
    b-chains) in O(log n) steps, without building either chain.

    The regular continued fraction n/q = [c_0; c_1, ..., c_k] gives
    n/q = [c_0 + 1, 2^(c_1 - 1), c_2 + 2, 2^(c_3 - 1), ...] with entries
    >= 2, ending in c_k + 1 when k > 0 is even (just [c_0] when k = 0).
    Riemenschneider duality gives len(a) = 1 + sum(b_j - 2). Same domain as
    hj_expand.
    """
    if n < 2 or not 0 < q < n or gcd(n, q) != 1:
        raise DomainError(f"hj_lengths needs n >= 2, 0 < q < n coprime, got ({n}, {q})")
    cs = []
    while q:
        cs.append(n // q)
        n, q = q, n % q
    even, odd = cs[0::2], cs[1::2]
    len_b = len(even) + sum(odd) - len(odd)
    b_excess = sum(even) - 1 - (len(cs) % 2)   # sum(b_j - 2)
    return 1 + b_excess, len_b


def cf_eval(chain) -> Fraction | None:
    """Evaluate [c_1,...,c_k] = c_1 - 1/[c_2,...,c_k] with exact rationals.

    Returns None (undefined) exactly when some proper tail evaluates to 0 and
    is then used as a divisor. A zero result for the whole chain is a value.
    """
    coeffs = tuple(chain)
    if not coeffs:
        raise DomainError("cannot evaluate an empty chain")
    value = Fraction(coeffs[-1])
    for c in coeffs[-2::-1]:
        if value == 0:
            return None
        value = c - Fraction(1) / value
    return value


def lattice_length(p: PointLike, q: PointLike) -> Fraction:
    """Length of the segment [p, q] in the rank-1 lattice induced on its line.

    Writes q - p = t * d with d the primitive integer direction and returns |t|.
    """
    dx = Fraction(q[0]) - Fraction(p[0])
    dy = Fraction(q[1]) - Fraction(p[1])
    if dx == 0 and dy == 0:
        raise DomainError("degenerate segment: endpoints coincide")
    den = lcm(dx.denominator, dy.denominator)
    g = gcd(int(dx * den), int(dy * den))
    return Fraction(g, den)


def primitive_normal(d: LatticeVector, witness: LatticeVector) -> LatticeVector:
    """Primitive M-side vector w with <d, w> = 0 and <witness, w> > 0."""
    if d.is_zero():
        raise DomainError("no normal direction for the zero vector")
    w = LatticeVector(-d.y, d.x, M_SIDE).primitive()
    s = pair(witness, w)
    if s == 0:
        raise DomainError("witness is parallel to the given direction")
    return w if s > 0 else -w
