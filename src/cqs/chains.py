"""Zero continued fractions and their admissible subsets.

A chain (k_2,...,k_{e-1}) of positive integers is a zero chain when its
auxiliary sequence q_1 = 0, q_2 = 1, q_{i+1} = k_i*q_i - q_{i-1} stays
positive in the interior and lands exactly on q_e = 0. This integer test is
the primary admissibility route; the rational continued-fraction evaluator
stays available as an independent oracle.

Read through Conway and Coxeter (1973), the zero chains of length m are the
quiddity sequences of the triangulations of a polygon v_0 ... v_m: the
entry of slot v counts the triangles at v_v, and the q value there is the
frieze entry of v_0 and v_v. Two generators use that reading:

- zero_chains(m) builds every triangulation by the root-triangle (Catalan)
  recursion, bottom-up, so it does work per chain and none per dead end;
- admissible_chains(a) searches the chains capped by an a-chain depth-first,
  pruned by a ceiling on q that each pocket of the triangulation between two
  vertices joined to v_0 imposes (proof in _search).

Both emit their chains in lexicographic order and check every one with
KChain.from_coeffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Sequence

from .errors import DomainError, ResourceLimitError
from .lattice import CoeffChain

#: zero_chains refuses lengths with more chains than this (m >= 15)
MAX_ZERO_CHAINS = 10**6

#: sum of 3 - cap_u over a pocket v_s ... v_t is at most this; see _search
_POCKET_SLACK = 4


def q_sequence(k: Sequence[int]) -> tuple[int, ...]:
    """The sequence (q_1,...,q_e) attached to a chain, without any filtering."""
    if not k:
        raise DomainError("cannot build a q-sequence for an empty chain")
    qs = [0, 1]
    prev, cur = 0, 1
    for c in k:
        prev, cur = cur, c * cur - prev
        qs.append(cur)
    return tuple(qs)


def _zero_chain_q_sequence(k: tuple[int, ...]) -> tuple[int, ...] | None:
    """The q-sequence of k if k is a zero chain, else None."""
    if not k or min(k) < 1:
        raise DomainError("zero-chain test needs a nonempty chain with entries >= 1")
    qs = q_sequence(k)
    return qs if qs[-1] == 0 and min(qs[1:-1]) > 0 else None


def is_zero_chain(k: Sequence[int]) -> bool:
    """True iff the interior q_i are positive and the final q_e is zero."""
    return _zero_chain_q_sequence(tuple(k)) is not None


@dataclass(frozen=True)
class KChain:
    """An admissible chain together with its q-sequence."""

    k: tuple[int, ...]
    q_seq: tuple[int, ...]

    @classmethod
    def from_coeffs(cls, k: Sequence[int]) -> "KChain":
        k = tuple(map(int, k))
        qs = _zero_chain_q_sequence(k)
        if qs is None:
            raise DomainError(f"{list(k)} is not an admissible zero chain")
        return cls(k, qs)

    def __len__(self) -> int:
        return len(self.k)

    def reversed(self) -> "KChain":
        return KChain.from_coeffs(self.k[::-1])

    @property
    def is_rdp(self) -> bool:
        """True for (1, 2, ..., 2, 1), the chain of the RDP resolution."""
        return self.k == rdp_coeffs(len(self.k))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.k) + ")"


def rdp_coeffs(m: int) -> tuple[int, ...]:
    if m < 2:
        raise DomainError("RDP chains need length >= 2")
    return (1,) + (2,) * (m - 2) + (1,)


def rdp_chain(m: int) -> KChain:
    return KChain.from_coeffs(rdp_coeffs(m))


def _pocket_ceiling(caps: tuple[int, ...]) -> list[int]:
    """ceil[v] bounds Q_v = q_{v+1} over every zero chain k <= caps.

    Indexed 0..m, with ceil[1] = ceil[m] = 1; see _search for the proof.
    """
    m = len(caps)
    ceil = [1] * (m + 1)
    # prefix[x] = sum of 3 - cap_u over u <= x; best[v] = max prefix[x], x <= v - 2
    prefix = [0]
    for c in caps:
        prefix.append(prefix[-1] + 3 - c)
    best = [0] * (m + 1)
    for v in range(3, m + 1):
        best[v] = max(best[v - 1], prefix[v - 2])
    for t in range(2, m + 1):
        floor = prefix[t] - _POCKET_SLACK
        # R_{t+1}, R_t of the max-cap recursion run leftward from t
        r_next, r = (1, 1) if t < m else (0, 1)
        for v in range(t - 1, 1, -1):
            if best[v] < floor:
                break
            r_next, r = r, caps[v] * r - r_next
            if r <= 0:
                break
            if r > ceil[v]:
                ceil[v] = r
    return ceil


def _search(caps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Depth-first search for zero chains k <= caps, in lex order.

    State before slot j is (Q_{j-1}, Q_j), where Q_v = q_{v+1}: Q_0 = 0,
    Q_1 = 1 and Q_{v+1} = k_v Q_v - Q_{v-1}. Slot j is tried from the
    smallest k_j that keeps Q_{j+1} >= 1 up to the largest that keeps
    Q_{j+1} <= ceil[j+1], and the last coefficient is forced by the exact
    division Q_{m+1} = 0. The search keeps an explicit stack, so its depth
    is not limited by the interpreter's recursion limit.

    Why ceil bounds Q. A zero chain of length m is the quiddity sequence of
    a triangulation of the polygon v_0 ... v_m: k_v is the number of
    triangles at v_v, and Q_v is the frieze entry of v_0 and v_v, which is 1
    exactly when v_v is joined to v_0 (fan slots; slots 1 and m always are).
    Let s < t be consecutive fan slots. The triangle v_0 v_s v_t lies in the
    triangulation, and its other triangles on the far side of v_s v_t
    triangulate the pocket v_s ... v_t: t - s - 1 triangles with
    3(t - s - 1) corners. Every interior pocket vertex has all its triangles
    in the pocket, and v_s, v_t have the root triangle besides, so
    sum_{s <= u <= t} k_u >= 3(t - s - 1) + 2 (also when t = s + 1, since
    k >= 1), that is sum_{s <= u <= t} (3 - cap_u) <= 4 = _POCKET_SLACK.
    Now take v with s < v < t. From Q_t = 1 and Q_{t+1} >= 1 (Q_{m+1} = 0
    when t = m), Q_{t-1} = k_t - Q_{t+1} <= R_{t-1}, where R_t = 1,
    R_{t+1} = 1 (0 when t = m) and R_{u-1} = cap_u R_u - R_{u+1}. Going
    left, Q_{u-1}/Q_u = k_u - Q_{u+1}/Q_u <= cap_u - R_{u+1}/R_u =
    R_{u-1}/R_u as long as R stays positive, and the ratios multiply to
    Q_v <= R_v; if R reaches 0 at some u >= 1, no zero chain has t as a fan
    slot at all, because Q_u > 0. So ceil[v], the maximum of 1 and of R_v
    over every t > v whose pocket can start at some s < v, bounds Q_v.
    _pocket_ceiling computes it with one walk left from each t, stopped
    where no s < v can satisfy the pocket sum, in O(m * pocket) steps.
    With t = m alone this is the ratio bound read from the right end.
    """
    m = len(caps)
    if m < 2:
        return

    ceil = _pocket_ceiling(caps)
    # slot j (1-based) holds xs[j-1], tried up to his[j-1]; qs[j-1], qs[j] is
    # the state before slot j
    xs = [0] * m
    his = [0] * m
    qs = [0, 1] + [0] * (m - 1)
    last = caps[m - 1]
    # positivity: x*Q_j - Q_{j-1} >= 1; ceiling: x*Q_j - Q_{j-1} <= ceil[j+1]
    his[0] = min(caps[0], ceil[2])
    j = 1
    while j:
        x = xs[j - 1] + 1
        if x > his[j - 1]:
            j -= 1
            continue
        xs[j - 1] = x
        q_prev, q_cur = qs[j], x * qs[j] - qs[j - 1]
        if j == m - 1:
            # Q_{m+1} = y*Q_m - Q_{m-1} = 0 forces the last coefficient y
            if q_prev % q_cur == 0 and 1 <= q_prev // q_cur <= last:
                yield tuple(xs[: m - 1]) + (q_prev // q_cur,)
            continue
        j += 1
        qs[j] = q_cur
        xs[j - 1] = q_prev // q_cur
        his[j - 1] = min(caps[j - 1], (ceil[j + 1] + q_prev) // q_cur)


def _triangulations(tri: list[list[tuple[int, ...]]], n: int) -> Iterator[tuple[int, ...]]:
    """Corner counts (c_0,...,c_n) of every triangulation of v_0 ... v_n.

    The side v_0 v_n lies in exactly one triangle v_0 v_j v_n, which splits
    the rest into triangulations of v_0 ... v_j (tri[j]) and v_j ... v_n
    (tri[n - j]); the root triangle adds a corner at v_0, v_j and v_n.
    """
    for j in range(1, n):
        for left in tri[j]:
            head = (left[0] + 1,) + left[1:-1]
            apex = left[-1] + 1
            for right in tri[n - j]:
                yield head + (apex + right[0],) + right[1:-1] + (right[-1] + 1,)


def zero_chains(m: int) -> tuple[KChain, ...]:
    """All zero chains of length m, lexicographically sorted.

    Empty for m = 1 (no zero continued fraction has length one). The chains
    are the quiddity sequences (c_1,...,c_m) of the Catalan(m - 1)
    triangulations of the polygon v_0 ... v_m, built bottom-up by the
    root-triangle recursion; every one is still checked by
    KChain.from_coeffs. All of them are held in memory, so lengths whose
    Catalan(m - 1) exceeds MAX_ZERO_CHAINS raise ResourceLimitError before
    anything is built.
    """
    if m < 1:
        raise DomainError("chain length must be >= 1")
    if m == 1:
        return ()
    count = 1
    for i in range(1, m):
        # count = Catalan(i), stopped at the bound so that huge m costs nothing
        count = count * 2 * (2 * i - 1) // (i + 1)
        if count > MAX_ZERO_CHAINS:
            raise ResourceLimitError(
                f"length {m} has Catalan({m - 1}) > {MAX_ZERO_CHAINS} zero chains,"
                " too many to hold in memory"
            )
    # tri[n] holds the corner counts of every triangulation of v_0 ... v_n
    tri: list[list[tuple[int, ...]]] = [[], [(0, 0)]]
    for n in range(2, m):
        tri.append(list(_triangulations(tri, n)))
    chains = [KChain.from_coeffs(t[1:]) for t in _triangulations(tri, m)]
    del tri
    chains.sort(key=attrgetter("k"))
    return tuple(chains)


def admissible_chains(a: CoeffChain | Sequence[int]) -> tuple[KChain, ...]:
    """The zero chains of length len(a) capped componentwise by the a-chain.

    The caps are applied during the search rather than by post-filtering.
    No entry of a length-m zero chain exceeds m - 1, the number of triangles
    of its triangulation, so larger a-entries are capped at m - 1.
    """
    a = tuple(a)
    if any(ai < 2 for ai in a):
        raise DomainError("a-chain entries must all be >= 2")
    m = len(a)
    if m == 1:
        return ()
    caps = tuple(min(ai, m - 1) for ai in a)
    return tuple(KChain.from_coeffs(k) for k in _search(caps))
