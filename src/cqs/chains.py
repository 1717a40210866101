"""Zero continued fractions and their admissible subsets.

A chain (k_2,...,k_{e-1}) of positive integers is a zero chain when its
auxiliary sequence q_1 = 0, q_2 = 1, q_{i+1} = k_i*q_i - q_{i-1} stays
positive in the interior and lands exactly on q_e = 0. This integer test is
the primary admissibility route; the rational continued-fraction evaluator
stays available as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import DomainError
from .lattice import CoeffChain


def q_sequence(k: Sequence[int]) -> tuple[int, ...]:
    """The sequence (q_1,...,q_e) attached to a chain, without any filtering."""
    if not k:
        raise DomainError("cannot build a q-sequence for an empty chain")
    qs = [0, 1]
    for c in k:
        qs.append(c * qs[-1] - qs[-2])
    return tuple(qs)


def _zero_chain_q_sequence(k: tuple[int, ...]) -> tuple[int, ...] | None:
    """The q-sequence of k if k is a zero chain, else None."""
    if not k or any(c < 1 for c in k):
        raise DomainError("zero-chain test needs a nonempty chain with entries >= 1")
    qs = q_sequence(k)
    return qs if all(qi > 0 for qi in qs[1:-1]) and qs[-1] == 0 else None


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
        k = tuple(int(c) for c in k)
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


def _search(caps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Depth-first search for zero chains with per-slot caps, in lex order.

    State before slot j is (q_{j-1}, q_j); positivity kills a branch as soon
    as an interior q drops to 0 or below, and the last coefficient is forced
    by the exact division q_e = 0. Read from the right end, the q-sequence
    is ratio-dominated by the recursion run with maximal coefficients, which
    bounds how large an intermediate q may still return to zero. The search
    keeps an explicit stack, so its depth is not limited by the interpreter's
    recursion limit.
    """
    m = len(caps)
    if m < 2:
        return

    # ceiling[t] bounds q at distance t from the right end
    ceiling = [0, 1]
    for t in range(1, m - 1):
        ceiling.append(caps[m - t] * ceiling[t] - ceiling[t - 1])

    # slot j (1-based) holds xs[j-1], tried up to his[j-1]; qs[j-1], qs[j] is
    # the state before slot j
    xs = [0] * m
    his = [0] * m
    qs = [0, 1] + [0] * (m - 1)
    last = caps[m - 1]
    # positivity: x*q_j - q_{j-1} >= 1; ceiling: x*q_j - q_{j-1} bounded
    his[0] = min(caps[0], ceiling[m - 1])
    j = 1
    while j:
        x = xs[j - 1] + 1
        if x > his[j - 1]:
            j -= 1
            continue
        xs[j - 1] = x
        q_prev, q_cur = qs[j], x * qs[j] - qs[j - 1]
        if j == m - 1:
            # q_{m+1} = y*q_m - q_{m-1} = 0 forces the last coefficient y
            if q_prev % q_cur == 0 and 1 <= q_prev // q_cur <= last:
                yield tuple(xs[: m - 1]) + (q_prev // q_cur,)
            continue
        j += 1
        qs[j] = q_cur
        xs[j - 1] = q_prev // q_cur
        his[j - 1] = min(caps[j - 1], (ceiling[m - j] + q_prev) // q_cur)


def zero_chains(m: int) -> tuple[KChain, ...]:
    """All zero chains of length m, lexicographically sorted.

    Empty for m = 1 (no zero continued fraction has length one). Coefficients
    of a length-m zero chain never exceed m - 1: every such chain blows down
    to (1,1) and each blow-down lowers the maximum by at most one. That bound
    makes the search finite.
    """
    if m < 1:
        raise DomainError("chain length must be >= 1")
    if m == 1:
        return ()
    caps = (m - 1,) * m
    return tuple(KChain.from_coeffs(k) for k in _search(caps))


def admissible_chains(a: CoeffChain | Sequence[int]) -> tuple[KChain, ...]:
    """The zero chains of length len(a) capped componentwise by the a-chain.

    The caps are applied during the search rather than by post-filtering.
    """
    a = tuple(a)
    if any(ai < 2 for ai in a):
        raise DomainError("a-chain entries must all be >= 2")
    m = len(a)
    if m == 1:
        return ()
    caps = tuple(min(ai, m - 1) for ai in a)
    return tuple(KChain.from_coeffs(k) for k in _search(caps))
