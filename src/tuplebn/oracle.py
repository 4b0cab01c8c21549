"""Exact probabilistic queries on a dense joint table.

Every marginal goes through :func:`marginal`, which uses the known
variable order: a query whose last position is m never needs positions
m+1..n, so the joint keeps, per m, the sum over them (its prefix over
1..m; see ``JointTable.prefix``). The queried positions are then kept and
the other positions of the prefix folded out. The result is bit for bit
the one numpy's ``joint.array.sum`` over the unqueried axes gives, so the
recovered tables do not change with the reduction.

Dependence is measured in cross-multiplied form,
``|P(x,y,z) * P(z) - P(x,z) * P(y,z)|``, which avoids dividing by small
conditioning masses; contexts with ``P(z)`` at or below a skip level are
left out. ``recovery.ProviderCiDecider`` turns the statistic into the
independence decision, for exact and empirical marginals alike.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import JointTable, DiscreteDag, _index

__all__ = [
    "EXACT_TOL",
    "AccessLog",
    "ExactMarginalProvider",
    "TupleSizeError",
    "dependence_statistic",
    "is_markov_relative",
    "marginal",
]

EXACT_TOL = 1e-9


class TupleSizeError(ValueError):
    """A marginal query exceeded the provider's tuple-size budget."""

    def __init__(self, size, limit):
        self.size = size
        self.limit = limit
        super().__init__(f"marginal query of size {size} exceeds the budget of {limit}")


@dataclass
class AccessLog:
    """Running record of the marginal queries a provider has answered."""

    max_size: int = 0
    queries: int = 0

    def record(self, size: int) -> None:
        self.queries += 1
        if size > self.max_size:
            self.max_size = size


def _integer_positions(positions) -> tuple[int, ...]:
    """``positions`` as ints; numpy integers pass, and a float raises a
    ValueError naming the positions rather than being truncated."""
    try:
        return tuple(map(operator.index, positions))
    except TypeError:
        raise ValueError(f"positions must be integers, got {positions!r}") from None


def _check_positions(positions, n) -> tuple[int, ...]:
    pos = _integer_positions(positions)
    if not pos:
        raise ValueError("positions must be nonempty")
    if any(b <= a for a, b in zip(pos, pos[1:])):
        raise ValueError(f"positions must be sorted and distinct: {pos}")
    if pos[0] < 1 or pos[-1] > n:
        raise ValueError(f"position out of range 1..{n}: {pos}")
    return pos


def marginal(joint: JointTable, positions) -> np.ndarray:
    """Read-only flat marginal over the sorted ``positions``: the joint
    summed over every other coordinate, in row-major order.

    The positions after m, the last queried position of cardinality above
    1, are summed by the joint's cached prefix over 1..m. The unqueried
    positions before m are moved to the front of that prefix, in their
    order, and folded out row by row. Positions of cardinality 1 take no
    part: with them m could reach n, and a fold over the whole joint adds
    in another order than the prefix sum.
    """
    pos = _check_positions(positions, joint.n)
    m = max((p for p in pos if joint.cards[p - 1] > 1), default=0)
    summed = [a for a in range(m) if a + 1 not in pos and joint.cards[a] > 1]
    flat = joint.prefix(m)
    if summed:
        kept = [a for a in range(m) if a not in summed]
        moved = flat.reshape(joint.cards[:m]).transpose(summed + kept)
        kept_size = math.prod(joint.cards[p - 1] for p in pos)
        flat = np.ascontiguousarray(moved).reshape(-1, kept_size).sum(axis=0)
        flat.flags.writeable = False
    return flat


def _disjoint_sorted(*groups):
    seen = set()
    out = []
    for g in groups:
        t = tuple(sorted(_integer_positions(g)))
        if seen & set(t):
            raise ValueError(f"index sets must be pairwise disjoint: {groups}")
        seen |= set(t)
        out.append(t)
    return out


def dependence_statistic(provider, X, L, K, skip_below: float) -> float:
    """Max of |f(x,l,k) f(k) - f(x,k) f(l,k)| over realizations, skipping
    contexts with f(k) <= skip_below. Works with any marginal provider."""
    X, L, K = _disjoint_sorted(X, L, K)
    if not X or not L:
        return 0.0
    union = tuple(sorted(X + L + K))
    dims = tuple(provider.cards[p - 1] for p in union)
    table = provider.table(union).reshape(dims)
    ax = {p: i for i, p in enumerate(union)}
    x_axes = tuple(ax[p] for p in X)
    l_axes = tuple(ax[p] for p in L)
    f_k = table.sum(axis=x_axes + l_axes, keepdims=True)
    f_xk = table.sum(axis=l_axes, keepdims=True)
    f_lk = table.sum(axis=x_axes, keepdims=True)
    stat = np.abs(table * f_k - f_xk * f_lk)
    return float(np.max(stat, where=f_k > skip_below, initial=0.0))


def is_markov_relative(joint: JointTable, dag: DiscreteDag, tol: float = EXACT_TOL) -> bool:
    """True iff the joint factorizes over the DAG's parent sets.

    The per-node conditionals are computed from the joint itself. A parent
    configuration of zero marginal mass gets a zero conditional: every joint
    entry under it is a term of that zero sum of non-negative values, so it
    is exactly 0 too and the two sides agree there.
    """
    if dag.cards != joint.cards:
        raise ValueError(f"shape mismatch: dag cards {dag.cards} vs joint cards {joint.cards}")
    full = joint.array
    product = np.ones_like(full)
    for j in range(1, joint.n + 1):
        union = (*dag.parents[j - 1], j)
        shape = [c if a in union else 1 for a, c in enumerate(joint.cards, start=1)]
        m_union = marginal(joint, union).reshape(shape)
        m_par = m_union.sum(axis=j - 1, keepdims=True)
        product *= np.divide(m_union, m_par, out=np.zeros_like(m_union), where=m_par > 0)
    np.subtract(full, product, out=product)
    np.abs(product, out=product)
    return bool(product.max() <= tol)


class _ProviderBase:
    """Shared query plumbing: budget enforcement, logging, dense sub-tables."""

    cards: tuple[int, ...]
    max_tuple_size: int

    def __init__(self):
        self.access_log = AccessLog()
        self._cache: dict[tuple[int, ...], np.ndarray] = {}

    @property
    def n(self) -> int:
        return len(self.cards)

    def table(self, positions) -> np.ndarray:
        """Dense marginal probabilities over a sorted position set."""
        pos = _check_positions(positions, self.n)
        if len(pos) > self.max_tuple_size:
            raise TupleSizeError(len(pos), self.max_tuple_size)
        self.access_log.record(len(pos))
        hit = self._cache.get(pos)
        if hit is None:
            hit = self._compute(pos)
            hit.flags.writeable = False
            self._cache[pos] = hit
        return hit

    def _compute(self, pos) -> np.ndarray:
        raise NotImplementedError


class ExactMarginalProvider(_ProviderBase):
    """Answers tuple-marginal queries from a dense joint, up to a size budget.

    The budget is the enforcement mechanism for recovery's access discipline:
    oversized queries raise :class:`TupleSizeError`.
    """

    def __init__(self, joint: JointTable, max_tuple_size: int):
        super().__init__()
        self.max_tuple_size = _index(max_tuple_size, "max_tuple_size")
        if self.max_tuple_size < 1:
            raise ValueError(f"max_tuple_size must be >= 1, got {max_tuple_size}")
        self._joint = joint
        self.cards = joint.cards

    def _compute(self, pos) -> np.ndarray:
        return marginal(self._joint, pos)
