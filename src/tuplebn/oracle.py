"""Exact probabilistic queries on a dense joint table.

Every marginal goes through :func:`marginal`, which uses the known
variable order: a query whose last position is m never needs positions
m+1..n, so the joint keeps, per m, the sum over them (its prefix over
1..m; see ``JointTable.prefix``). The queried positions are then kept and
the other positions of the prefix folded out. The result is bit for bit
the one numpy's ``joint.array.sum`` over the unqueried axes gives, so the
recovered tables do not change with the reduction.

Every fold, of one set in ``marginal`` or of a chunk of the sets of one
m in the experiment's deviation sweep, adds the prefix into the cells of
one index, whose entries for a set are those of ``_fold_index``, so a
set's cells have the same bits either way.

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

from .model import _BOOLS, JointTable, DiscreteDag, _at_least, _factor_product, _real_in

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
    """``positions`` as ints under the rule of ``model._index``: numpy
    integers pass, and a float or a bool raises a ValueError naming the
    positions rather than being truncated or read as 0 or 1. Every query
    reads its positions here, so bools are found by type in one pass."""
    try:
        given = tuple(positions)
        if _BOOLS.isdisjoint(map(type, given)):
            return tuple(map(operator.index, given))
    except TypeError:
        pass
    raise ValueError(f"positions must be integers, got {positions!r}")


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
    positions before m are folded out by ``_scatter_fold``: each cell adds
    its entries one by one, in the order of those positions'
    configurations, without moving the prefix. Positions of cardinality 1
    take no part: with them m could reach n, and a fold over the whole
    joint adds in another order than the prefix sum.
    """
    pos = _check_positions(positions, joint.n)
    m = max((p for p in pos if joint.cards[p - 1] > 1), default=0)
    flat = joint.prefix(m)
    if any(a + 1 not in pos and joint.cards[a] > 1 for a in range(m)):
        flat = _scatter_fold(flat, *_fold_index(joint.cards[:m], [p - 1 for p in pos if p <= m]))
        flat.flags.writeable = False
    return flat


def _fold_index(cards, kept) -> tuple[np.ndarray, int]:
    """The cell of each entry of a prefix, row-major over ``cards``, for
    ``kept``, increasing axes to keep, and the number of cells. The cells
    are row-major over the kept axes; an entry's cell is that of its values
    on them.
    """
    size = math.prod(cards[a] for a in kept)
    cells = np.arange(size, dtype=np.min_scalar_type(size))  # a byte per entry for up to 255 cells
    # byte strides of a view of ``cells`` that steps over the cells along
    # the kept axes and stands still along the others
    strides, step = [0] * len(cards), cells.itemsize
    for a in reversed(kept):
        strides[a] = step
        step *= cards[a]
    h = len(cards) // 2  # an entry's cell is the sum of those of its two halves
    return np.add.outer(_cells(cells, cards[:h], strides[:h]), _cells(cells, cards[h:], strides[h:])).reshape(-1), size


def _scatter_fold(flat, index, cells) -> np.ndarray:
    """The 1-d ``flat`` summed into ``cells`` cells by ``index``: a
    ``_fold_index`` of one set, or a (sets, entries) index of a chunk of
    sets (``experiment._chunk_index``) or some of its columns, with
    ``flat`` repeated once per set.

    ``np.add.at`` adds each entry to its cell in the order the entries lie,
    which for each cell is the order of numpy's row fold over the other
    axes, so the bits are those of ``joint.array.sum``, and the same as
    folding each set alone.
    """
    out = np.zeros(cells)  # numpy's row fold starts from 0.0 too: a cell of -0.0 sums to 0.0
    np.add.at(out, index.reshape(-1), np.broadcast_to(flat, index.shape).reshape(-1))
    return out


def _cells(cells, cards, strides) -> np.ndarray:
    """The entries of ``cells`` that a view over ``cards`` with byte
    ``strides`` reads, in row-major order."""
    return np.ndarray(cards, cells.dtype, cells, 0, strides).reshape(-1)


def dependence_statistic(provider, X, L, K, skip_below: float) -> float:
    """Max of |f(x,l,k) f(k) - f(x,k) f(l,k)| over realizations, skipping
    contexts with f(k) <= skip_below. Works with any marginal provider.

    A position outside 1..n, or one in two of X, L and K, raises ValueError
    naming the positions, also when X or L is empty and the statistic is
    0.0 without a query. ``skip_below`` must be in [0, 1): at 1 every context is skipped."""
    return _statistic(provider, X, L, K, _real_in(skip_below, "skip_below", 1, zero=True))


def _statistic(provider, X, L, K, skip_below: float) -> float:
    """``dependence_statistic`` for a ``skip_below`` already checked, as a
    decider's threshold is when it is made: X, L and K are read once here.

    The sums and the max are numpy's add and maximum reductions, which
    ``ndarray.sum`` and ``np.max`` call too, so the bits are theirs.
    """
    X, L, K = (tuple(sorted(_integer_positions(g))) for g in (X, L, K))
    if set(X) & set(L) or set(X + L) & set(K):
        raise ValueError(f"index sets must be pairwise disjoint: {(X, L, K)}")
    union = tuple(sorted(X + L + K))
    if not X or not L:
        if union:
            _check_positions(union, len(provider.cards))
        return 0.0
    table = provider.table(union).reshape(tuple(provider.cards[p - 1] for p in union))
    ax = {p: i for i, p in enumerate(union)}
    x_axes = tuple(ax[p] for p in X)
    l_axes = tuple(ax[p] for p in L)
    f_k = np.add.reduce(table, axis=x_axes + l_axes, keepdims=True)
    f_xk = np.add.reduce(table, axis=l_axes, keepdims=True)
    f_lk = np.add.reduce(table, axis=x_axes, keepdims=True)
    stat = table * f_k
    stat -= f_xk * f_lk
    np.abs(stat, out=stat)
    return float(np.maximum.reduce(stat, axis=None, where=f_k > skip_below, initial=0.0))


def is_markov_relative(joint: JointTable, dag: DiscreteDag, tol: float = EXACT_TOL) -> bool:
    """True iff the joint is within ``tol`` of ``model._factor_product``,
    which also builds ``factorized_joint``, of the DAG's conditionals read
    from the joint: each node's ``(*parents, j)`` marginal as a (parent
    configurations, d_j) table, each row divided by its sum. A row of zero
    sum gets a zero conditional: every joint entry under it is a term of
    that zero sum of non-negative values, so it is exactly 0 too.
    """
    tol = _real_in(tol, "tol", zero=True)
    if dag.cards != joint.cards:
        raise ValueError(f"shape mismatch: dag cards {dag.cards} vs joint cards {joint.cards}")
    tables = []
    for j, ps in enumerate(dag.parents, start=1):
        m_union = marginal(joint, (*ps, j)).reshape(-1, joint.cards[j - 1])
        m_par = m_union.sum(axis=1, keepdims=True)
        tables.append(np.divide(m_union, m_par, out=np.zeros_like(m_union), where=m_par > 0))
    product = _factor_product(joint.cards, dag.parents, tables)
    np.subtract(joint.array, product, out=product)
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
        self.max_tuple_size = _at_least(max_tuple_size, "max_tuple_size", 1)
        self._joint = joint
        self.cards = joint.cards

    def _compute(self, pos) -> np.ndarray:
        return marginal(self._joint, pos)
