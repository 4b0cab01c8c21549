"""Structure recovery for ordering-consistent DAGs of bounded in-degree.

For each node j the algorithm enumerates candidate conditioning sets K of
size m = min(j-1, delta) over the predecessors, in lexicographic order, and
accepts the first K that renders j independent of every disjoint predecessor
set L with 1 <= |L| <= m. The accepted K is then shrunk greedily: an element
is dropped whenever the reduced set still passes the full battery. Every
independence query touches at most 1 + 2m <= 2*delta + 1 positions, which is
exactly the tuple budget the providers enforce.

A battery tries the sizes of L in increasing order. Within one size it
tries first the L's that made an earlier battery of the same node fail,
most recent first, since those are the likeliest to fail again, and then
the rest in lexicographic order. The trace records only each battery's
outcome, the AND of its decisions, so the skeleton, the trace and the
largest tuple read are those of the lexicographic order; only the number
of decisions, and of tables read, changes.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from typing import Protocol

import numpy as np

from .model import DiscreteDag, JointTable, _at_least, _real_in
from .oracle import EXACT_TOL, ExactMarginalProvider, _statistic

__all__ = [
    "AttachResult",
    "CiDecider",
    "ModelViolationError",
    "NodeTrace",
    "ProviderCiDecider",
    "RecoveryTrace",
    "Skeleton",
    "attach_cpts",
    "empirical_ci_decider",
    "exact_ci_decider",
    "recover_structure",
]


class ModelViolationError(RuntimeError):
    """No conditioning set of the allowed size screens off a node.

    Either the data-generating structure has in-degree above the assumed
    bound, or an empirical decider is inconsistent at this sample size.
    """

    def __init__(self, node: int, detail: str = ""):
        self.node = node
        msg = f"no admissible parent set of the allowed size exists for node {node}"
        super().__init__(msg + (f": {detail}" if detail else ""))


class CiDecider(Protocol):
    """decide(X, L, K) -> True iff X is judged independent of L given K."""

    def decide(self, X, L, K) -> bool: ...


class ProviderCiDecider:
    """Threshold decider over a marginal provider.

    Judges dependence via the cross-multiplied statistic; ``threshold`` is
    both the dependence cutoff and the context-mass skip level, so it must
    be below 1: no context has more mass, and at 1 every context would be
    skipped and every decision read independent. Every query stays within
    the provider's tuple budget. Decisions are not cached: a search seldom
    repeats one, and the provider caches the tables behind it.
    """

    def __init__(self, provider, threshold: float):
        threshold = _real_in(threshold, "threshold")
        if threshold >= 1:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        self.provider = provider
        self.threshold = threshold

    def decide(self, X, L, K) -> bool:
        # the threshold was checked when the decider was made
        return _statistic(self.provider, X, L, K, self.threshold) <= self.threshold


# the empirical threshold 4*epsilon must stay below 1 (see ProviderCiDecider)
_EPSILON_LIMIT = 0.25


def _tuple_budget(delta: int) -> int:
    """2*delta + 1: the most positions an independence query at in-degree
    bound delta reads."""
    return 2 * delta + 1


def _usable_tuple_size(delta: int, n: int) -> int:
    """The tuple budget capped at n: the size of the tuples counted to
    recover n variables at in-degree bound delta."""
    return min(_tuple_budget(delta), n)


def exact_ci_decider(joint: JointTable, delta: int) -> ProviderCiDecider:
    """Decider backed by exact marginals, budgeted to (2*delta + 1)-tuples,
    with ``EXACT_TOL`` as its threshold."""
    return ProviderCiDecider(ExactMarginalProvider(joint, _tuple_budget(delta)), EXACT_TOL)


def empirical_ci_decider(provider, epsilon: float) -> ProviderCiDecider:
    """Decider applying the ``_empirical_threshold`` to estimated marginals.
    Contexts whose empirical mass is at or below it are skipped: they carry
    no reliable signal."""
    return ProviderCiDecider(provider, _empirical_threshold(epsilon))


def _empirical_threshold(epsilon: float) -> float:
    """4*epsilon, the worst-case first-order propagation of a uniform
    frequency error epsilon through the dependence statistic. Epsilon must be
    finite and below 0.25, where the threshold reaches 1 and every context
    would be skipped; the CLI calls this before it reads any sample."""
    epsilon = _real_in(epsilon, "epsilon")
    if epsilon >= _EPSILON_LIMIT:
        raise ValueError(
            f"epsilon must be in (0, {_EPSILON_LIMIT}), so that the threshold 4*epsilon is below 1, got {epsilon}"
        )
    return 4.0 * epsilon


@dataclass(frozen=True)
class Skeleton:
    """Parents-only structure: the output of recovery before CPTs attach."""

    n: int
    delta: int
    parents: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RemovalStep:
    removed: int
    kept: bool


@dataclass
class NodeTrace:
    node: int
    m: int
    tested: list[tuple[int, ...]] = field(default_factory=list)
    accepted: tuple[int, ...] | None = None
    removals: list[RemovalStep] = field(default_factory=list)
    parents: tuple[int, ...] = ()


@dataclass
class RecoveryTrace:
    nodes: list[NodeTrace] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _passes_battery(decider: CiDecider, j: int, cond: tuple[int, ...], m: int, failed: list) -> bool:
    """All (j independent-of L given cond) for disjoint predecessor L, |L| in 1..m.

    The order is the module docstring's: by size, and within one size the
    L's of ``failed`` first. An L that fails moves to the front of ``failed``.
    """
    rest = tuple(p for p in range(1, j) if p not in cond)
    for size in range(1, m + 1):
        first = [L for L in failed if len(L) == size and not any(p in cond for p in L)]
        tried = set(first)
        for L in itertools.chain(first, (L for L in itertools.combinations(rest, size) if L not in tried)):
            if not decider.decide((j,), L, cond):
                if L in tried:
                    failed.remove(L)
                failed.insert(0, L)
                return False
    return True


def _minimize(decider: CiDecider, j: int, accepted: tuple[int, ...], m: int, failed: list):
    current = list(accepted)
    steps: list[RemovalStep] = []
    changed = True
    while changed:
        changed = False
        for c in sorted(current):
            reduced = tuple(p for p in current if p != c)
            kept = _passes_battery(decider, j, reduced, m, failed)
            steps.append(RemovalStep(c, kept))
            if kept:
                current = list(reduced)
                changed = True
    return tuple(sorted(current)), steps


def recover_structure(decider: CiDecider, n: int, delta: int) -> tuple[Skeleton, RecoveryTrace]:
    """Find an ordering-consistent parent structure of in-degree <= delta.

    With a sound decider on a distribution that factorizes over some graph of
    in-degree <= delta, the result is Markov relative to that distribution
    (not necessarily the generating graph). Raises ModelViolationError when
    no candidate set passes for some node.
    """
    n, delta = _at_least(n, "n", 1), _at_least(delta, "delta", 0)
    trace = RecoveryTrace()
    parents: list[tuple[int, ...]] = []
    for j in range(1, n + 1):
        m = min(j - 1, delta)
        node_trace = NodeTrace(node=j, m=m)
        failed: list[tuple[int, ...]] = []  # the L's that failed a battery of j, most recent first
        accepted = None
        for K in itertools.combinations(range(1, j), m):
            node_trace.tested.append(K)
            if _passes_battery(decider, j, K, m, failed):
                accepted = K
                break
        if accepted is None:
            trace.nodes.append(node_trace)
            raise ModelViolationError(j, f"all {len(node_trace.tested)} candidate sets of size {m} failed")
        node_trace.accepted = accepted
        final, steps = _minimize(decider, j, accepted, m, failed)
        node_trace.removals = steps
        node_trace.parents = final
        trace.nodes.append(node_trace)
        parents.append(final)
    return Skeleton(n, delta, tuple(parents)), trace


@dataclass(frozen=True)
class AttachResult:
    dag: DiscreteDag
    uniform_rows: tuple[tuple[int, int], ...]  # (node, parent config index) pairs


def attach_cpts(skeleton: Skeleton, provider) -> AttachResult:
    """Fill in CPTs as quotients of tuple marginals.

    cpt_j(x | p) = f(x, p) / f(p); parent configurations of zero mass get
    the uniform row and are flagged.
    """
    cards = provider.cards
    if skeleton.n != len(cards):
        raise ValueError(f"skeleton has n={skeleton.n} but the provider has {len(cards)} variables")
    flagged: list[tuple[int, int]] = []
    cpts = []
    for j in range(1, skeleton.n + 1):
        ps = skeleton.parents[j - 1]
        d_j = cards[j - 1]
        # j exceeds every parent, so it is the last axis of the union table
        joint_rows = provider.table((*ps, j)).reshape(-1, d_j)
        mass = provider.table(ps).reshape(-1) if ps else np.ones(1)
        live = mass > 0
        rows = np.full(joint_rows.shape, 1.0 / d_j)
        np.divide(joint_rows, mass[:, None], out=rows, where=live[:, None])
        np.minimum(rows, 1.0, out=rows)  # rounding can put f(x, p) just above f(p)
        flagged.extend((j, int(cfg)) for cfg in np.flatnonzero(~live))
        cpts.append(rows)
    dag = DiscreteDag(skeleton.n, cards, skeleton.delta, skeleton.parents, cpts)
    return AttachResult(dag, tuple(flagged))
