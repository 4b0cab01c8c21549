"""Ordered discrete Bayesian networks: representation, validation, exact joints,
random instance generation, and the JSON file format.

Nodes are indexed 1..n in the fixed variable ordering. Node j takes integer
values 0..cards[j-1]-1; parent sets are subsets of {1,...,j-1} of size at most
``delta``. Conditional probability tables are stored row-per-parent-configuration,
with parent configurations enumerated in mixed radix over the parents in
increasing node order, most significant first.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CapacityError",
    "DiscreteDag",
    "InvalidDagError",
    "JointTable",
    "Violation",
    "dag_from_dict",
    "dag_to_dict",
    "factorized_joint",
    "load_dag",
    "random_dag",
    "save_dag",
]

JOINT_CAPACITY = 2**24
CPT_ROW_TOL = 1e-12
JOINT_SUM_TOL = 1e-10


class InvalidDagError(ValueError):
    """A DiscreteDag was built with inputs that break its invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid DAG: {lines}")


class CapacityError(ValueError):
    """A dense joint table would exceed ``JOINT_CAPACITY`` entries."""


class DiscreteDag:
    """An ordering-consistent DAG with per-node parent sets and CPTs.

    The constructor normalizes shapes, then checks every structural
    invariant and raises :class:`InvalidDagError` listing each violation,
    so every instance is a valid network.
    """

    def __init__(self, n, cards, delta, parents, cpts):
        try:
            self.n = _index(n, "n")
            self.cards = tuple(_index(c, "cards") for c in cards)
            self.delta = _index(delta, "delta")
            self.parents = tuple(tuple(sorted(_index(p, "parents") for p in ps)) for ps in parents)
        except ValueError as exc:
            raise InvalidDagError([Violation(None, "integers required", str(exc))]) from None
        norm = []
        for t in cpts:
            a = np.ascontiguousarray(np.asarray(t, dtype=np.float64))
            if a.ndim == 1:
                a = a.reshape(1, -1)
            a.flags.writeable = False
            norm.append(a)
        self.cpts = tuple(norm)
        bad = _violations(self)
        if bad:
            raise InvalidDagError(bad)

    def __eq__(self, other):
        if not isinstance(other, DiscreteDag):
            return NotImplemented
        return (
            self.n == other.n
            and self.cards == other.cards
            and self.delta == other.delta
            and self.parents == other.parents
            and len(self.cpts) == len(other.cpts)
            and all(np.array_equal(a, b) for a, b in zip(self.cpts, other.cpts))
        )

    def __repr__(self):
        edges = sum(len(p) for p in self.parents)
        return f"DiscreteDag(n={self.n}, delta={self.delta}, edges={edges})"

    def parent_cards(self, j: int) -> tuple[int, ...]:
        return tuple(self.cards[p - 1] for p in self.parents[j - 1])


class JointTable:
    """Dense joint distribution over all configurations.

    ``probs`` is a flat array over configurations in row-major order,
    i.e. the value of variable 1 is the most significant digit.
    """

    def __init__(self, cards, probs):
        self.cards = tuple(_index(c, "cards") for c in cards)
        arr = np.ascontiguousarray(np.asarray(probs, dtype=np.float64)).reshape(-1)
        expected = math.prod(self.cards)
        if arr.size != expected:
            raise ValueError(f"probs has {arr.size} entries, expected {expected}")
        # written so that a NaN fails each check
        if not np.all(arr >= 0):
            raise ValueError("joint probabilities must be non-negative numbers")
        total = float(arr.sum())
        if not abs(total - 1.0) <= JOINT_SUM_TOL:
            raise ValueError(f"joint probabilities sum to {total!r}, not 1")
        arr.flags.writeable = False
        self.probs = arr
        self._prefix: dict[int, np.ndarray] = {}

    @property
    def n(self) -> int:
        return len(self.cards)

    @property
    def array(self) -> np.ndarray:
        return self.probs.reshape(self.cards)

    def prefix(self, m: int) -> np.ndarray:
        """Flat marginal over positions 1..m, in row-major order.

        Entry i is the sum of the i-th contiguous block of ``probs``, taken
        by the same numpy reduction that sums trailing axes, so it is bit for
        bit what ``array.sum`` gives over positions m+1..n. Computed once per
        m and kept read-only; when positions m+1..n all have cardinality 1 it
        is ``probs`` itself.
        """
        rows = math.prod(self.cards[:m])
        if rows == self.probs.size:
            return self.probs
        hit = self._prefix.get(m)
        if hit is None:
            hit = self.probs.reshape(rows, -1).sum(axis=1)
            hit.flags.writeable = False
            self._prefix[m] = hit
        return hit

    def __eq__(self, other):
        if not isinstance(other, JointTable):
            return NotImplemented
        return self.cards == other.cards and np.array_equal(self.probs, other.probs)

    def __repr__(self):
        return f"JointTable(cards={self.cards})"


@dataclass(frozen=True)
class Violation:
    node: int | None
    rule: str
    observed: str

    def __str__(self):
        where = f"node {self.node}: " if self.node is not None else ""
        return f"{where}{self.rule} ({self.observed})"


def _violations(dag: DiscreteDag) -> list[Violation]:
    """Every structural invariant ``dag`` breaks, in a fixed order."""
    bad: list[Violation] = []
    if dag.n < 1:
        bad.append(Violation(None, "variable count must be >= 1", f"n={dag.n}"))
    if len(dag.cards) != dag.n:
        bad.append(Violation(None, "cards length mismatch", f"{len(dag.cards)} != n={dag.n}"))
    if any(c < 1 for c in dag.cards):
        bad.append(Violation(None, "cardinality must be >= 1", f"cards={dag.cards}"))
    if dag.delta < 0:
        bad.append(Violation(None, "in-degree bound must be >= 0", f"delta={dag.delta}"))
    if len(dag.parents) != dag.n or len(dag.cpts) != dag.n:
        bad.append(
            Violation(
                None,
                "parents/cpts length mismatch",
                f"parents={len(dag.parents)}, cpts={len(dag.cpts)}, n={dag.n}",
            )
        )
        return bad
    if len(dag.cards) != dag.n or any(c < 1 for c in dag.cards):
        return bad  # no CPT shape is defined without a cardinality >= 1 per node

    for j in range(1, dag.n + 1):
        ps = dag.parents[j - 1]
        if len(set(ps)) != len(ps):
            bad.append(Violation(j, "duplicate parent index", f"parents={ps}"))
        n_cfg = 1
        misordered = False
        for p in ps:
            if p < 1 or p >= j:
                bad.append(Violation(j, "parent index >= child", f"parent={p}"))
                misordered = True
            else:
                n_cfg *= dag.cards[p - 1]
        if len(ps) > dag.delta:
            bad.append(Violation(j, "in-degree exceeds bound", f"|parents|={len(ps)} > delta={dag.delta}"))
        if misordered:
            continue  # CPT shape is ill-defined under an ordering violation
        cpt = dag.cpts[j - 1]
        d_j = dag.cards[j - 1]
        if cpt.shape != (n_cfg, d_j):
            bad.append(Violation(j, "cpt shape mismatch", f"{cpt.shape} != ({n_cfg}, {d_j})"))
            continue
        # written so that a NaN fails each check; argmax picks a NaN first
        if not (cpt.min() >= 0 and cpt.max() <= 1):
            bad.append(Violation(j, "probability out of [0,1]", f"min={float(cpt.min())!r}, max={float(cpt.max())!r}"))
        sums = cpt.sum(axis=1)
        if not (abs(sums.min() - 1.0) <= CPT_ROW_TOL and abs(sums.max() - 1.0) <= CPT_ROW_TOL):
            worst = int(np.argmax(np.abs(sums - 1.0)))
            bad.append(Violation(j, "cpt row does not sum to 1", f"row {worst} sums to {float(sums[worst])!r}"))
    return bad


def factorized_joint(dag: DiscreteDag) -> JointTable:
    """Exact joint obtained by multiplying the per-node conditional tables.

    Guarded by ``JOINT_CAPACITY`` on the number of dense entries.
    """
    total = math.prod(dag.cards)
    if total > JOINT_CAPACITY:
        raise CapacityError(
            f"dense joint needs {total} entries, above the capacity guard {JOINT_CAPACITY}"
        )
    probs = np.ones(dag.cards, dtype=np.float64)
    for j in range(1, dag.n + 1):
        axes = (*dag.parents[j - 1], j)
        # a CPT is row-major over its parents in increasing order, then j,
        # so it reshapes straight onto those axes of the joint
        shape = [c if a in axes else 1 for a, c in enumerate(dag.cards, start=1)]
        probs *= dag.cpts[j - 1].reshape(shape)
    return JointTable(dag.cards, probs.reshape(-1))


def random_dag(
    n: int,
    delta: int,
    cards,
    seed,
    alpha: float = 1.0,
    floor: float = 0.01,
) -> DiscreteDag:
    """Random ordering-consistent instance with strictly positive CPTs.

    Each node gets min(j-1, delta) parents chosen uniformly among its
    predecessors. CPT rows are symmetric-Dirichlet draws with
    concentration ``alpha``, mixed with the uniform row so that every entry
    is at least ``floor``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if isinstance(cards, int):
        cards = (cards,) * n
    cards = tuple(_index(c, "cards") for c in cards)
    if len(cards) != n or any(c < 1 for c in cards):
        raise ValueError(f"cards must be {n} integers >= 1, got {cards}")
    if floor < 0 or floor * max(cards) >= 1:
        raise ValueError(f"floor {floor} incompatible with cardinalities {cards}")

    rng = np.random.default_rng(seed)
    parents = []
    cpts = []
    for j in range(1, n + 1):
        size = min(j - 1, delta)
        chosen = rng.choice(j - 1, size=size, replace=False) if size else np.empty(0, int)
        ps = tuple(sorted(int(p) + 1 for p in chosen))
        parents.append(ps)
        d_j = cards[j - 1]
        n_cfg = int(math.prod(cards[p - 1] for p in ps))
        raw = rng.dirichlet(np.full(d_j, alpha), size=n_cfg)
        rows = floor + (1.0 - d_j * floor) * raw
        cpts.append(rows)
    return DiscreteDag(n, cards, delta, parents, cpts)


def dag_to_dict(dag: DiscreteDag) -> dict:
    return {
        "n": dag.n,
        "cards": list(dag.cards),
        "delta": dag.delta,
        "parents": [list(ps) for ps in dag.parents],
        "cpts": [[list(row) for row in cpt] for cpt in dag.cpts],
    }


def _index(value, name: str, error=ValueError) -> int:
    """``operator.index(value)``, the rule positions follow: an int or a numpy
    integer passes; a float or a string raises ``error`` naming ``name``
    rather than being truncated or parsed."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name}: expected an integer, got {value!r}") from None


def _integer(value) -> int:
    """``value`` if it is an integer; a bool, a float or a string raises
    TypeError rather than being truncated or parsed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _real(value) -> float:
    """``value`` as a float if it is a JSON number, an integer or a float;
    a bool or a string raises TypeError rather than being parsed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integers(values) -> tuple[int, ...]:
    return tuple(_integer(v) for v in values)


def _require_object(data, what: str) -> None:
    """A ValueError unless ``data`` is the mapping a JSON object parses to."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must hold a JSON object, got {type(data).__name__}")


def _read_field(data: dict, key: str, convert, what: str):
    """``convert(data[key])``, with a TypeError or ValueError raised as a
    ValueError that names the field of ``what``."""
    try:
        return convert(data[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} field {key!r} is malformed: {exc}") from None


_DAG_FIELDS = {
    "n": _integer,
    "cards": _integers,
    "delta": _integer,
    "parents": lambda v: [_integers(ps) for ps in v],
    "cpts": lambda v: [np.asarray(t, dtype=np.float64) for t in v],
}


def dag_from_dict(data: dict) -> DiscreteDag:
    """Inverse of dag_to_dict. A field of the wrong type raises ValueError
    naming the field; an invalid network raises InvalidDagError."""
    _require_object(data, "a DAG file")
    missing = set(_DAG_FIELDS) - set(data)
    if missing:
        raise ValueError(f"DAG file missing fields: {sorted(missing)}")
    return DiscreteDag(**{key: _read_field(data, key, convert, "DAG") for key, convert in _DAG_FIELDS.items()})


def save_dag(dag: DiscreteDag, path) -> None:
    """Write the JSON representation; floats round-trip bit-exactly."""
    with open(path, "w") as f:
        json.dump(dag_to_dict(dag), f, indent=2)
        f.write("\n")


def load_dag(path) -> DiscreteDag:
    """Read a DAG file; an invalid network raises InvalidDagError."""
    with open(path) as f:
        return dag_from_dict(json.load(f))
