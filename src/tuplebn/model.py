"""Ordered discrete Bayesian networks: representation, validation, exact joints,
random instance generation, and the JSON file format, whose layout every
JSON file the package writes or reads shares (``_write_json``, ``_read_json``).
Every public number is read by one rule, ``_at_least`` for an integer range and
``_real_in`` for a real one, so a bad value raises ValueError naming it.

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
import re
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
_BOOLS = frozenset((bool, np.bool_))


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
            self.cards = _indices(cards, "cards")
            self.delta = _index(delta, "delta")
            self.parents = tuple(
                tuple(sorted(_indices(ps, "parents"))) for ps in _iterate(parents, "parents", "a list of parent lists")
            )
            self.cpts = tuple(_cpt(t, j) for j, t in enumerate(_iterate(cpts, "cpts", "a list of tables"), start=1))
        except ValueError as exc:
            raise InvalidDagError([Violation(None, "malformed field", str(exc))]) from None
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
        self.cards = _indices(cards, "cards")
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
    """Exact joint: ``_factor_product`` of the network's CPTs, the product
    ``oracle.is_markov_relative`` also checks a joint against. Guarded by
    ``JOINT_CAPACITY`` on the number of dense entries.
    """
    total = math.prod(dag.cards)
    if total > JOINT_CAPACITY:
        raise CapacityError(f"dense joint needs {total} entries, above the capacity guard {JOINT_CAPACITY}")
    return JointTable(dag.cards, _factor_product(dag.cards, dag.parents, dag.cpts))


def _factor_product(cards, parents, tables) -> np.ndarray:
    """Ones over ``cards`` times each node's (parent configurations, d_j) table on its (*parents, j) axes."""
    probs = np.ones(cards, dtype=np.float64)
    for j, table in enumerate(tables, start=1):
        axes = (*parents[j - 1], j)
        # a CPT is row-major over its parents in increasing order, then j,
        # so it reshapes straight onto those axes of the joint
        shape = [c if a in axes else 1 for a, c in enumerate(cards, start=1)]
        probs *= table.reshape(shape)
    return probs


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
    n, delta = _at_least(n, "n", 1), _at_least(delta, "delta", 0)
    alpha, floor = _real_in(alpha, "alpha"), _real(floor, "floor")
    if isinstance(cards, (int, np.integer)):
        cards = (cards,) * n
    cards = _indices(cards, "cards")
    if len(cards) != n or any(c < 1 for c in cards):
        raise ValueError(f"cards must be {n} integers >= 1, got {cards}")
    if not (floor >= 0 and floor * max(cards) < 1):
        raise ValueError(f"floor {floor} incompatible with cardinalities {cards}")

    rng = np.random.default_rng(_at_least(seed, "seed", 0))
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
    """The one integer rule, which positions follow too: an int or a numpy
    integer passes; a bool, a float (even ``2.0``) or a string raises
    ``error`` naming ``name`` rather than being read as a number."""
    if type(value) not in _BOOLS:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name}: expected an integer, got {value!r}")


def _at_least(value, name: str, low: int) -> int:
    """``value`` read by ``_index``; below ``low``, ValueError naming ``name``."""
    value = _index(value, name)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _iterate(values, name: str, what: str, error=ValueError):
    """``iter(values)``; a non-iterable raises ``error`` naming ``name``."""
    try:
        return iter(values)
    except TypeError:
        raise error(f"{name}: expected {what}, got {values!r}") from None


def _indices(values, name: str, error=ValueError) -> tuple[int, ...]:
    """A list of integers, each read by ``_index``."""
    return tuple(_index(v, name, error) for v in _iterate(values, name, "a list of integers", error))


def _real(value, name: str) -> float:
    """``value`` as a float if it is an int, a float or a numpy number; a bool
    or a string raises ValueError naming ``name``. A NaN passes."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    return float(value)


def _real_in(value, name: str, high: float = math.inf, zero: bool = False) -> float:
    """``value`` read by ``_real`` if it is above 0 (or at 0 when ``zero``)
    and below ``high``; anything else, a NaN too, raises ValueError naming ``name``."""
    value = _real(value, name)
    if not (value >= 0 if zero else value > 0) or not value < high:
        low = ">=" if zero else ">"
        rule = f"finite and {low} 0" if high == math.inf else f"in {'[' if zero else '('}0,{high})"
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value


def _cpt(table, node: int) -> np.ndarray:
    """``table`` as a read-only float64 matrix, a flat table being one row;
    anything but a rectangular table of int or float numbers (a bool, a
    string, a null, a ragged row) raises ValueError naming ``cpts``."""
    try:
        a = np.asarray(table)
        # numpy reads a bool among numbers as 0 or 1, so a list is searched for one
        if a.dtype.kind not in "iuf" or not isinstance(table, np.ndarray) and any(
            type(v) in _BOOLS for v in np.asarray(table, dtype=object).flat
        ):
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError(f"cpts: node {node} is not a rectangular table of numbers") from None
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    a.flags.writeable = False
    return a


def _require_object(data, what: str) -> None:
    """A ValueError unless ``data`` is the mapping a JSON object parses to."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must hold a JSON object, got {type(data).__name__}")


_DAG_FIELDS = ("n", "cards", "delta", "parents", "cpts")


def dag_from_dict(data: dict) -> DiscreteDag:
    """Inverse of dag_to_dict. A non-object or a missing field raises
    ValueError; ``DiscreteDag`` checks the fields as given and raises
    InvalidDagError naming a malformed one or listing every violation."""
    _require_object(data, "a DAG file")
    missing = set(_DAG_FIELDS) - set(data)
    if missing:
        raise ValueError(f"DAG file missing fields: {sorted(missing)}")
    return DiscreteDag(**{key: data[key] for key in _DAG_FIELDS})


def _json_pieces(data):
    """The one JSON layout of ``data``, ``json.dumps(data, indent=2)`` and a
    final newline byte for byte, as an iterator of str pieces. Tuples are
    written as lists.

    ``data`` is encoded here, before the iterator is returned, into compact
    ASCII text (``_compact``), so a value json cannot encode raises its
    TypeError or ValueError before anything is written. That text is held
    whole (0.22 MB of the 1.0 MB shatter witness at n=2048, k=3), and
    ``_indented`` lays it out a ``_LAYOUT_BLOCK`` at a time, with under 1 MiB
    of temporaries for the witness.
    """
    return _indented(_compact(data))


_COMPACT = json.JSONEncoder(separators=(",", ":"))  # the C encoder, built once
_ENCODE_LEVELS = 3  # levels of lists and objects that may be encoded apart from their members
_ENCODE_SLICE = 256  # members of a larger list or object encoded a call


def _compact(data) -> bytes:
    """``json.dumps(data, separators=(",", ":"))`` as bytes, from one C
    encoder call per small piece.

    The encoder holds a str for each token of its text until it joins them,
    about 3 MiB for the witness in one call. So a list, tuple or dict of
    more than ``_ENCODE_SLICE`` members is encoded that many members a
    call, and one that holds a list or object is, on the top
    ``_ENCODE_LEVELS`` levels, encoded a member at a time; only the pieces'
    bytes are held. Anything else is one call, so a cycle is met within
    one call, which raises json's ValueError for it.
    """
    pieces = []

    def encode(value, levels):
        is_dict = isinstance(value, dict)
        inner = value.values() if is_dict else value if isinstance(value, (list, tuple)) else ()
        nested = levels and any(isinstance(v, (list, tuple, dict)) for v in inner)
        if len(inner) <= _ENCODE_SLICE and not nested:
            pieces.append(_COMPACT.encode(value).encode())
            return
        members = list(value.items()) if is_dict else value
        pieces.append(b"{" if is_dict else b"[")
        if len(members) > _ENCODE_SLICE:
            for start in range(0, len(members), _ENCODE_SLICE):
                part = members[start : start + _ENCODE_SLICE]
                pieces.append(b"," * bool(start) + _COMPACT.encode(dict(part) if is_dict else part)[1:-1].encode())
        else:
            for i, member in enumerate(members):
                if i:
                    pieces.append(b",")
                if is_dict:
                    key, member = member
                    pieces.append(_COMPACT.encode({key: 0})[1:-2].encode())  # the key's text: {key: 0} less "{" and "0}"
                encode(member, levels - 1)
        pieces.append(b"}" if is_dict else b"]")

    encode(data, _ENCODE_LEVELS)
    return b"".join(pieces)


def _write_json(data, path) -> None:
    """``data`` to ``path`` in the one JSON layout; a value json cannot
    encode raises before the file is opened, so an old file keeps its bytes."""
    pieces = _json_pieces(data)
    with open(path, "w") as f:
        f.writelines(pieces)


_LAYOUT_BLOCK = 1 << 14  # compact text bytes laid out at a time
_OPEN, _CLOSE, _COLON, _QUOTE = 1, 2, 4, 5
# the class of each byte of compact JSON text: 1 for [ and {, 2 for ] and },
# 3 for a comma, 4 for a colon, 5 for a quote and 0 for any other byte
_JSON_CLASS = np.zeros(256, dtype=np.uint8)
_JSON_CLASS[np.frombuffer(b'[{]},:"', dtype=np.uint8)] = (1, 1, 2, 2, 3, 4, 5)
_JSON_STEP = np.array([0, 1, -1, 0, 0, 0], dtype=np.int32)  # depth change per class
_ESCAPED = re.compile(rb'\\[\\"]')


def _indented(text: bytes):
    """The compact ASCII JSON ``text`` laid out as ``json.dumps(indent=2)``
    lays it out, then a newline, as str pieces of about ``_LAYOUT_BLOCK``
    bytes of ``text`` each.

    A structural byte outside every string (an even number of unescaped
    quotes before it) takes a break: a newline and two spaces per level of
    depth after an opening bracket and a comma and before a closing
    bracket, one space after a colon. An empty ``[]`` or ``{}`` takes none.
    The depth after each structural byte is a running sum over them.
    """
    # with each \\ and \" blanked, every quote left opens or closes a string
    scan = _ESCAPED.sub(b"__", text) if b"\\" in text else text
    raw = np.frombuffer(text, dtype=np.uint8)
    classes = _JSON_CLASS[np.frombuffer(scan, dtype=np.uint8)]
    size, start, depth, in_string = len(text), 0, 0, False
    while start < size:
        # no break falls on a cut: the byte before it is none of [{,: and
        # the byte at it neither ] nor }
        stop = min(start + _LAYOUT_BLOCK, size)
        while stop < size and (scan[stop - 1] in b"[{,:" or scan[stop] in b"]}"):
            stop += 1
        block = classes[start:stop]
        at = np.flatnonzero(block)
        kind = block[at]
        quote = kind == _QUOTE
        if in_string or quote.any():
            inside = np.logical_xor.accumulate(quote) ^ in_string
            if inside.size:
                in_string = bool(inside[-1])
            keep = ~(quote | inside)
            at, kind = at[keep], kind[keep]
        level = np.cumsum(_JSON_STEP[kind], dtype=np.int32)
        level += depth
        if level.size:
            depth = int(level[-1])
        opens = np.flatnonzero(kind == _OPEN)
        empty = opens[block[at[opens] + 1] == _CLOSE]  # its close is the next token
        brk = np.ones(kind.size, dtype=bool)
        brk[empty] = brk[empty + 1] = False
        at, kind, level = at[brk], kind[brk], level[brk]
        colon = kind == _COLON
        where = at + (kind != _CLOSE)  # a break goes after its byte, or before a close
        # the output is runs of text, newlines and spaces: a run of text
        # bytes, marked 0, then each break's newline and spaces, in turn
        counts = np.empty(3 * where.size + 1, dtype=np.intp)
        counts[0::3] = np.diff(where, prepend=0, append=stop - start)
        counts[1::3] = ~colon
        counts[2::3] = np.where(colon, 1, 2 * level)
        fill = np.zeros(counts.size, dtype=np.uint8)
        fill[1::3], fill[2::3] = ord("\n"), ord(" ")
        out = np.repeat(fill, counts)
        out[out == 0] = raw[start:stop]  # JSON text holds no 0 byte
        yield out.tobytes().decode("ascii")
        start = stop
    yield "\n"


def _read_json(path):
    """The document in the JSON file ``path``; a file that is not JSON text
    raises ValueError naming it."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"JSON file {path}: {exc}") from None


def save_dag(dag: DiscreteDag, path) -> None:
    """Write the JSON representation; floats round-trip bit-exactly."""
    _write_json(dag_to_dict(dag), path)


def load_dag(path) -> DiscreteDag:
    """Read a DAG file; an invalid network raises InvalidDagError."""
    return dag_from_dict(_read_json(path))
