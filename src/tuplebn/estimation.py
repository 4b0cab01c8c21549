"""Sampling, tuple-frequency tables, and the empirical marginal provider.

``tuple_frequencies`` counts every size-k position set over the sample's
distinct rows rather than over all l rows: sampled rows repeat heavily (an
n=12, d=2 sample of 1e5 rows has about 2.2k distinct rows), so the rows are
sorted once and each position set then costs one Horner step and one
weighted ``np.bincount`` over the distinct rows. See ``tuple_frequencies``
for why the weighted sums are exact and for the input where it loses.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .model import DiscreteDag, require_valid
from .oracle import _ProviderBase

# Rows drawn per generator call in ``sample``. Consecutive draws continue
# one stream, so the rows do not depend on this value; it bounds the
# temporaries of a draw independently of l.
_SAMPLE_CHUNK = 65536


class InvalidSamplesError(ValueError):
    """A sample matrix or samples file that cannot hold valid records; the
    message names the bad input."""


class SampleMatrix:
    """l observed records over n ordered discrete variables.

    ``rows`` is a read-only (l, n) array in column-major order, so each
    variable's column is contiguous, with the smallest unsigned dtype that
    holds the largest value of every variable.
    """

    def __init__(self, cards, rows):
        self.cards = tuple(int(c) for c in cards)
        for j, c in enumerate(self.cards, 1):
            if c < 1:
                raise InvalidSamplesError(f"cardinality of x{j} must be >= 1, got {c}")
        arr = np.asarray(rows)
        if not np.issubdtype(arr.dtype, np.integer):
            raise InvalidSamplesError(f"sample values must be integers, got dtype {arr.dtype}")
        if arr.ndim != 2 or arr.shape[1] != len(self.cards):
            raise InvalidSamplesError(f"rows must be (l, {len(self.cards)}), got {arr.shape}")
        # checked before narrowing, where an out-of-range value could wrap into range
        if arr.size and (arr.min() < 0 or np.any(arr >= np.asarray(self.cards))):
            row, j = np.argwhere((arr < 0) | (arr >= np.asarray(self.cards)))[0]
            raise InvalidSamplesError(
                f"sample value {arr[row, j]} of x{j + 1} in row {row + 1} out of range for cardinality {self.cards[j]}"
            )
        arr = np.asfortranarray(arr, dtype=np.min_scalar_type(max(self.cards, default=1) - 1))
        arr.flags.writeable = False
        self.rows = arr

    @property
    def l(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    def __eq__(self, other):
        if not isinstance(other, SampleMatrix):
            return NotImplemented
        return self.cards == other.cards and np.array_equal(self.rows, other.rows)

    def __repr__(self):
        return f"SampleMatrix(l={self.l}, n={self.n})"


def _tuple_codes(rows, cols, dims) -> np.ndarray:
    """Mixed-radix code of each row's values at the nonempty ``cols``
    (0-based) over ``dims``, most significant first.

    Accumulates by Horner's rule in intp: a narrow column multiplied by a
    stride would wrap.
    """
    code = rows[:, cols[0]].astype(np.intp)
    for c, d in zip(cols[1:], dims[1:]):
        code *= d
        code += rows[:, c]
    return code


def _inverse_cdf(out, u, cfg, cum_t) -> None:
    """Add to ``out`` the inverse-CDF value of each uniform in ``u``: the
    number of cumulative entries, all but the last, that are <= u.

    ``cum_t`` is the (d, configs) transposed cumulative CPT and ``cfg`` each
    row's parent configuration. Leaving out the last entry caps the value
    at d-1 even when a CPT row sums slightly below 1.
    """
    for thresholds in cum_t[:-1]:
        out += thresholds[cfg] <= u


@dataclass(eq=False)
class FrequencyTable:
    """Occurrence counts of every k-tuple cylinder, one dense array per
    size-k position set.

    ``counts`` maps each strictly increasing tuple of k positions (1-based)
    to a read-only int64 array over that set's sub-space, indexed in mixed
    radix, most significant first; unrealized cylinders hold zero.
    Lower-order frequencies are recovered by summation, so a single tuple
    size k is stored.
    """

    k: int
    l: int
    cards: tuple[int, ...]
    counts: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for arr in self.counts.values():
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.cards)

    def dense_counts(self, positions) -> np.ndarray:
        """The stored read-only counts of a size-k position set; any other
        positions (wrong size, unsorted, out of range or not integers)
        raise ValueError."""
        try:
            return self.counts[tuple(map(operator.index, positions))]
        except (KeyError, TypeError):
            raise ValueError(
                f"dense_counts wants {self.k} strictly increasing integer positions in 1..{self.n},"
                f" got {positions!r}"
            ) from None


def sample(dag: DiscreteDag, l: int, seed) -> SampleMatrix:
    """Ancestral sampling: each row draws nodes in order, conditionally on
    the already-drawn parents. Deterministic for a given seed."""
    require_valid(dag)
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    rng = np.random.default_rng(seed)
    rows = np.zeros((l, dag.n), dtype=np.min_scalar_type(max(dag.cards) - 1), order="F")
    nodes = [
        ([p - 1 for p in dag.parents[j - 1]], dag.parent_cards(j), np.cumsum(dag.cpts[j - 1], axis=1).T.copy())
        for j in range(1, dag.n + 1)
    ]
    for start in range(0, l, _SAMPLE_CHUNK):
        block = rows[start : start + _SAMPLE_CHUNK]
        uniforms = rng.random((block.shape[0], dag.n)).T.copy()
        for j, (pcols, pdims, cum_t) in enumerate(nodes):
            cfg = _tuple_codes(block, pcols, pdims) if pcols else 0
            _inverse_cdf(block[:, j], uniforms[j], cfg, cum_t)
    return SampleMatrix(dag.cards, rows)


def _distinct_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``rows`` as an (n, m) array of its dtype, one
    variable per row, and the multiplicity of each as float64 weights.

    One ``np.lexsort`` orders the rows; consecutive sorted rows are then
    compared a column and a ``_SAMPLE_CHUNK`` block at a time, so beyond the
    l-entry sort order no temporary grows with l. No packed row code is
    formed, so any n and cardinalities work.
    """
    l = rows.shape[0]
    order = np.lexsort(rows.T)
    starts = [np.zeros(min(l, 1), dtype=np.intp)]
    for a in range(1, l, _SAMPLE_CHUNK):
        block = order[a - 1 : a + _SAMPLE_CHUNK]
        new = np.zeros(block.size - 1, dtype=bool)
        for column in rows.T:
            values = column[block]
            new |= values[1:] != values[:-1]
        starts.append(np.flatnonzero(new) + a)
    starts = np.concatenate(starts)
    return rows.T[:, order[starts]], np.diff(starts, append=l).astype(np.float64)


def tuple_frequencies(samples: SampleMatrix, k: int) -> FrequencyTable:
    """Counts of every k-tuple cylinder, one array per position set.

    The count is taken over the sample's m distinct rows, each weighted by
    its multiplicity. Position sets are walked in ``itertools.combinations``
    order, which keeps the Horner code of every shared prefix: a set costs
    one multiply-add and one weighted ``np.bincount`` over m rows. The
    float64 sums are exact, since every partial sum is an integer of at
    most l < 2**53. The sort is not amortised when nearly every row is
    distinct and the sets are few: on a 2-core Xeon, the 20 position sets
    (n=6, k=3) of 2e5 all-distinct rows of cardinality 40 take 36-51 ms,
    against 20-24 ms for a Horner code of all l rows per set.
    """
    if not 1 <= k <= samples.n:
        raise ValueError(f"k must be in 1..{samples.n}, got {k}")
    distinct, weights = _distinct_rows(samples.rows)
    # codes[j]: Horner code of the current set's first j+1 positions, in
    # intp (a narrow column multiplied by a stride would wrap)
    codes = np.empty((k, distinct.shape[1]), dtype=np.intp)
    prev = ()
    counts = {}
    for pos in itertools.combinations(range(1, samples.n + 1), k):
        j = 0
        while j < len(prev) and prev[j] == pos[j]:
            j += 1
        for j in range(j, k):
            if j:
                np.multiply(codes[j - 1], samples.cards[pos[j] - 1], out=codes[j])
                codes[j] += distinct[pos[j] - 1]
            else:
                codes[0] = distinct[pos[0] - 1]
        size = math.prod(samples.cards[p - 1] for p in pos)
        counts[pos] = np.bincount(codes[-1], weights=weights, minlength=size).astype(np.int64)
        prev = pos
    return FrequencyTable(k, samples.l, samples.cards, counts)


class EmpiricalMarginalProvider(_ProviderBase):
    """Answers tuple probabilities of size <= k from the dense count array
    that a FrequencyTable stores for each size-k position set.

    Sub-k queries are served by summing the counts of the lexicographically
    first k-superset of the requested positions; count consistency makes the
    answer independent of that choice.
    """

    def __init__(self, freq: FrequencyTable):
        super().__init__()
        if freq.l <= 0:
            raise ValueError("empirical provider needs at least one sample")
        self._freq = freq
        self.cards = freq.cards
        self.max_tuple_size = freq.k

    def _lex_superset(self, pos) -> tuple[int, ...]:
        have = set(pos)
        extra = (p for p in range(1, self.n + 1) if p not in have)
        fill = [next(extra) for _ in range(self.max_tuple_size - len(pos))]
        return tuple(sorted((*pos, *fill)))

    def _compute(self, pos) -> np.ndarray:
        sup = self._lex_superset(pos)
        dims = tuple(self.cards[p - 1] for p in sup)
        drop = tuple(i for i, p in enumerate(sup) if p not in pos)
        counts = self._freq.dense_counts(sup).reshape(dims)
        if drop:
            counts = counts.sum(axis=drop)
        return counts.reshape(-1).astype(np.float64) / self._freq.l


def save_samples(samples: SampleMatrix, path) -> None:
    """CSV with header x1..xn, one integer row per record; round-trips exactly.

    Each ``_SAMPLE_CHUNK``-row block is formatted in numpy: every value
    indexes a table of its right-aligned decimal digits plus a separator
    slot, and a matching mask drops the leading pad, so the bytes are the
    plain decimal CSV that ``csv.writer`` writes.
    """
    values = np.arange(max(samples.cards, default=1))
    powers = 10 ** np.arange(len(str(values[-1])) - 1, -1, -1)
    digits = np.zeros((values.size, powers.size + 1), dtype=np.uint8)
    digits[:, :-1] = values[:, None] // powers % 10 + ord("0")
    keep = np.ones(digits.shape, dtype=bool)
    keep[:, :-1] = (values[:, None] >= powers) | (powers == 1)
    with open(path, "wb") as f:
        f.write((",".join(f"x{i}" for i in range(1, samples.n + 1)) + "\n").encode())
        for start in range(0, samples.l, _SAMPLE_CHUNK):
            block = samples.rows[start : start + _SAMPLE_CHUNK]
            # np.take gathers table rows far faster than digits[block]
            chars = np.take(digits, block, axis=0)
            chars[:, :, -1] = ord(",")
            chars[:, -1, -1] = ord("\n")
            f.write(chars[np.take(keep, block, axis=0)].tobytes())


def load_samples(path, cards=None) -> SampleMatrix:
    """Read the CSV form; cardinalities are inferred as max+1 per column
    unless given explicitly. A file that does not hold valid records raises
    InvalidSamplesError naming the file."""
    try:
        with open(path, newline="") as f:
            header = next(csv.reader([f.readline()]), [])
            if not header or not all(h.strip().startswith("x") for h in header):
                raise ValueError(f"malformed header: {header}")
            body = f.tell()
            if any(line.strip() for line in iter(f.readline, "")):
                f.seek(body)
                arr = np.loadtxt(f, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
            else:  # loadtxt only warns on a file without records
                arr = np.zeros((0, len(header)), dtype=np.int64)
        if arr.shape[1] != len(header):
            raise ValueError(f"{arr.shape[1]} columns under a {len(header)}-column header")
        if cards is None:
            if arr.shape[0] == 0:
                raise ValueError("cannot infer cardinalities from an empty sample file")
            cards = tuple(int(c) for c in arr.max(axis=0) + 1)
        return SampleMatrix(cards, arr)
    except ValueError as exc:
        raise InvalidSamplesError(f"samples file {path}: {exc}") from None


def frequencies_to_dict(freq: FrequencyTable) -> dict:
    entries = []
    for pos in sorted(freq.counts):
        arr = freq.counts[pos]
        codes = np.flatnonzero(arr)
        values = np.column_stack(np.unravel_index(codes, tuple(freq.cards[p - 1] for p in pos)))
        for vals, c in zip(values.tolist(), arr[codes].tolist()):
            entries.append({"positions": list(pos), "values": vals, "count": c})
    return {"k": freq.k, "l": freq.l, "cards": list(freq.cards), "counts": entries}


def save_frequencies(freq: FrequencyTable, path) -> None:
    """JSON with counts sorted by (positions, values)."""
    with open(path, "w") as f:
        json.dump(frequencies_to_dict(freq), f, indent=2)
        f.write("\n")
