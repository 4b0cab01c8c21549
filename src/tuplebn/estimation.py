"""Sampling, tuple-frequency tables, and the empirical marginal provider.

``tuple_frequencies`` counts every size-k position set over the sample's
distinct rows rather than over all l rows: sampled rows repeat heavily (an
n=12, d=2 sample of 1e5 rows has about 2.2k distinct rows), so the rows are
sorted once and each position set then costs one Horner step and one
weighted ``np.bincount`` over the distinct rows. See ``tuple_frequencies``
for why the weighted sums are exact and for the input where it loses.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .model import DiscreteDag, _index
from .oracle import _ProviderBase

__all__ = [
    "EmpiricalMarginalProvider",
    "FrequencyTable",
    "InvalidSamplesError",
    "SampleMatrix",
    "frequencies_to_dict",
    "load_samples",
    "sample",
    "save_frequencies",
    "save_samples",
    "tuple_frequencies",
]

# Rows drawn per generator call in ``sample``. Consecutive draws continue
# one stream, so the rows do not depend on this value; it bounds the
# temporaries of a draw independently of l.
_SAMPLE_CHUNK = 65536

# Bytes read per step of ``load_samples``. A step's temporaries are a few
# times this, whatever l is; blocks that fit the CPU cache parse fastest.
_PARSE_BLOCK = 1 << 17

# Widest field of a samples CSV: every value then fits an int64.
_MAX_DIGITS = 18

_NL, _CR, _COMMA, _ZERO = b"\n\r,0"

_log = logging.getLogger(__name__)
_log.addHandler(logging.NullHandler())


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
        self.cards = tuple(_index(c, "cards", InvalidSamplesError) for c in cards)
        for j, c in enumerate(self.cards, 1):
            if c < 1:
                raise InvalidSamplesError(f"cardinality of x{j} must be >= 1, got {c}")
        arr = np.asarray(rows)
        if not np.issubdtype(arr.dtype, np.integer):
            raise InvalidSamplesError(f"sample values must be integers, got dtype {arr.dtype}")
        if arr.ndim != 2 or arr.shape[1] != len(self.cards):
            raise InvalidSamplesError(f"rows must be (l, {len(self.cards)}), got {arr.shape}")
        # checked before narrowing, where an out-of-range value could wrap into
        # range; per-column reductions keep the check free of (l, n) temporaries
        if arr.size and (np.any(arr.min(axis=0) < 0) or np.any(arr.max(axis=0) >= np.asarray(self.cards))):
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


def _line_blocks(f):
    """The rest of binary file ``f`` as uint8 arrays of about ``_PARSE_BLOCK``
    bytes that each end on a newline; a line is never split, and a last
    line without a newline gets one."""
    carry = b""
    while chunk := f.read(_PARSE_BLOCK):
        buf = carry + chunk
        cut = buf.rfind(b"\n") + 1
        if cut:
            yield np.frombuffer(buf, dtype=np.uint8, count=cut)
        carry = buf[cut:]
    if carry:
        yield np.frombuffer(carry + b"\n", dtype=np.uint8)


def _records(block) -> np.ndarray:
    """``block`` without the ``\\r`` of each ``\\r\\n`` and without blank
    lines, so that every line is one record ending in ``\\n``. Copies only
    a block that has either."""
    if np.any(block == _CR):
        crlf = np.zeros(block.size, dtype=bool)
        crlf[:-1] = (block[:-1] == _CR) & (block[1:] == _NL)
        block = block[~crlf]
    nl = block == _NL
    blank = np.empty_like(nl)
    blank[0] = nl[0]
    np.logical_and(nl[1:], nl[:-1], out=blank[1:])
    return block[~blank] if blank.any() else block


def _row_of(records, at, first_row) -> int:
    """1-based row of byte ``at`` of ``records``, after ``first_row`` rows."""
    return first_row + 1 + int(np.count_nonzero(records[:at] == _NL))


def _widest_digit_run(records, first_row) -> int:
    """Length of the longest run of digit bytes in ``records``; a run of
    more than ``_MAX_DIGITS`` raises, naming its row."""
    digit = (records - _ZERO) <= 9  # uint8 wraps below '0'
    run, width = digit, 0
    while run.any():  # some run of width + 1 digits
        width += 1
        if width > _MAX_DIGITS:
            raise ValueError(
                f"row {_row_of(records, int(np.argmax(run)), first_row)}: a value of more than {_MAX_DIGITS} digits"
            )
        run = run[:-1] & digit[width:]
    return width


def _block_values(records, n, width, dtype, first_row) -> np.ndarray:
    """The (m, n) values of the m records of ``records``, whose fields have
    at most ``width`` digits, read in ``dtype``.

    Each field ends on a ``,`` or ``\\n`` byte; once every byte is a digit
    or one of those and no field is empty, the byte before each separator
    is its field's last digit. The values are then built by Horner's rule,
    most significant digit first, a digit position at a time; a position
    before a field's first digit adds 0.
    """
    nl = records == _NL
    sep = nl | (records == _COMMA)
    bad = ~(sep | ((records - _ZERO) <= 9))  # uint8 wraps below '0'
    if bad.any():
        at = int(np.argmax(bad))
        raise ValueError(
            f"row {_row_of(records, at, first_row)}: byte {bytes(records[at : at + 1])!r} is not a digit, ',' or line end"
        )
    empty = sep.copy()
    empty[1:] &= sep[:-1]
    if empty.any():
        raise ValueError(f"row {_row_of(records, int(np.argmax(empty)), first_row)}: empty field")
    last = np.flatnonzero(sep[1:])
    m = int(np.count_nonzero(nl))
    if last.size != m * n or not np.all(nl[last[n - 1 :: n] + 1]):
        fields = np.diff(np.flatnonzero(nl[last + 1]), prepend=-1)
        r = int(np.argmax(fields != n))
        raise ValueError(f"row {first_row + r + 1}: {fields[r]} columns under a {n}-column header")
    values = np.zeros(last.size, dtype=dtype)
    if width > 1:
        widths = np.diff(last, prepend=-2) - 1
    for i in range(width - 1, -1, -1):
        digits = records[last - i] - _ZERO
        if i:
            digits[widths <= i] = 0
        values *= 10
        values += digits
    return values.reshape(m, n)


def load_samples(path, cards=None) -> SampleMatrix:
    """Read the CSV form; cardinalities are inferred as max+1 per column
    unless given explicitly. A file that does not hold valid records raises
    InvalidSamplesError naming the file and, for a bad record, its row.

    The body is read twice in ``_PARSE_BLOCK``-byte blocks: once to count
    the records and find the widest field, once to parse each block into
    its rows of a preallocated column-major array. That array's dtype is
    the smallest unsigned one that holds every number of that many digits;
    ``SampleMatrix`` copies it only when its own dtype differs. No other
    temporary grows with l.
    """
    try:
        with open(path, "rb") as f:
            header = f.readline().decode().rstrip("\r\n").split(",")
            bad = next((h for h in header if not h.strip().startswith("x")), None)
            if bad is not None:
                raise ValueError(f"malformed header: column {bad!r} does not start with x")
            n = len(header)
            body = f.tell()
            l = width = 0
            for block in _line_blocks(f):
                records = _records(block)
                width = max(width, _widest_digit_run(records, l))
                l += int(np.count_nonzero(records == _NL))
            dtype = np.min_scalar_type(10**width - 1)
            rows = np.empty((l, n), dtype=dtype, order="F")
            f.seek(body)
            done = 0
            for block in _line_blocks(f):
                values = _block_values(_records(block), n, width, dtype, done)
                rows[done : done + len(values)] = values
                done += len(values)
        if cards is None:
            if l == 0:
                raise ValueError("cannot infer cardinalities from an empty sample file")
            cards = tuple(int(c) + 1 for c in rows.max(axis=0))
            _log.info("samples file %s: cardinalities inferred as max+1 per column: %s", path, cards)
        return SampleMatrix(cards, rows)
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
