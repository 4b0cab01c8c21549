"""Sampling, tuple-frequency tables, and the empirical marginal provider.

``sample`` draws the rows in cache-sized blocks of ``_SAMPLE_CHUNK`` rows.
``tuple_frequencies`` finds the sample's distinct rows with one sort of
packed int64 row codes: sampled rows repeat heavily (an n=12, d=2 sample of
1e5 rows has about 2.2k). Rows wider than one int64 code hardly repeat, and
are counted as drawn. A ``FrequencyTable`` then counts a position set the
first time it is asked for, with one Horner code and one weighted
``np.bincount`` over those rows, so recovery counts only the sets its
decisions read.
``FrequencyTable.counts`` keeps the sets asked for through ``dense_counts``;
the empirical provider and the deviation sweep count without storing.

Samples of one-digit values, as every sample of cardinalities up to 10
holds, are written and read as a grid of (digit, separator) byte pairs
(``_grid_line``): ``save_samples`` writes a block of rows as one byte
array, and ``load_samples`` checks and reads a block of such lines as
little-endian ``<u2`` words by subtracting one template. Any other block
goes through the general digit code, with the same grammar, bytes and
errors. One parser reads each block in both passes of ``load_samples``;
the first pass parses in uint64 to count the records and find the largest
value, so the first bad block in the file is named, whatever its error.
Within a block the checks run in the order: bad byte, empty field, field
count, field width.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .model import DiscreteDag, _at_least, _indices, _write_json
from .oracle import _ProviderBase, _check_positions
from .vcbounds import _k_of_n

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

# Rows drawn per generator call in ``sample`` and formatted per step of
# ``save_samples``. Consecutive draws continue one stream, so the rows do
# not depend on this value; it bounds the temporaries of a step
# independently of l. A draw's uniforms and their transposed copy take
# 16 * n bytes a row, 1.5 MiB at n=12, so a step stays in the L2 cache.
_SAMPLE_CHUNK = 8192

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
        self.cards = _indices(cards, "cards", InvalidSamplesError)
        if not self.cards:
            raise InvalidSamplesError("variable count must be >= 1, got 0 cards")
        for j, c in enumerate(self.cards, 1):
            if c < 1:
                raise InvalidSamplesError(f"cardinality of x{j} must be >= 1, got {c}")
        arr = np.asarray(rows)
        if not np.issubdtype(arr.dtype, np.integer):
            raise InvalidSamplesError(f"sample values must be integers, got dtype {arr.dtype}")
        if arr.ndim != 2 or arr.shape[1] != len(self.cards):
            raise InvalidSamplesError(f"rows must be (l, {len(self.cards)}), got {arr.shape}")
        # checked before narrowing, where an out-of-range value could wrap into
        # range; per-column reductions keep the check free of (l, n) temporaries.
        # Each column is compared with its cardinality as a Python int: an
        # array of the cardinalities would be float64 above 2**63.
        if arr.size and any(
            lo < 0 or hi >= c for lo, hi, c in zip(arr.min(axis=0).tolist(), arr.max(axis=0).tolist(), self.cards)
        ):
            bad = np.column_stack([(arr[:, j] < 0) | (arr[:, j] >= c) for j, c in enumerate(self.cards)])
            row, j = np.argwhere(bad)[0]
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
    """Mixed-radix code of each row's values at ``cols`` (0-based) over
    ``dims``, most significant first; no columns give 0 for every row.

    Accumulates by Horner's rule in intp: a narrow column multiplied by a
    stride would wrap. A uint64 column is read through an int64 view, as
    numpy adds no uint64 in place; values of a table that fits are < 2**63.
    """
    if not cols:
        return np.zeros(rows.shape[0], dtype=np.intp)
    if rows.dtype == np.uint64:
        rows = rows.view(np.int64)
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
    """Occurrence counts of k-tuple cylinders, counted per position set on
    first use from the sample's ``distinct`` rows, an (n, m) array with one
    variable per row, and their float64 multiplicities ``weights``. Rows
    wider than one int64 code are kept as drawn, a view of the sample with
    weight 1 each: they rarely repeat, so merging them would save nothing.
    A uint64 column is coded through an int64 view (``_tuple_codes``).

    ``counts`` maps each size-k position set asked for through
    ``dense_counts``, a strictly increasing tuple of positions (1-based), to
    a read-only int64 array over that set's sub-space, indexed in mixed
    radix, most significant first; unrealized cylinders hold zero. The
    empirical provider and the deviation sweep count through ``_count``,
    which stores nothing.
    """

    k: int
    l: int
    cards: tuple[int, ...]
    distinct: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    counts: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return len(self.cards)

    def dense_counts(self, positions) -> np.ndarray:
        """The read-only counts of a size-k position set; any other
        positions (wrong size, unsorted, out of range or not integers)
        raise ValueError."""
        try:
            pos = _check_positions(positions, self.n)
        except ValueError:
            pos = ()
        if len(pos) != self.k:
            raise ValueError(
                f"dense_counts wants {self.k} strictly increasing integer positions in 1..{self.n},"
                f" got {positions!r}"
            )
        arr = self.counts.get(pos)
        if arr is None:
            arr = self._count(pos).astype(np.int64)
            arr.flags.writeable = False
            self.counts[pos] = arr
        return arr

    def _count(self, pos) -> np.ndarray:
        """Float64 counts over ``pos``, sorted positions of any size, in
        the layout of ``counts``; nothing is stored. No positions give the
        one cell that counts every row.

        One Horner code of the distinct rows and one weighted
        ``np.bincount``. The float64 sums are exact: each is an integer of
        at most l < 2**53, so the order of the rows does not matter.
        """
        cols = [p - 1 for p in pos]
        dims = [self.cards[c] for c in cols]
        codes = _tuple_codes(self.distinct.T, cols, dims)
        return np.bincount(codes, weights=self.weights, minlength=math.prod(dims))


def sample(dag: DiscreteDag, l: int, seed) -> SampleMatrix:
    """Ancestral sampling: each row draws nodes in order, conditionally on
    the already-drawn parents. Deterministic for a given seed."""
    l = _at_least(l, "l", 1)
    rng = np.random.default_rng(_at_least(seed, "seed", 0))
    rows = np.zeros((l, dag.n), dtype=np.min_scalar_type(max(dag.cards) - 1), order="F")
    nodes = [
        ([p - 1 for p in dag.parents[j - 1]], dag.parent_cards(j), np.cumsum(dag.cpts[j - 1], axis=1).T.copy())
        for j in range(1, dag.n + 1)
    ]
    # a block's uniforms are drawn row by row, the stream's order, and read
    # a node at a time from a transposed copy; both buffers are reused
    drawn = np.empty((min(l, _SAMPLE_CHUNK), dag.n))
    uniforms = np.empty(drawn.shape[::-1])
    for start in range(0, l, _SAMPLE_CHUNK):
        block = rows[start : start + _SAMPLE_CHUNK]
        m = block.shape[0]
        rng.random(out=drawn[:m])
        uniforms[:, :m] = drawn[:m].T
        for j, (pcols, pdims, cum_t) in enumerate(nodes):
            cfg = _tuple_codes(block, pcols, pdims) if pcols else 0
            _inverse_cdf(block[:, j], uniforms[j, :m], cfg, cum_t)
    return SampleMatrix(dag.cards, rows)


def _distinct_rows(rows, cards) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``rows`` as an (n, m) array of its dtype, one
    variable per row, and the multiplicity of each as float64 weights.

    A row of at most 62 bits, or any row whose cardinalities multiply to
    less than 2**63, is packed in mixed radix over ``cards`` into one int64
    code, built as the intp code of ``_tuple_codes`` and sorted in place.
    Equal neighbours then merge into one distinct row, decoded from its
    code by integer division, whose weight is the length of its run. The
    distinct rows come out in code order.

    Wider rows are returned as drawn: ``rows.T``, a view, with weight 1
    each (see ``tuple_frequencies``).
    """
    l, dtype = rows.shape[0], rows.dtype
    if math.prod(cards) >= 2**63:
        return rows.T, np.ones(l)
    code = _tuple_codes(rows, range(len(cards)), cards)
    code.sort()
    new = np.empty(l, dtype=bool)
    new[:1] = True
    np.not_equal(code[1:], code[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    code = code[starts]
    distinct = np.empty((len(cards), starts.size), dtype=dtype)
    for c in range(len(cards) - 1, 0, -1):
        # a floor division by a scalar runs several times faster than np.divmod
        quotient = code // cards[c]
        code -= quotient * cards[c]
        distinct[c] = code
        code = quotient
    distinct[0] = code
    return distinct, np.diff(starts, append=l).astype(np.float64)


def tuple_frequencies(samples: SampleMatrix, k: int) -> FrequencyTable:
    """The k-tuple counts of ``samples``, each counted on first use.

    A sample whose cardinalities multiply to 2**63 or more is counted as
    drawn, with no copy of its rows: such rows hardly repeat (every row
    of 2e4 drawn from ``random_dag(64, 2, 2, 0)`` is distinct), so a sort
    would merge nothing. Any narrower sample is first reduced to its
    distinct rows. That sort does not pay either when nearly every row is
    distinct and the sets are few: on a 2-core Xeon, the 20 position sets
    (n=6, k=3) of 2e5 all-distinct rows of cardinality 40 take 54-58 ms,
    against 31-33 ms for a Horner code of all l rows per set.
    """
    _, k = _k_of_n(samples.n, k)
    distinct, weights = _distinct_rows(samples.rows, samples.cards)
    return FrequencyTable(k, samples.l, samples.cards, distinct, weights)


class EmpiricalMarginalProvider(_ProviderBase):
    """Answers tuple probabilities of size <= k from the counts of a
    FrequencyTable, each counted directly over its own positions."""

    def __init__(self, freq: FrequencyTable):
        super().__init__()
        if freq.l <= 0:
            raise ValueError("empirical provider needs at least one sample")
        self._freq = freq
        self.cards = freq.cards
        self.max_tuple_size = freq.k

    def _compute(self, pos) -> np.ndarray:
        return self._freq._count(pos) / self._freq.l


def _grid_line(n) -> bytes:
    """The line ``0,0,...,0\\n`` of n one-digit fields: a (digit,
    separator) byte pair per field."""
    return b"0," * (n - 1) + b"0\n"


def save_samples(samples: SampleMatrix, path) -> None:
    """CSV with header x1..xn, one integer row per record; round-trips exactly.

    Each ``_SAMPLE_CHUNK``-row block is formatted in numpy. When every
    value has one digit (``max(cards) <= 10``), the block is one byte
    array of ``_grid_line`` rows whose digit bytes are set a column at a
    time to the value plus ``0``; the separators are set once. Otherwise
    every value becomes a fixed-width byte string of its digits, padded
    with zero bytes, whose last byte is its separator, and the zero bytes
    are dropped. The strings are gathered from a table of every value below
    ``max(cards)`` while that table has no more rows than a block has
    values, and else made from the block's own values, so the memory is
    bounded by the block. Either way the bytes are the plain decimal CSV
    that the ``csv`` module writes.

    A value of more than ``_MAX_DIGITS`` digits, which ``load_samples``
    could not read back, raises InvalidSamplesError naming its column and
    value before the file is opened.
    """
    if max(samples.cards) > 10**_MAX_DIGITS and (tops := samples.rows.max(0, initial=0)).max() >= 10**_MAX_DIGITS:
        raise InvalidSamplesError(f"sample value {tops.max()} of x{tops.argmax() + 1} has more than {_MAX_DIGITS} digits")
    with open(path, "wb") as f:
        f.write((",".join(f"x{i}" for i in range(1, samples.n + 1)) + "\n").encode())
        if max(samples.cards) <= 10:
            line = np.frombuffer(_grid_line(samples.n), dtype=np.uint8)
            pairs = np.tile(line, (min(samples.l, _SAMPLE_CHUNK), 1))
            for start in range(0, samples.l, _SAMPLE_CHUNK):
                block = samples.rows[start : start + _SAMPLE_CHUNK]
                m = len(block)
                # a column at a time: a whole-block add strides far slower
                for j in range(samples.n):
                    np.add(block[:, j], _ZERO, out=pairs[:m, 2 * j])
                f.write(pairs[:m])
            return
        width = len(str(max(samples.cards) - 1)) + 1  # the widest value's digits and a separator
        fits = max(samples.cards) <= samples.rows[:_SAMPLE_CHUNK].size
        table = np.arange(max(samples.cards) if fits else 0).astype(f"S{width}")
        for start in range(0, samples.l, _SAMPLE_CHUNK):
            block = samples.rows[start : start + _SAMPLE_CHUNK]
            # np.take gathers far faster than table[block], and in C order
            strings = np.take(table, block) if fits else block.astype(table.dtype, order="C")
            chars = strings.view(np.uint8).reshape(*block.shape, width)
            chars[:, :, -1] = ord(",")
            chars[:, -1, -1] = ord("\n")
            f.write(chars[chars != 0].tobytes())


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


def _grid_values(block, n, template) -> np.ndarray | None:
    """The (m, n) uint8 values of ``block`` if it is m lines of n
    one-digit fields, else None. ``template`` is ``_grid_line(n)`` as
    little-endian ``<u2`` words, repeated at least as many times as a
    clean block has lines.

    A word of the block minus its template word is in 0-9 exactly when its
    digit byte is ``0``-``9`` and its separator byte is the template's, so
    a ``\\r``, a blank line, a sign, a wider field, another separator or
    another field count leaves some word above 9. An empty block has no
    word to check and is left to the digit code.
    """
    if not block.size or block.size % (2 * n) or block.size > 2 * template.size:
        return None
    values = block.view("<u2") - template[: block.size // 2]
    return values.astype(np.uint8).reshape(-1, n) if values.max() <= 9 else None


def _block_values(records, n, dtype, first_row) -> np.ndarray:
    """The (m, n) values of the m records of ``records``, read in ``dtype``.

    Each field ends on a ``,`` or ``\\n`` byte; once every byte is a digit
    or one of those and no field is empty, the byte before each separator
    is its field's last digit and the distance between separators its
    width, and ``_digit_values`` builds the values. The checks run in a
    fixed order, each naming the row of its first offence: a bad byte, an
    empty field, a record of the wrong field count, a field of more than
    ``_MAX_DIGITS`` digits.
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
    widths = np.diff(last, prepend=-2) - 1
    width = int(widths.max(initial=0))
    if width > _MAX_DIGITS:
        at = int(last[np.argmax(widths > _MAX_DIGITS)])
        raise ValueError(f"row {_row_of(records, at, first_row)}: a value of more than {_MAX_DIGITS} digits")
    return _digit_values(records, last, widths, width, dtype).reshape(m, n)


def _digit_values(records, last, widths, width, dtype) -> np.ndarray:
    """The numbers of ``widths`` digits (at most ``width``) whose last
    digits sit at ``last`` in ``records``, in ``dtype``, built by Horner's
    rule a digit position at a time, most significant first; a position
    before a number's first digit adds 0."""
    values = np.zeros(last.size, dtype=dtype)
    for i in range(width - 1, -1, -1):
        digits = records[last - i] - _ZERO
        if i:
            digits[widths <= i] = 0
        values *= 10
        values += digits
    return values


def load_samples(path, cards=None) -> SampleMatrix:
    """Read the CSV form; cardinalities are inferred as max+1 per column
    unless given explicitly. A file that does not hold valid records raises
    InvalidSamplesError naming the file and, for a bad record, its row.

    The body is read twice in ``_PARSE_BLOCK``-byte blocks, and both
    passes parse each block with one parser: a block of lines of n
    one-digit fields as a grid of byte pairs (``_grid_values``), which
    needs no other check, and any other block through ``_records`` and
    ``_block_values``. The first pass parses in uint64 to count the records
    and find the largest value. The second parses each block again into its
    rows of a preallocated column-major array, whose dtype is the smallest
    unsigned one that holds the largest value, so ``SampleMatrix`` copies
    it only when ``cards`` asks for a wider one. As the first pass checks
    every block in full, the first bad block in the file is the one named,
    whatever its error. Within a block the checks run in a fixed order: a
    bad byte, an empty field, a record of the wrong field count, a field of
    more than ``_MAX_DIGITS`` digits; so a block that holds both a bad byte
    and a too-wide field names the bad byte. No other temporary grows
    with l.
    """
    try:
        with open(path, "rb") as f:
            header = f.readline().decode().rstrip("\r\n").split(",")
            bad = next((h for h in header if not h.strip().startswith("x")), None)
            if bad is not None:
                raise ValueError(f"malformed header: column {bad!r} does not start with x")
            n = len(header)
            body = f.tell()
            # as many lines as the longest block of 2n-byte lines
            template = np.tile(np.frombuffer(_grid_line(n), dtype="<u2"), _PARSE_BLOCK // (2 * n) + 1)

            def parse(block, dtype, first_row):
                values = _grid_values(block, n, template)
                return values if values is not None else _block_values(_records(block), n, dtype, first_row)

            l = top = 0
            for block in _line_blocks(f):
                values = parse(block, np.uint64, l)
                top = max(top, int(values.max(initial=0)))
                l += len(values)
            rows = np.empty((l, n), dtype=np.min_scalar_type(top), order="F")
            f.seek(body)
            done = 0
            for block in _line_blocks(f):
                values = parse(block, rows.dtype, done)
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
    """Every size-k position set's nonzero counts, sorted by (positions,
    values); counts each set not counted yet."""
    entries = []
    for pos in itertools.combinations(range(1, freq.n + 1), freq.k):
        arr = freq.dense_counts(pos)
        codes = np.flatnonzero(arr)
        values = np.column_stack(np.unravel_index(codes, tuple(freq.cards[p - 1] for p in pos)))
        for vals, c in zip(values.tolist(), arr[codes].tolist()):
            entries.append({"positions": list(pos), "values": vals, "count": c})
    return {"k": freq.k, "l": freq.l, "cards": list(freq.cards), "counts": entries}


def save_frequencies(freq: FrequencyTable, path) -> None:
    """JSON with counts sorted by (positions, values)."""
    _write_json(frequencies_to_dict(freq), path)
