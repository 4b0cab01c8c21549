"""VC-dimension bounds for k-tuple cylinder events and sample-size solvers.

A cylinder event fixes the values at k of the n positions. The class of all
such events is finite, so its VC dimension is at most log2 of the class size
(crudely k*log2(n*d)); a lower bound floor(log2(n-k+1)) comes from an
explicit shattered point set built here and checked by brute force. The two
do not match in order: the lower bound grows with neither k nor d, so they
differ by a factor of about k (36 against 10 at n=2048, k=3, d=2).

Two distinct inequalities live side by side and are never mixed:
``risk_bound`` evaluates the uniform-deviation probability bound
4*exp{(h(1+ln(2l/h))/l - (eps-1/l)^2) l}, while the sufficient-condition
solver uses l/(1+ln(2l)) * (eps-1/l)^2/2 >= k*log2(nd). The first is a
bound only where Sauer's lemma bounds the growth function by (2el/h)^h,
that is where 2l >= h (Sauer 1972; Vapnik 1998); below that its usable
bound is 1. The second is read only where eps*l > 1, where the squared
deviation term carries its intended positive sign.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

from .model import _BOOLS, _at_least, _index, _indices, _iterate, _real_in, _write_json

__all__ = [
    "Certificate",
    "CylinderCount",
    "RiskBound",
    "SampleSizes",
    "ShatterWitness",
    "VerifyResult",
    "cylinder_count",
    "required_sample_size",
    "risk_bound",
    "save_witness",
    "shatter_witness",
    "vc_lower_bound",
    "vc_upper_bound",
    "verify_shattered",
]

SEARCH_CAP = 2**40


class CylinderCount(NamedTuple):
    exact: int
    crude: int


def cylinder_count(n: int, k: int, d: int) -> CylinderCount:
    """Number of k-position cylinder events: exactly d^k * C(n,k), below (nd)^k."""
    (n, k), d = _k_of_n(n, k), _at_least(d, "d", 1)
    return CylinderCount(d**k * math.comb(n, k), (n * d) ** k)


def _k_of_n(n, k) -> tuple[int, int]:
    """``n`` and ``k`` read by ``_index``; unless 1 <= k <= n, ValueError naming both."""
    n, k = _index(n, "n"), _index(k, "k")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return n, k


def vc_upper_bound(n: int, k: int, d: int, tight: bool = False) -> float:
    """k*log2(n*d); with tight=True, log2 of the exact event count instead."""
    exact, _ = cylinder_count(n, k, d)
    if n * d < 2:
        raise ValueError(f"need n*d >= 2, got n={n}, d={d}")
    if type(tight) not in _BOOLS:
        raise ValueError(f"tight must be a bool, got {tight!r}")
    if tight:
        return math.log2(exact)
    return k * math.log2(n * d)


def vc_lower_bound(n: int, k: int) -> int:
    """floor(log2(n-k+1)); attained by the shatter_witness construction,
    which additionally needs every position to offer two distinct values."""
    n, k = _k_of_n(n, k)
    return (n - k + 1).bit_length() - 1


class RiskBound(NamedTuple):
    value: float  # raw right-hand side, may exceed 1 or overflow to inf
    bound: float  # min(1, value) where 2l >= h, else 1: the usable probability bound
    log_value: float  # natural log of the raw value, always finite


def risk_bound(h: float, l: int, epsilon: float) -> RiskBound:
    """Uniform-deviation probability bound 4*exp{(h(1+ln(2l/h))/l - (eps-1/l)^2) l}.

    Evaluated in log space; the raw value can dwarf float range for small l,
    so the exponential is only taken when it fits. ``bound`` is 1 where
    2l < h, outside the range where the formula bounds anything. From 2l >= h
    on, the exponent is concave in l and the value is above 4/e where that
    range starts, so for any delta in (0, 1) ``bound < delta`` is false below
    one l and true from it on.
    """
    h, l, epsilon = _real_in(h, "h"), _at_least(l, "l", 1), _real_in(epsilon, "epsilon", 1)
    exponent = (h * (1.0 + math.log(2.0 * l / h)) / l - (epsilon - 1.0 / l) ** 2) * l
    log_value = math.log(4.0) + exponent
    value = math.exp(log_value) if log_value < 700.0 else math.inf
    return RiskBound(value, min(1.0, value) if 2 * l >= h else 1.0, log_value)


class SampleSizes(NamedTuple):
    l_suff: int
    l_risk: int


def _first_true(pred) -> int:
    """Smallest l in 1..SEARCH_CAP with pred(l), for a pred false below one l
    and true from it on."""
    l = bisect.bisect_left(range(1, SEARCH_CAP + 1), True, key=pred) + 1
    if l > SEARCH_CAP:
        raise RuntimeError(f"no feasible sample size below {SEARCH_CAP}")
    return l


def required_sample_size(n: int, k: int, d: int, epsilon: float, delta_risk: float) -> SampleSizes:
    """Two smallest sample sizes, each certified by its own inequality.

    l_suff satisfies l/(1+ln(2l)) * (eps-1/l)^2/2 >= k*log2(nd) with
    eps*l > 1, and l_risk satisfies risk_bound(k*log2(nd), l, eps).bound <
    delta_risk; in both cases l - 1 fails. eps*l > 1 is not required of the
    inputs. Each test is false below one l and true from it on, so one
    bisection over 1..SEARCH_CAP finds the smallest: once eps*l > 1, both
    l/(1+ln(2l)) and (eps-1/l)^2 grow with l, and ``risk_bound`` says why
    its test turns once.
    """
    h = vc_upper_bound(n, k, d)
    epsilon, delta_risk = _real_in(epsilon, "epsilon", 1), _real_in(delta_risk, "delta_risk", 1)

    def suff(l: int) -> bool:
        if epsilon * l <= 1.0:
            return False
        return l / (1.0 + math.log(2.0 * l)) * (epsilon - 1.0 / l) ** 2 / 2.0 >= h

    def risk(l: int) -> bool:
        return risk_bound(h, l, epsilon).bound < delta_risk

    return SampleSizes(_first_true(suff), _first_true(risk))


@dataclass(frozen=True)
class ShatterWitness:
    """A point set shattered by k-position cylinders, with its generator.

    ``matrix`` is l_points x n binary, rows as tuples: the first k-1 columns
    are all ones, the next 2^l_points columns run through every binary word
    of length l_points (most significant bit in row 0), the rest are zeros.
    ``points`` are the rows mapped through the per-position value pairs.
    """

    n: int
    k: int
    l_points: int
    matrix: tuple[tuple[int, ...], ...]
    value_pairs: tuple[tuple[int, int], ...]
    points: tuple[tuple[int, ...], ...]


def shatter_witness(n: int, k: int, value_pairs=None) -> ShatterWitness:
    """Construct the witness matrix and its mapped point set.

    Columns beyond the binary-word block are unconstrained by the argument
    below; they are zero-filled for determinism.
    """
    n, k = _k_of_n(n, k)
    if value_pairs is None:
        value_pairs = tuple((0, 1) for _ in range(n))
    else:
        value_pairs = tuple(_indices(p, "value_pairs") for p in _iterate(value_pairs, "value_pairs", "a list of pairs"))
        if len(value_pairs) != n:
            raise ValueError(f"need {n} value pairs, got {len(value_pairs)}")
        for j, pair in enumerate(value_pairs, start=1):
            if len(pair) != 2:
                raise ValueError(f"value_pairs: expected a pair of integers, got {pair}")
            if pair[0] == pair[1]:
                raise ValueError(f"position {j} offers only one value; two are required")
    l_points = vc_lower_bound(n, k)
    words = 2**l_points
    matrix = tuple(
        (1,) * (k - 1)
        + tuple((w >> (l_points - 1 - r)) & 1 for w in range(words))
        + (0,) * (n - k + 1 - words)
        for r in range(l_points)
    )
    points = tuple(tuple(value_pairs[j][bit] for j, bit in enumerate(row)) for row in matrix)
    return ShatterWitness(n, k, l_points, matrix, value_pairs, points)


@dataclass(frozen=True)
class Certificate:
    """Which cylinder picks out one subset of the witness points."""

    subset_index: int
    indicator: tuple[int, ...]
    column: int
    positions: tuple[int, ...]
    values: tuple[int, ...]
    members: tuple[int, ...]


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    certificates: tuple[Certificate, ...]
    failing_subset: tuple[int, ...] | None


def verify_shattered(witness: ShatterWitness) -> VerifyResult:
    """Brute-force shattering check over all 2^l_points subsets.

    For each subset indicator s, the first column of the matrix equal to s
    (no fallback to later duplicates) defines the cylinder: positions
    (1..k-1, that column), values taken from the second entry of each value
    pair. The cylinder must pick out exactly the rows where s is 1.

    Every cylinder shares the head 1..k-1, so each row is tested against the
    head once; one pass over the columns, from the last to the first, maps
    each column vector (its first l_points entries) to the first column that
    holds it, so each subset finds its column with one lookup.

    A witness whose ``k`` is outside 1..n raises the ValueError of
    ``shatter_witness``; one whose matrix or points are not l_points rows of
    n entries, or whose value_pairs are not n pairs, raises ValueError
    naming the field; one whose entries disagree gives ``ok=False``.
    """
    (n, k), lp = _k_of_n(witness.n, witness.k), witness.l_points
    for name, count, width, shape in (
        ("matrix", lp, n, f"{lp} rows of {n} entries"),
        ("points", lp, n, f"{lp} rows of {n} entries"),
        ("value_pairs", n, 2, f"{n} pairs"),
    ):
        rows = getattr(witness, name)
        if len(rows) != count:
            raise ValueError(f"witness {name} must be {shape}, got {len(rows)}")
        for r, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"witness {name} must be {shape}, got {len(row)} entries at index {r}")
    points, pairs = witness.points, witness.value_pairs
    head = tuple(range(1, k))
    head_values = tuple(pairs[p - 1][1] for p in head)
    in_head = [all(row[p - 1] == v for p, v in zip(head, head_values)) for row in points]
    columns = list(zip(*witness.matrix)) or [()] * n  # with no rows every column is ()
    first_column = {columns[i]: i + 1 for i in range(n - 1, -1, -1)}
    certs: list[Certificate] = []
    for idx in range(2**lp):
        s = tuple((idx >> (lp - 1 - r)) & 1 for r in range(lp))
        column = first_column.get(s)
        if column is None:
            return VerifyResult(False, tuple(certs), s)
        value = pairs[column - 1][1]
        members = tuple(r for r in range(lp) if in_head[r] and points[r][column - 1] == value)
        if members != tuple(r for r in range(lp) if s[r] == 1):
            return VerifyResult(False, tuple(certs), s)
        certs.append(Certificate(idx, s, column, head + (column,), head_values + (value,), members))
    return VerifyResult(True, tuple(certs), None)


def save_witness(witness: ShatterWitness, result: VerifyResult, path) -> None:
    """Witness plus its verification outcome in one JSON document. The
    witness and each certificate are written field by field in declared
    order; the verification object lists ok, failing_subset, certificates."""
    verification = {
        "ok": result.ok,
        "failing_subset": result.failing_subset,
        "certificates": [vars(c) for c in result.certificates],
    }
    _write_json({"witness": vars(witness), "verification": verification}, path)
