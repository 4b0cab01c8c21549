"""VC-dimension bounds for k-tuple cylinder events and sample-size solvers.

A cylinder event fixes the values at k of the n positions. The class of all
such events is finite, so its VC dimension is at most log2 of the class size
(crudely k*log2(n*d)); a matching-order lower bound floor(log2(n-k+1)) comes
from an explicit shattered point set built here and checked by brute force.

Two distinct inequalities live side by side and are never mixed:
``risk_bound`` evaluates the uniform-deviation probability bound
4*exp{(h(1+ln(2l/h))/l - (eps-1/l)^2) l}, while the sufficient-condition
solver uses l/(1+ln(2l)) * (eps-1/l)^2/2 >= k*log2(nd). Both sample-size
searches restrict to eps*l > 1, where the squared deviation term carries its
intended positive sign.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

from .model import _index

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
    "witness_to_dict",
]

SEARCH_CAP = 2**40


class CylinderCount(NamedTuple):
    exact: int
    crude: int


def cylinder_count(n: int, k: int, d: int) -> CylinderCount:
    """Number of k-position cylinder events: exactly d^k * C(n,k), below (nd)^k."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return CylinderCount(d**k * math.comb(n, k), (n * d) ** k)


def vc_upper_bound(n: int, k: int, d: int, tight: bool = False) -> float:
    """k*log2(n*d); with tight=True, log2 of the exact event count instead."""
    exact, _ = cylinder_count(n, k, d)
    if n * d < 2:
        raise ValueError(f"need n*d >= 2, got n={n}, d={d}")
    if tight:
        return math.log2(exact)
    return k * math.log2(n * d)


def vc_lower_bound(n: int, k: int) -> int:
    """floor(log2(n-k+1)); attained by the shatter_witness construction,
    which additionally needs every position to offer two distinct values."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return (n - k + 1).bit_length() - 1


class RiskBound(NamedTuple):
    value: float  # raw right-hand side, may exceed 1 or overflow to inf
    bound: float  # min(1, value), the usable probability bound
    log_value: float  # natural log of the raw value, always finite


def risk_bound(h: float, l: int, epsilon: float) -> RiskBound:
    """Uniform-deviation probability bound 4*exp{(h(1+ln(2l/h))/l - (eps-1/l)^2) l}.

    Evaluated in log space; the raw value can dwarf float range for small l,
    so the exponential is only taken when it fits.
    """
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h}")
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    exponent = (h * (1.0 + math.log(2.0 * l / h)) / l - (epsilon - 1.0 / l) ** 2) * l
    log_value = math.log(4.0) + exponent
    value = math.exp(log_value) if log_value < 700.0 else math.inf
    return RiskBound(value, min(1.0, value), log_value)


class SampleSizes(NamedTuple):
    l_suff: int
    l_risk: int


def _first_true(pred) -> int:
    """Smallest l >= 1 with pred(l), for predicates false below a threshold.

    Exponential growth to bracket, binary search to localize, then a
    walk-down so the result self-certifies even off the monotone regime.
    """
    hi = 1
    while not pred(hi):
        hi *= 2
        if hi > SEARCH_CAP:
            raise RuntimeError(f"no feasible sample size below {SEARCH_CAP}")
    lo = hi // 2  # pred(lo) is false (or lo == 0)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    while hi > 1 and pred(hi - 1):
        hi -= 1
    return hi


def required_sample_size(n: int, k: int, d: int, epsilon: float, delta_risk: float) -> SampleSizes:
    """Two smallest sample sizes, each certified by its own inequality.

    l_suff satisfies l/(1+ln(2l)) * (eps-1/l)^2/2 >= k*log2(nd) and l_risk
    satisfies risk_bound(k*log2(nd), l, eps) < delta_risk; in both cases
    l - 1 fails. eps*l > 1 is not required of the inputs: both searches
    restrict to that region, because the deviation term (eps - 1/l)^2 is
    only meaningful with eps - 1/l positive.
    """
    h = vc_upper_bound(n, k, d)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    if not 0 < delta_risk < 1:
        raise ValueError(f"delta_risk must be in (0,1), got {delta_risk}")

    def suff(l: int) -> bool:
        if epsilon * l <= 1.0:
            return False
        return l / (1.0 + math.log(2.0 * l)) * (epsilon - 1.0 / l) ** 2 / 2.0 >= h

    def risk(l: int) -> bool:
        if epsilon * l <= 1.0:
            return False
        return risk_bound(h, l, epsilon).value < delta_risk

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
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if value_pairs is None:
        value_pairs = tuple((0, 1) for _ in range(n))
    else:
        value_pairs = tuple((_index(a, "value_pairs"), _index(b, "value_pairs")) for a, b in value_pairs)
        if len(value_pairs) != n:
            raise ValueError(f"need {n} value pairs, got {len(value_pairs)}")
        for j, (a, b) in enumerate(value_pairs, start=1):
            if a == b:
                raise ValueError(f"position {j} offers only one value; two are required")
    l_points = vc_lower_bound(n, k)
    matrix = []
    for r in range(l_points):
        row = [1] * (k - 1) + [0] * (n - k + 1)
        for w in range(2**l_points):
            row[k - 1 + w] = (w >> (l_points - 1 - r)) & 1
        matrix.append(tuple(row))
    points = tuple(
        tuple(value_pairs[j][bit] for j, bit in enumerate(row)) for row in matrix
    )
    return ShatterWitness(n, k, l_points, tuple(matrix), value_pairs, points)


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


def verify_shattered(witness: ShatterWitness, k: int) -> VerifyResult:
    """Brute-force shattering check over all 2^l_points subsets.

    For each subset indicator s, the first column of the matrix equal to s
    (no fallback to later duplicates) defines the cylinder: positions
    (1..k-1, that column), values taken from the second entry of each value
    pair. The cylinder must pick out exactly the rows where s is 1.

    One pass over the columns maps each column vector (its first l_points
    entries) to the first column that holds it, so each subset finds its
    column with one lookup instead of a scan.
    """
    lp = witness.l_points
    # by index, not zip(*matrix): with l_points == 0 every column is ()
    first_column: dict[tuple[int, ...], int] = {}
    for i in range(witness.n):
        first_column.setdefault(tuple(witness.matrix[r][i] for r in range(lp)), i + 1)
    certs: list[Certificate] = []
    for idx in range(2**lp):
        s = tuple((idx >> (lp - 1 - r)) & 1 for r in range(lp))
        column = first_column.get(s)
        if column is None:
            return VerifyResult(False, tuple(certs), s)
        positions = tuple(range(1, k)) + (column,)
        values = tuple(witness.value_pairs[p - 1][1] for p in positions)
        members = tuple(
            r
            for r in range(lp)
            if all(witness.points[r][p - 1] == v for p, v in zip(positions, values))
        )
        expected = tuple(r for r in range(lp) if s[r] == 1)
        if members != expected:
            return VerifyResult(False, tuple(certs), s)
        certs.append(Certificate(idx, s, column, positions, values, members))
    return VerifyResult(True, tuple(certs), None)


def witness_to_dict(witness: ShatterWitness) -> dict:
    return {
        "n": witness.n,
        "k": witness.k,
        "l_points": witness.l_points,
        "matrix": [list(row) for row in witness.matrix],
        "value_pairs": [list(p) for p in witness.value_pairs],
        "points": [list(p) for p in witness.points],
    }


def verify_result_to_dict(result: VerifyResult) -> dict:
    return {
        "ok": result.ok,
        "failing_subset": list(result.failing_subset) if result.failing_subset is not None else None,
        "certificates": [
            {
                "subset_index": c.subset_index,
                "indicator": list(c.indicator),
                "column": c.column,
                "positions": list(c.positions),
                "values": list(c.values),
                "members": list(c.members),
            }
            for c in result.certificates
        ],
    }


def save_witness(witness: ShatterWitness, result: VerifyResult, path) -> None:
    """Witness plus its verification outcome in one JSON document."""
    with open(path, "w") as f:
        json.dump({"witness": witness_to_dict(witness), "verification": verify_result_to_dict(result)}, f, indent=2)
        f.write("\n")
