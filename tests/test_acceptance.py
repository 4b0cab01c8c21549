"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single
"CRITERION i: PASS/FAIL" line outside pytest's capture, so the suite
output doubles as a checklist. Frozen reference numbers in this module
were computed once with independent tooling (high-precision arithmetic,
brute-force enumeration) and pinned; the tests fail if the package
drifts away from them.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import time

import mpmath
import numpy as np
import pytest

from tuplebn import (
    EXACT_TOL,
    ExactMarginalProvider,
    ExperimentConfig,
    ProviderCiDecider,
    TupleSizeError,
    attach_cpts,
    factorized_joint,
    is_markov_relative,
    marginal,
    random_dag,
    recover_structure,
    required_sample_size,
    risk_bound,
    run_experiment,
    sample,
    shatter_witness,
    tuple_frequencies,
    vc_lower_bound,
    vc_upper_bound,
    verify_shattered,
)
from tuplebn.cli import main


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, f"criterion {num}: {detail}"

    return _report


def _recovery_grid():
    """210 seeded instances spanning n in 4..10, d in {2,3}, delta in 0..2."""
    for seed in range(5):
        for n in range(4, 11):
            for d in (2, 3):
                for delta in (0, 1, 2):
                    yield seed * 1000 + n * 10 + d + delta, n, d, delta


def test_criterion_1_exact_recovery_grid(report):
    start = time.perf_counter()
    total = 0
    good = 0
    for rng_seed, n, d, delta in _recovery_grid():
        dag = random_dag(n, delta, (d,) * n, rng_seed)
        joint = factorized_joint(dag)
        provider = ExactMarginalProvider(joint, 2 * delta + 1)
        decider = ProviderCiDecider(provider, EXACT_TOL)
        skeleton, _ = recover_structure(decider, n, delta)
        recovered = attach_cpts(skeleton, provider).dag
        total += 1
        good += is_markov_relative(joint, recovered, tol=1e-8)
    elapsed = time.perf_counter() - start
    report(
        1,
        total >= 200 and good == total and elapsed < 120.0,
        f"{good}/{total} instances markov-compatible within 1e-08 in {elapsed:.1f}s",
    )


def test_criterion_2_tuple_budget_never_exceeded(report):
    worst_margin = -math.inf
    probes = 0
    for rng_seed, n, d, delta in _recovery_grid():
        budget = 2 * delta + 1
        dag = random_dag(n, delta, (d,) * n, rng_seed)
        joint = factorized_joint(dag)
        provider = ExactMarginalProvider(joint, budget)
        decider = ProviderCiDecider(provider, EXACT_TOL)
        skeleton, _ = recover_structure(decider, n, delta)
        attach_cpts(skeleton, provider)
        assert provider.access_log.max_size <= budget
        worst_margin = max(worst_margin, provider.access_log.max_size - budget)
        if budget + 1 <= n:
            queries_before = provider.access_log.queries
            with pytest.raises(TupleSizeError):
                provider.table(tuple(range(1, budget + 2)))
            assert provider.access_log.queries == queries_before  # refusal not logged
            probes += 1
    report(
        2,
        worst_margin <= 0 and probes > 0,
        f"access log stayed at or under 2*delta+1 on all 210 runs "
        f"(worst margin {worst_margin:+d}); {probes} oversized queries refused",
    )


def test_criterion_3_shatter_witness_grid_and_corruptions(report):
    start = time.perf_counter()
    verified = 0
    for k in range(2, 6):
        for n in range(k, 65):
            witness = shatter_witness(n, k)
            result = verify_shattered(witness)
            assert result.ok, f"witness n={n} k={k} failed verification"
            assert len(result.certificates) == 2 ** witness.l_points
            verified += 1
    elapsed = time.perf_counter() - start

    # Single-bit corruptions of the binary-word block must break verification
    # while the point set is kept from the uncorrupted witness. The last block
    # column holds the all-ones word, whose indicator the leading ones columns
    # also serve; flipping a bit there leaves a matrix that still shatters, so
    # that column is not a corruption candidate.
    detected = 0
    attempted = 0
    for n, k in ((6, 2), (10, 3), (20, 4)):
        witness = shatter_witness(n, k)
        block = range(k - 1, k - 1 + 2 ** witness.l_points - 1)
        for col in block:
            for row in range(witness.l_points):
                rows = [list(r) for r in witness.matrix]
                rows[row][col] ^= 1
                corrupted = dataclasses.replace(
                    witness, matrix=tuple(tuple(r) for r in rows)
                )
                attempted += 1
                detected += not verify_shattered(corrupted).ok
    report(
        3,
        verified == 246 and elapsed < 30.0 and attempted >= 50 and detected == attempted,
        f"{verified} witnesses verified in {elapsed:.1f}s; "
        f"{detected}/{attempted} single-bit corruptions detected",
    )


def _mp_risk_bound(h, l, eps):
    h, l, eps = mpmath.mpf(h), mpmath.mpf(l), mpmath.mpf(eps)
    exponent = (h * (1 + mpmath.log(2 * l / h)) / l - (eps - 1 / l) ** 2) * l
    return 4 * mpmath.e ** exponent


def test_criterion_4_bounds_consistency_and_certified_solvers(report):
    ns = (2, 3, 4, 6, 9, 14, 22, 36, 60, 100, 200, 500)
    grid = [
        (n, k, d)
        for n in ns
        for k in (1, 2, 3, 4, 6)
        for d in (2, 3)
        if k <= n
    ]
    assert len(grid) >= 100
    for n, k, d in grid[:100]:
        assert vc_lower_bound(n, k) <= vc_upper_bound(n, k, d), (n, k, d)

    mpmath.mp.dps = 50
    spots = [
        (h, l, eps)
        for h in (1.0, 2.5, 12.0, 40.0)
        for l in (150, 2000, 50000, 1000000, 4241)
        for eps in (0.05, 0.1, 0.15, 0.5)
        if -700 < risk_bound(h, l, eps).log_value < 700
    ][:20]
    assert len(spots) == 20
    worst_rel = 0.0
    for h, l, eps in spots:
        got = risk_bound(h, l, eps).value
        ref = _mp_risk_bound(h, l, eps)
        worst_rel = max(worst_rel, float(abs(got - ref) / ref))
    assert worst_rel < 5e-10

    params = [
        (8, 3, 2, 0.1, 0.05),
        (8, 3, 2, 0.15, 0.05),
        (16, 3, 2, 0.1, 0.05),
        (100, 5, 4, 0.05, 0.01),
        (6, 2, 3, 0.2, 0.1),
        (1024, 3, 2, 0.1, 0.05),
    ]
    for n, k, d, eps, delta_risk in params:
        sizes = required_sample_size(n, k, d, eps, delta_risk)
        target = k * math.log2(n * d)
        h = vc_upper_bound(n, k, d)

        def suff(l):
            if eps * l <= 1.0:
                return False
            return l / (1.0 + math.log(2.0 * l)) * (eps - 1.0 / l) ** 2 / 2.0 >= target

        def risk(l):
            if eps * l <= 1.0:
                return False
            exponent = (h * (1.0 + math.log(2.0 * l / h)) / l - (eps - 1.0 / l) ** 2) * l
            log_value = math.log(4.0) + exponent
            value = math.exp(log_value) if log_value < 700.0 else math.inf
            return value < delta_risk

        assert suff(sizes.l_suff) and not suff(sizes.l_suff - 1), (n, k, d)
        assert risk(sizes.l_risk) and not risk(sizes.l_risk - 1), (n, k, d)

    report(
        4,
        True,
        f"lower<=upper on 100 grid points; risk bound matches 50-digit reference "
        f"within {worst_rel:.2e} rel on 20 spots; both solvers certified on "
        f"{len(params)} parameter sets",
    )


def test_criterion_5_per_variable_cost_shrinks(report):
    frozen = {
        16: 36625,
        64: 52804,
        256: 69357,
        1024: 86200,
        4096: 103280,
        16384: 120558,
    }
    ratios = []
    for n, expected in frozen.items():
        l_suff = required_sample_size(n, 3, 2, 0.1, 0.05).l_suff
        assert l_suff == expected, (n, l_suff)
        ratios.append(l_suff / n)
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    report(
        5,
        decreasing,
        "l_suff/n strictly decreasing over n=16..16384: "
        + ", ".join(f"{r:.1f}" for r in ratios),
    )


def test_criterion_6_risk_sample_size_controls_deviations(report):
    n, d, k, eps, delta_risk = 8, 2, 3, 0.15, 0.05
    l_risk = required_sample_size(n, k, d, eps, delta_risk).l_risk
    assert l_risk == 4241
    start = time.perf_counter()
    trials = 200
    exceed = 0
    for t in range(trials):
        state = np.random.SeedSequence([606, t]).generate_state(2, dtype=np.uint64)
        dag = random_dag(n, 2, (d,) * n, int(state[0]))
        joint = factorized_joint(dag)
        samples = sample(dag, l_risk, int(state[1]))
        freq = tuple_frequencies(samples, k)
        worst = 0.0
        for pos in itertools.combinations(range(1, n + 1), k):
            emp = freq.dense_counts(pos).astype(np.float64) / l_risk
            exact = marginal(joint, pos)
            worst = max(worst, float(np.abs(emp - exact).max()))
        exceed += worst > eps
    elapsed = time.perf_counter() - start
    frac = exceed / trials
    report(
        6,
        frac < delta_risk and elapsed < 300.0,
        f"{exceed}/{trials} trials exceeded eps={eps} at l={l_risk} "
        f"(bound {delta_risk}) in {elapsed:.1f}s",
    )


def test_criterion_7_empirical_recovery_experiment(report, tmp_path):
    # epsilon was calibrated once on a pilot sweep at this sample size and
    # then pinned together with the master seed.
    config = ExperimentConfig(
        n=6,
        delta=1,
        cards=(2,) * 6,
        alpha=1.0,
        floor=0.05,
        sample_sizes=(100000,),
        epsilon=0.0015,
        delta_risk=0.05,
        trials=50,
        seed=20260814,
        output_dir=str(tmp_path / "exp"),
        markov_tol=1e-2,
    )
    summary = run_experiment(config)
    cell = summary["per_l"][0]
    rate = cell["markov_ok_rate"]
    report(
        7,
        rate >= 0.90 and cell["outcomes"]["error"] == 0,
        f"markov-ok rate {rate:.2f} over {cell['trials']} trials at l=100000 "
        f"(threshold 0.90), outcomes {cell['outcomes']}",
    )


def _digest(path):
    return hashlib.md5(path.read_bytes()).hexdigest()


def test_criterion_8_byte_identical_artifacts(report, tmp_path):
    def run(args):
        assert main(args) == 0, args

    pairs = []

    for tag in ("a", "b"):
        base = tmp_path / tag
        base.mkdir()
        net = base / "net.json"
        csv_path = base / "data.csv"
        run(["generate", "--n", "5", "--delta", "2", "--d", "2", "--seed", "99",
             "--output", str(net)])
        run(["sample", "--dag", str(net), "--l", "2000", "--seed", "7",
             "--output", str(csv_path)])
        run(["estimate", "--samples", str(csv_path), "--k", "3",
             "--output", str(base / "freq.json")])
        run(["recover", "--mode", "exact", "--dag", str(net), "--delta", "2",
             "--trace", str(base / "trace.json"), "--output", str(base / "exact.json")])
        run(["recover", "--mode", "empirical", "--samples", str(csv_path),
             "--delta", "2", "--epsilon", "0.01", "--output", str(base / "emp.json")])
        run(["witness", "--n", "12", "--k", "3", "--output", str(base / "wit.json")])
        run(["bounds", "--n", "5", "--k", "3", "--d", "2", "--epsilon", "0.1",
             "--delta-risk", "0.05", "--format", "json", "--output", str(base / "bounds.json")])
    names = ["net.json", "data.csv", "freq.json", "trace.json", "exact.json",
             "emp.json", "wit.json", "bounds.json"]
    for name in names:
        pairs.append((name, _digest(tmp_path / "a" / name), _digest(tmp_path / "b" / name)))

    # the experiment reruns into the same directory and must overwrite with
    # identical bytes
    exp_dir = tmp_path / "exp"
    cfg = {
        "n": 4, "delta": 1, "d": 2, "floor": 0.05,
        "sample_sizes": [500], "epsilon": 0.01, "delta_risk": 0.05,
        "trials": 3, "seed": 11, "output_dir": str(exp_dir),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    run(["experiment", "--config", str(cfg_path)])
    first = {p: _digest(exp_dir / p) for p in ("trials.csv", "summary.json")}
    run(["experiment", "--config", str(cfg_path)])
    for p, digest in first.items():
        pairs.append((p, digest, _digest(exp_dir / p)))

    mismatched = [name for name, x, y in pairs if x != y]
    report(
        8,
        not mismatched,
        f"{len(pairs)} artifacts byte-identical across reruns"
        + (f"; MISMATCH: {mismatched}" if mismatched else ""),
    )
