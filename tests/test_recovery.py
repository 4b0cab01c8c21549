import io
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tuplebn import (
    EXACT_TOL,
    DiscreteDag,
    EmpiricalMarginalProvider,
    ExactMarginalProvider,
    FrequencyTable,
    ModelViolationError,
    ProviderCiDecider,
    Skeleton,
    attach_cpts,
    empirical_ci_decider,
    exact_ci_decider,
    factorized_joint,
    is_markov_relative,
    random_dag,
    recover_structure,
    sample,
    tuple_frequencies,
)
from tuplebn import recovery
from tuplebn.recovery import NodeTrace, RecoveryTrace, RemovalStep, _usable_tuple_size


def test_chain_recovery(chain_joint):
    decider = exact_ci_decider(chain_joint, 1)
    skeleton, trace = recover_structure(decider, 3, 1)
    assert skeleton.parents == ((), (1,), (2,))
    assert [t.node for t in trace.nodes] == [1, 2, 3]
    # node 3 first tests K={1}, rejects it, then accepts K={2}
    assert trace.nodes[2].tested[0] == (1,)
    assert trace.nodes[2].accepted == (2,)


def test_product_measure_recovers_empty(product_joint):
    for delta in (0, 1, 2):
        skeleton, _ = recover_structure(exact_ci_decider(product_joint, delta), 3, delta)
        assert skeleton.parents == ((), (), ())


def test_exact_decider_sees_a_dependence_just_above_its_tolerance():
    # x2 moves x1's mass by 1e-7: a statistic of 2.5e-8, above EXACT_TOL
    # = 1e-9 but below a threshold of 1e-6
    cpts = [np.array([[0.5, 0.5]]), np.array([[0.5, 0.5], [0.5 + 1e-7, 0.5 - 1e-7]])]
    joint = factorized_joint(DiscreteDag(2, (2, 2), 1, ((), (1,)), cpts))
    skeleton, _ = recover_structure(exact_ci_decider(joint, 1), 2, 1)
    assert skeleton.parents == ((), (1,))


def test_xor_needs_both_parents(xor_joint):
    skeleton, _ = recover_structure(exact_ci_decider(xor_joint, 2), 3, 2)
    assert skeleton.parents[2] == (1, 2)
    with pytest.raises(ModelViolationError) as exc:
        recover_structure(exact_ci_decider(xor_joint, 1), 3, 1)
    assert exc.value.node == 3


def test_delta_zero_vacuous(chain_joint):
    skeleton, _ = recover_structure(exact_ci_decider(chain_joint, 0), 3, 0)
    assert skeleton.parents == ((), (), ())


def node_3_minimization(joint):
    _, trace = recover_structure(exact_ci_decider(joint, 2), 3, 2)
    node = trace.nodes[2]
    assert node.accepted == (1, 2)
    return node.parents, [(s.removed, s.kept) for s in node.removals]


def test_minimize_parent_set_chain(chain_joint):
    # dropping 1 keeps X3 screened by X2; dropping 2 then fails, twice
    # because the pass that removed 1 starts another
    parents, removals = node_3_minimization(chain_joint)
    assert parents == (2,)
    assert removals == [(1, True), (2, False), (2, False)]


def test_minimize_independent_measure(product_joint):
    parents, removals = node_3_minimization(product_joint)
    assert parents == ()
    assert removals == [(1, True), (2, True)]


def test_attach_cpts_inverts_factorization(chain_dag, chain_joint):
    provider = ExactMarginalProvider(chain_joint, 3)
    decider = ProviderCiDecider(provider, EXACT_TOL)
    skeleton, _ = recover_structure(decider, 3, 1)
    result = attach_cpts(skeleton, provider)
    assert result.uniform_rows == ()
    for mine, true in zip(result.dag.cpts, chain_dag.cpts):
        assert np.allclose(mine, true, atol=1e-10)


def test_attach_cpts_zero_mass_uniform_row():
    # a measure with a dead parent configuration: X1 is the constant 0
    dead = DiscreteDag(
        2, (2, 2), 1, ((), (1,)),
        [np.array([[1.0, 0.0]]), np.array([[0.3, 0.7], [0.6, 0.4]])],
    )
    joint = factorized_joint(dead)
    provider = ExactMarginalProvider(joint, 3)
    skeleton = Skeleton(2, 1, ((), (1,)))
    result = attach_cpts(skeleton, provider)
    assert result.uniform_rows == ((2, 1),)  # parent value 1 never occurs
    assert np.allclose(result.dag.cpts[1][1], [0.5, 0.5])
    assert np.allclose(result.dag.cpts[1][0], [0.3, 0.7], atol=1e-12)


def test_recovery_and_attach_refuse_bad_sizes_by_name(chain_joint):
    provider = ExactMarginalProvider(chain_joint, 3)
    decider = ProviderCiDecider(provider, EXACT_TOL)
    with pytest.raises(ValueError, match="n: expected an integer, got 3.0"):
        recover_structure(decider, 3.0, 1)
    with pytest.raises(ValueError, match="delta: expected an integer, got True"):
        recover_structure(decider, 3, True)
    with pytest.raises(ValueError, match="skeleton has n=2 but the provider has 3 variables"):
        attach_cpts(Skeleton(2, 1, ((), (1,))), provider)
    with pytest.raises(ValueError, match="skeleton has n=4 but the provider has 3 variables"):
        attach_cpts(Skeleton(4, 1, ((), (1,), (2,), (3,))), provider)
    assert recover_structure(decider, np.int64(3), np.int64(1)) == recover_structure(decider, 3, 1)


def test_recovered_structure_markov_on_random_instances():
    for seed in range(20):
        dag = random_dag(6, 2, (2,) * 6, seed=seed)
        joint = factorized_joint(dag)
        provider = ExactMarginalProvider(joint, 5)
        skeleton, _ = recover_structure(ProviderCiDecider(provider, EXACT_TOL), 6, 2)
        rec = attach_cpts(skeleton, provider).dag
        assert is_markov_relative(joint, rec, tol=1e-8)
        assert provider.access_log.max_size <= 5


def test_recovery_deterministic(chain_joint):
    runs = [recover_structure(exact_ci_decider(chain_joint, 1), 3, 1) for _ in range(2)]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1].to_dict() == runs[1][1].to_dict()


def test_trace_json_round_trip(chain_joint):
    # the trace JSON is an output only; read it back node by node
    _, trace = recover_structure(exact_ci_decider(chain_joint, 1), 3, 1)
    data = json.load(io.StringIO(json.dumps(trace.to_dict())))
    assert len(data["nodes"]) == len(trace.nodes)
    for written, node in zip(data["nodes"], trace.nodes):
        assert (written["node"], written["m"]) == (node.node, node.m)
        assert [tuple(K) for K in written["tested"]] == node.tested
        assert written["accepted"] is not None and tuple(written["accepted"]) == node.accepted
        assert [RemovalStep(**s) for s in written["removals"]] == node.removals
        assert tuple(written["parents"]) == node.parents
    assert data["nodes"][2]["parents"] == [2]


def test_empirical_recovery_on_chain(chain_dag, chain_joint):
    s = sample(chain_dag, 100_000, seed=21)
    provider = EmpiricalMarginalProvider(tuple_frequencies(s, 3))
    decider = empirical_ci_decider(provider, 0.0015)
    skeleton, _ = recover_structure(decider, 3, 1)
    rec = attach_cpts(skeleton, provider).dag
    assert is_markov_relative(chain_joint, rec, tol=1e-2)
    assert provider.access_log.max_size <= 3


def test_empirical_recovery_counts_only_the_sets_it_reads(monkeypatch):
    # recovery reads a small share of the C(24, 5) = 42,504 position sets,
    # and only those are counted
    counted = set()
    count = FrequencyTable._count

    def counting(self, pos):
        if len(pos) == 5:
            counted.add(pos)
        return count(self, pos)

    monkeypatch.setattr(FrequencyTable, "_count", counting)
    dag = random_dag(24, 2, 2, seed=0)
    freq = tuple_frequencies(sample(dag, 20_000, seed=100), 5)
    provider = EmpiricalMarginalProvider(freq)
    recover_structure(empirical_ci_decider(provider, 0.01), 24, 2)
    assert 0 < len(counted) < math.comb(24, 5) / 10
    assert provider.access_log.max_size == 5


def test_decider_validates_threshold(chain_joint):
    provider = ExactMarginalProvider(chain_joint, 3)
    with pytest.raises(ValueError):
        ProviderCiDecider(provider, 0.0)
    with pytest.raises(ValueError):
        empirical_ci_decider(provider, -0.1)
    for value in ("0.1", None):
        with pytest.raises(ValueError, match=f"^threshold: expected a number, got {value!r}"):
            ProviderCiDecider(provider, value)
        with pytest.raises(ValueError, match=f"^epsilon: expected a number, got {value!r}"):
            empirical_ci_decider(provider, value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_decider_refuses_nan_and_infinite_thresholds(chain_joint, value):
    provider = ExactMarginalProvider(chain_joint, 3)
    with pytest.raises(ValueError, match="^threshold must be finite"):
        ProviderCiDecider(provider, value)
    with pytest.raises(ValueError, match="^epsilon must be finite"):
        empirical_ci_decider(provider, value)


def test_budget_never_exceeded_with_tight_provider(chain_joint):
    # a provider budgeted at exactly 2*delta+1 never sees an oversized query
    for delta in (0, 1, 2):
        provider = ExactMarginalProvider(chain_joint, 2 * delta + 1)
        recover_structure(ProviderCiDecider(provider, EXACT_TOL), 3, delta)
        assert provider.access_log.max_size <= 2 * delta + 1


def test_model_violation_names_node_and_exhausts_candidates(xor_joint):
    decider = exact_ci_decider(xor_joint, 1)
    with pytest.raises(ModelViolationError) as exc:
        recover_structure(decider, 3, 1)
    assert exc.value.node == 3
    assert "node 3" in str(exc.value)
    assert "2 candidate" in str(exc.value)  # both size-1 subsets of {1,2} tried


# CPT families where a Dirichlet draw's generic signals vanish: a parity or a
# random function of the parents, either exact or mixed with uniform noise,
# and random rows with zero entries
CPT_FAMILIES = ("parity", "deterministic", "noisy-parity", "near-deterministic", "zero-rows")


@st.composite
def stress_networks(draw):
    n = draw(st.integers(1, 7))
    delta = draw(st.integers(1, 2))
    cards = draw(st.lists(st.sampled_from((1, 2, 2, 3)), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parents, cpts = [], []
    for j in range(1, n + 1):
        ps = sorted(draw(st.lists(st.integers(1, j - 1), max_size=delta, unique=True)) if j > 1 else [])
        family = draw(st.sampled_from(CPT_FAMILIES))
        d = cards[j - 1]
        shape = [cards[p - 1] for p in ps]
        configs = np.array(list(itertools.product(*map(range, shape))), dtype=int).reshape(math.prod(shape), len(ps))
        if family == "zero-rows":
            rows = rng.dirichlet(np.ones(d), size=len(configs)) * (rng.random((len(configs), d)) < 0.5)
            rows[rows.sum(axis=1) == 0, rng.integers(d)] = 1.0
            rows /= rows.sum(axis=1, keepdims=True)
        else:
            values = configs.sum(axis=1) % d if "parity" in family else rng.integers(0, d, size=len(configs))
            noise = draw(st.floats(0.01, 0.2)) if family.startswith(("noisy", "near")) else 0.0
            rows = (1 - noise) * np.eye(d)[values] + noise / d
        parents.append(ps)
        cpts.append(rows)
    return DiscreteDag(n, cards, delta, parents, cpts)


@settings(max_examples=150, deadline=None)
@given(dag=stress_networks())
def test_exact_recovery_beyond_dirichlet_networks(dag):
    # the source in-degree is <= delta, so by weak union some conditioning
    # set of size m passes for every node: no model violation, and the
    # rebuilt network factorizes the joint
    joint = factorized_joint(dag)
    decider = exact_ci_decider(joint, dag.delta)
    skeleton, _ = recover_structure(decider, dag.n, dag.delta)
    rebuilt = attach_cpts(skeleton, decider.provider).dag
    assert is_markov_relative(joint, rebuilt, tol=1e-9)


def lexicographic_recovery(decider, n, delta):
    """The search with every battery in lexicographic order, sizes first:
    the skeleton and trace dict, or the text of the ModelViolationError,
    that ``recover_structure`` must give too."""

    def passes(j, cond, m):
        decider.start()
        rest = [p for p in range(1, j) if p not in cond]
        sets = (L for size in range(1, m + 1) for L in itertools.combinations(rest, size))
        return all(decider.decide((j,), L, cond) for L in sets)

    trace, parents = RecoveryTrace(), []
    for j in range(1, n + 1):
        m = min(j - 1, delta)
        node = NodeTrace(node=j, m=m)
        for K in itertools.combinations(range(1, j), m):
            node.tested.append(K)
            if passes(j, K, m):
                node.accepted = K
                break
        else:
            return str(ModelViolationError(j, f"all {len(node.tested)} candidate sets of size {m} failed"))
        current, changed = list(node.accepted), True
        while changed:
            changed = False
            for c in sorted(current):
                reduced = tuple(p for p in current if p != c)
                kept = passes(j, reduced, m)
                node.removals.append(RemovalStep(c, kept))
                if kept:
                    current, changed = list(reduced), True
        node.parents = tuple(sorted(current))
        trace.nodes.append(node)
        parents.append(node.parents)
    return Skeleton(n, delta, tuple(parents)), trace.to_dict()


def recovery_outcome(decider, n, delta):
    try:
        skeleton, trace = recover_structure(decider, n, delta)
    except ModelViolationError as exc:
        return str(exc)
    return skeleton, trace.to_dict()


class DecisionLog:
    """A decider that passes each query on, counts them, and keeps, for
    each battery opened by ``start``, the size of the largest L it was
    asked about."""

    def __init__(self, inner):
        self.inner = inner
        self.provider = inner.provider
        self.calls = 0
        self.largest = [0]

    def start(self):
        self.largest.append(0)

    def decide(self, X, L, K):
        self.calls += 1
        self.largest[-1] = max(self.largest[-1], len(L))
        return self.inner.decide(X, L, K)


def paired_deciders(dag, delta, empirical, epsilon=0.01, l=2000, seed=0):
    """Two deciders of one kind over the same data, each with its own provider."""
    if not empirical:
        joint = factorized_joint(dag)
        return [exact_ci_decider(joint, delta) for _ in range(2)]
    freq = tuple_frequencies(sample(dag, l, seed), _usable_tuple_size(delta, dag.n))
    return [empirical_ci_decider(EmpiricalMarginalProvider(freq), epsilon) for _ in range(2)]


@st.composite
def order_cases(draw):
    """A network and the in-degree bound to recover it at. A random_dag of
    in-degree delta + 1 often leaves no set of size delta that passes, so
    the ModelViolationError path runs too; a stress network's parity nodes
    make batteries that fail only at a pair of L."""
    if draw(st.booleans()):
        dag = draw(stress_networks())
        return dag, dag.delta
    n, delta = draw(st.integers(1, 8)), draw(st.integers(1, 2))
    d = draw(st.sampled_from((2, 3, (2, 3))))
    cards = tuple(d[j % 2] for j in range(n)) if isinstance(d, tuple) else d
    return random_dag(n, delta + draw(st.booleans()), cards, draw(st.integers(0, 2**32 - 1))), delta


# X6 = X4 xor X5, X4 a noisy copy of X2: a battery of node 6 fails at the
# pair (2, 5) and a later one, given X4, at the single X5, so a search that
# tried a remembered pair before the singles would read a larger tuple
PAIR_THEN_SINGLE = DiscreteDag(6, (2,) * 6, 2, ((), (), (), (2,), (), (4, 5)), [
    *[np.array([[0.5, 0.5]])] * 3,
    np.array([[0.9, 0.1], [0.1, 0.9]]),
    np.array([[0.5, 0.5]]),
    np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
])


@settings(max_examples=200, deadline=None)
@given(case=order_cases(), empirical=st.booleans(), epsilon=st.sampled_from((0.002, 0.01, 0.03)))
@example(case=(PAIR_THEN_SINGLE, 2), empirical=False, epsilon=0.01)
def test_failure_first_order_searches_as_the_lexicographic_order(case, empirical, epsilon):
    dag, delta = case
    n = dag.n
    ordered, lexicographic = map(DecisionLog, paired_deciders(dag, delta, empirical, epsilon))
    battery = recovery._passes_battery

    def logged(decider, *args):
        decider.start()
        return battery(decider, *args)

    with mock.patch.object(recovery, "_passes_battery", logged):
        outcome = recovery_outcome(ordered, n, delta)
    assert outcome == lexicographic_recovery(lexicographic, n, delta)
    assert ordered.provider.access_log.max_size == lexicographic.provider.access_log.max_size
    # each battery reads the sizes of L in order, so its largest tuple is the same
    assert ordered.largest == lexicographic.largest


@pytest.mark.parametrize("empirical", [False, True])
@pytest.mark.parametrize("source_delta, violation", [(2, False), (3, True)])
def test_recoveries_in_one_process_make_the_same_decisions(empirical, source_delta, violation):
    # the failures a search tries first are kept for one node of one call,
    # so a second call with the same decider repeats the first one
    dag = random_dag(8, source_delta, 2, seed=0)
    decider = DecisionLog(paired_deciders(dag, 2, empirical, epsilon=0.002, l=20_000)[0])
    runs = []
    for _ in range(2):
        before = decider.calls
        outcome = recovery_outcome(decider, 8, 2)
        runs.append((outcome, decider.calls - before))
    assert runs[0] == runs[1]
    assert isinstance(runs[0][0], str) == violation
