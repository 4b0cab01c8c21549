"""Parent configurations of zero mass.

``is_markov_relative`` gives such a configuration a zero conditional, and
``attach_cpts`` divides with a ``where=`` mask. Both are checked here
against the earlier loop and skip-mask forms, kept below as references, on
networks whose CPTs have zero entries, so that some parent configurations
never occur. The product ``is_markov_relative`` checks against, which
``model._factor_product`` builds, must have the reference's bits.
"""

import itertools
import math

import numpy as np
import pytest

from tuplebn import (
    EXACT_TOL,
    DiscreteDag,
    EmpiricalMarginalProvider,
    ExactMarginalProvider,
    Skeleton,
    attach_cpts,
    exact_ci_decider,
    factorized_joint,
    is_markov_relative,
    marginal,
    random_dag,
    recover_structure,
    sample,
    save_dag,
    tuple_frequencies,
)
from tuplebn.cli import EXIT_OK, main
from tuplebn.model import _factor_product

CARDS = (2, 3, 2, 2, 3, 2)
DELTA = 2


def reference_is_markov_relative(joint, dag, tol):
    """The skip-mask form: configurations of zero parent mass are masked out.
    Returns the answer, the product of the conditionals and d, the largest
    |P - Q| of the joint P and that product Q."""
    full = joint.array
    product = np.ones_like(full)
    skip = np.zeros(full.shape, dtype=bool)
    for j in range(1, joint.n + 1):
        union = tuple(sorted(dag.parents[j - 1] + (j,)))
        shape = [c if a in union else 1 for a, c in enumerate(joint.cards, start=1)]
        m_union = marginal(joint, union).reshape(shape)
        m_par = m_union.sum(axis=j - 1, keepdims=True)
        safe = m_par > 0
        cond = np.divide(m_union, np.where(safe, m_par, 1.0))
        product *= np.where(np.broadcast_to(safe, cond.shape), cond, 0.0)
        skip |= ~safe
    gap = np.abs(full - product)
    return bool(np.all((gap <= tol) | skip)), product, float(gap.max())


def conditionals(joint, parents):
    """Each node's (*parents, j) marginal as a (parent configurations, d_j)
    table, each row divided by its sum, 0 where that sum is 0."""
    tables = []
    for j, ps in enumerate(parents, start=1):
        rows = marginal(joint, (*ps, j)).reshape(-1, joint.cards[j - 1])
        sums = rows.sum(axis=1, keepdims=True)
        tables.append(np.divide(rows, sums, out=np.zeros_like(rows), where=sums > 0))
    return tables


def reference_attach_cpts(skeleton, provider):
    """The per-configuration loop: (CPTs, flagged (node, config) pairs)."""
    cards = provider.cards
    flagged = []
    cpts = []
    for j in range(1, skeleton.n + 1):
        ps = skeleton.parents[j - 1]
        d_j = cards[j - 1]
        if ps:
            union = tuple(sorted((*ps, j)))
            n_cfg = int(np.prod([cards[p - 1] for p in ps]))
            joint_rows = provider.table(union).reshape(n_cfg, d_j)
            mass = provider.table(ps).reshape(n_cfg)
        else:
            n_cfg = 1
            joint_rows = provider.table((j,)).reshape(1, d_j)
            mass = np.ones(1)
        rows = np.empty((n_cfg, d_j))
        for cfg in range(n_cfg):
            if mass[cfg] > 0:
                rows[cfg] = np.minimum(joint_rows[cfg] / mass[cfg], 1.0)
            else:
                rows[cfg] = np.full(d_j, 1.0 / d_j)
                flagged.append((j, cfg))
        cpts.append(rows)
    return cpts, tuple(flagged)


def zeroed_dag(seed, cards=CARDS):
    """A random network with about 40% of its CPT entries set to 0."""
    dag = random_dag(len(cards), DELTA, cards, seed)
    rng = np.random.default_rng(seed)
    cpts = []
    for cpt in dag.cpts:
        rows = np.where(rng.random(cpt.shape) < 0.4, 0.0, cpt)
        rows[rows.sum(axis=1) == 0, 0] = 1.0
        cpts.append(rows / rows.sum(axis=1, keepdims=True))
    return DiscreteDag(dag.n, dag.cards, dag.delta, dag.parents, cpts)


def probe(dag, parents):
    """The parent sets ``parents`` over ``dag``'s variables, with uniform
    CPTs; ``is_markov_relative`` reads only the parents."""
    cpts = [np.full((math.prod(dag.cards[p - 1] for p in ps), d), 1.0 / d) for ps, d in zip(parents, dag.cards)]
    return DiscreteDag(dag.n, dag.cards, dag.n, parents, cpts)


def structures(dag, recovered):
    """Parent sets to test: recovered, two supersets and two wrong ones."""
    n = dag.n
    return {
        "recovered": recovered,
        "generating": dag.parents,
        "all predecessors": tuple(tuple(range(1, j)) for j in range(1, n + 1)),
        "empty": ((),) * n,
        "chain": tuple((j - 1,) if j > 1 else () for j in range(1, n + 1)),
    }


@pytest.mark.parametrize("cards, seed", [
    *(pytest.param(CARDS, seed, id=str(seed)) for seed in range(8)),
    # card-1 variables, and a node of 12 values whose row sums run past
    # numpy's 8-element pairwise block
    *(pytest.param((2, 1, 3, 12, 2, 2, 1), seed, id=f"mixed-cards-{seed}") for seed in range(8)),
])
def test_is_markov_relative_matches_skip_mask_form(cards, seed):
    dag = zeroed_dag(seed, cards)
    joint = factorized_joint(dag)
    skeleton, _ = recover_structure(exact_ci_decider(joint, DELTA), dag.n, DELTA)
    answers = set()
    for name, parents in structures(dag, skeleton.parents).items():
        structure = probe(dag, parents)
        _, product, d = reference_is_markov_relative(joint, structure, 0.0)
        assert _factor_product(joint.cards, parents, conditionals(joint, parents)).tobytes() == product.tobytes(), name
        if d > 0:
            assert is_markov_relative(joint, structure, tol=d), name
            assert not is_markov_relative(joint, structure, tol=np.nextafter(d, 0)), name
        for tol in (0.0, EXACT_TOL, 1e-2):
            mine = is_markov_relative(joint, structure, tol=tol)
            assert mine == reference_is_markov_relative(joint, structure, tol)[0], (name, tol)
            answers.add(mine)
    assert is_markov_relative(joint, probe(dag, skeleton.parents))
    assert answers == {True, False}


def test_networks_have_dead_parent_configurations():
    dead = 0
    for seed in range(8):
        joint = factorized_joint(zeroed_dag(seed))
        for j in range(2, joint.n + 1):
            for ps in itertools.combinations(range(1, j), min(j - 1, DELTA)):
                dead += int(np.count_nonzero(marginal(joint, ps) == 0))
    assert dead > 0


def attach_cases(seed):
    """(skeleton, provider) pairs over ``zeroed_dag(seed)``: exact and
    empirical marginals, recovered, generating and all-predecessor parents."""
    dag = zeroed_dag(seed)
    joint = factorized_joint(dag)
    freq = tuple_frequencies(sample(dag, 500, seed), 2 * DELTA + 1)
    skeleton, _ = recover_structure(exact_ci_decider(joint, DELTA), dag.n, DELTA)
    fat = Skeleton(dag.n, dag.n, tuple(tuple(range(1, j)) for j in range(1, dag.n + 1)))
    return [
        (skeleton, ExactMarginalProvider(joint, joint.n)),
        (fat, ExactMarginalProvider(joint, joint.n)),
        (skeleton, EmpiricalMarginalProvider(freq)),
        (Skeleton(dag.n, DELTA, dag.parents), EmpiricalMarginalProvider(freq)),
    ]


@pytest.mark.parametrize("seed", range(8))
def test_attach_cpts_matches_loop_form(seed):
    flagged = 0
    for skel, provider in attach_cases(seed):
        result = attach_cpts(skel, provider)
        ref_cpts, ref_flagged = reference_attach_cpts(skel, provider)
        assert result.uniform_rows == ref_flagged
        assert [c.tobytes() for c in result.dag.cpts] == [c.tobytes() for c in ref_cpts]
        flagged += len(ref_flagged)
    assert flagged > 0


@pytest.mark.parametrize("seed", range(8))
def test_attach_cpts_entries_are_probabilities(seed):
    for skel, provider in attach_cases(seed):
        for cpt in attach_cpts(skel, provider).dag.cpts:
            assert cpt.min() >= 0.0 and cpt.max() <= 1.0


@pytest.mark.parametrize("seed", range(3))
def test_exact_recovery_output_samples_from_the_cli(seed, tmp_path):
    # without the clamp at 1, exact recovery of each of these networks writes
    # a CPT entry of 1.0000000000000002, which the network check refuses
    net, recovered = tmp_path / "net.json", tmp_path / "recovered.json"
    save_dag(zeroed_dag(seed), net)
    recover = ["recover", "--mode", "exact", "--dag", str(net), "--delta", str(DELTA), "--output", str(recovered)]
    assert main(recover) == EXIT_OK
    assert main(["sample", "--dag", str(recovered), "--l", "10", "--seed", "0", "--output", str(tmp_path / "s.csv")]) == EXIT_OK
