"""Command-line interface.

Subcommands cover the full pipeline: generate, sample, estimate, recover,
bounds, witness, experiment. Exit codes are a stable contract: 0 success,
1 usage or I/O failure, 2 structure recovery hit a model violation (no
admissible parent set at the given in-degree bound). argparse normally
exits 2 on usage errors, which would collide with the model-violation code,
so the parser here exits 1 instead.

``main`` looks up ``cmd_<command>`` in this module when it runs, not in the
cached parser, so a handler replaced on the module (as a tracer does) runs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import sys

import numpy as np

from . import __version__
from .estimation import (
    EmpiricalMarginalProvider,
    load_samples,
    sample,
    save_frequencies,
    save_samples,
    tuple_frequencies,
)
from .model import _json_pieces, _write_json, factorized_joint, load_dag, random_dag, save_dag
from .oracle import is_markov_relative
from .recovery import (
    ModelViolationError,
    _empirical_threshold,
    _tuple_budget,
    _usable_tuple_size,
    attach_cpts,
    empirical_ci_decider,
    exact_ci_decider,
    recover_structure,
)
from .experiment import load_config, run_experiment
from .vcbounds import (
    cylinder_count,
    required_sample_size,
    save_witness,
    shatter_witness,
    vc_lower_bound,
    vc_upper_bound,
    verify_shattered,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MODEL_VIOLATION = 2

MARKOV_CHECK_TOL = 1e-8


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_cards(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"cards must be comma-separated integers, got {text!r}")


def _non_negative(text: str) -> int:
    """A seed or an in-degree bound, checked here so that argparse names the
    option; the code it feeds refuses a negative one with a message that
    names no option."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _parse_value_pairs(text: str) -> tuple[tuple[int, int], ...]:
    try:
        return tuple((int(a), int(b)) for a, b in (item.split(":") for item in text.split(",")))
    except ValueError:
        raise ValueError(f"value pairs must look like 0:1,0:1,..., got {text!r}")


def cmd_generate(args) -> int:
    if (args.d is None) == (args.cards is None):
        raise ValueError("exactly one of --d or --cards is required")
    cards = args.d if args.d is not None else _parse_cards(args.cards)
    dag = random_dag(args.n, args.delta, cards, args.seed, alpha=args.alpha, floor=args.floor)
    save_dag(dag, args.output)
    print(f"generated n={dag.n} delta={dag.delta} -> {args.output}")
    return EXIT_OK


def cmd_sample(args) -> int:
    dag = load_dag(args.dag)
    samples = sample(dag, args.l, args.seed)
    save_samples(samples, args.output)
    print(f"sampled l={samples.l} n={samples.n} -> {args.output}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    cards = _parse_cards(args.cards) if args.cards else None
    samples = load_samples(args.samples, cards)
    freq = tuple_frequencies(samples, args.k)
    save_frequencies(freq, args.output)  # counts every position set
    realized = sum(int(np.count_nonzero(arr)) for arr in freq.counts.values())
    print(f"counted {realized} realized {args.k}-tuple keys from l={samples.l} -> {args.output}")
    return EXIT_OK


def cmd_recover(args) -> int:
    budget = _tuple_budget(args.delta)
    if args.mode == "exact":
        if not args.dag:
            raise ValueError("--dag is required in exact mode")
        joint = factorized_joint(load_dag(args.dag))
        decider = exact_ci_decider(joint, args.delta)
    else:
        if not args.samples:
            raise ValueError("--samples is required in empirical mode")
        if args.epsilon is None:
            raise ValueError("--epsilon is required in empirical mode")
        threshold = _empirical_threshold(args.epsilon)  # before the samples are read
        cards = _parse_cards(args.cards) if args.cards else None
        samples = load_samples(args.samples, cards)
        freq = tuple_frequencies(samples, _usable_tuple_size(args.delta, samples.n))
        decider = empirical_ci_decider(EmpiricalMarginalProvider(freq), args.epsilon)
    provider = decider.provider
    skeleton, trace = recover_structure(decider, provider.n, args.delta)
    result = attach_cpts(skeleton, provider)
    save_dag(result.dag, args.output)
    if args.trace:
        _write_json(trace.to_dict(), args.trace)
    if args.mode == "exact":
        ok = is_markov_relative(joint, result.dag, tol=MARKOV_CHECK_TOL)
        print(f"markov-compatible: {str(ok).lower()} (tolerance {MARKOV_CHECK_TOL})")
    else:
        print(
            f"decider: empirical, epsilon={args.epsilon}, dependence threshold={threshold}"
            f" ({len(result.uniform_rows)} zero-mass rows made uniform)"
        )
    log = provider.access_log
    print(f"max tuple size accessed: {log.max_size} (budget {budget}, {log.queries} queries)")
    print(f"recovered parents -> {args.output}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    counts = cylinder_count(args.n, args.k, args.d)
    sizes = required_sample_size(args.n, args.k, args.d, args.epsilon, args.delta_risk)
    report = {
        "n": args.n,
        "k": args.k,
        "d": args.d,
        "epsilon": args.epsilon,
        "delta_risk": args.delta_risk,
        "cylinder_count_exact": counts.exact,
        "cylinder_count_crude": counts.crude,
        # with one value per position every cylinder holds the one point
        "vc_lower": vc_lower_bound(args.n, args.k) if args.d > 1 else 0,
        "vc_upper": vc_upper_bound(args.n, args.k, args.d),
        "vc_upper_tight": vc_upper_bound(args.n, args.k, args.d, tight=True),
        "l_suff": sizes.l_suff,
        "l_risk": sizes.l_risk,
    }
    with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as f:
        if args.format == "json":
            f.writelines(_json_pieces(report))
        else:
            f.writelines(f"{key}: {value}\n" for key, value in report.items())
    return EXIT_OK


def cmd_witness(args) -> int:
    pairs = _parse_value_pairs(args.value_pairs) if args.value_pairs else None
    witness = shatter_witness(args.n, args.k, pairs)
    result = verify_shattered(witness)
    if args.output:
        save_witness(witness, result, args.output)
    print(
        f"points={witness.l_points} subsets={2 ** witness.l_points} "
        f"shattered={str(result.ok).lower()}"
    )
    if not result.ok:
        print(f"verification failed at subset {list(result.failing_subset)}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = load_config(args.config)
    if args.output_dir:
        config = dataclasses.replace(config, output_dir=args.output_dir)
    summary = run_experiment(config, write_timings=args.timings)
    for entry in summary["per_l"]:
        dev = entry["max_freq_dev_max"]
        print(
            f"l={entry['l']}: markov-ok {entry['markov_ok_rate']:.3f}, "
            f"graph-equal {entry['graph_equal_rate']:.3f}, "
            f"max freq dev {'n/a' if dev is None else f'{dev:.5f}'}, "
            f"risk bound {entry['risk_bound']:.3g}"
        )
    print(f"reports -> {config.output_dir}")
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="tuplebn", description="Bounded in-degree network tools: sampling, recovery, VC bounds.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a random network and write it as JSON")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--delta", type=_non_negative, required=True, help="max in-degree")
    p.add_argument("--d", type=int, help="uniform cardinality")
    p.add_argument("--cards", help="per-variable cardinalities, e.g. 2,3,2")
    p.add_argument("--alpha", type=float, default=1.0, help="CPT row concentration")
    p.add_argument("--floor", type=float, default=0.01, help="minimum CPT entry")
    p.add_argument("--seed", type=_non_negative, required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("sample", help="draw records from a network into CSV")
    p.add_argument("--dag", required=True, help="network JSON file")
    p.add_argument("--l", type=int, required=True, help="number of records")
    p.add_argument("--seed", type=_non_negative, required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("estimate", help="count k-tuple frequencies from samples")
    p.add_argument("--samples", required=True, help="samples CSV file")
    p.add_argument("--k", type=int, required=True, help="tuple size")
    p.add_argument("--cards", help="override inferred cardinalities, e.g. 2,3,2")
    p.add_argument("--output", required=True)

    p = sub.add_parser("recover", help="reconstruct parent sets from a network or samples")
    p.add_argument("--mode", choices=["exact", "empirical"], required=True)
    p.add_argument("--dag", help="network JSON (exact mode)")
    p.add_argument("--samples", help="samples CSV (empirical mode)")
    p.add_argument("--cards", help="override inferred cardinalities (empirical mode)")
    p.add_argument("--delta", type=_non_negative, required=True, help="assumed max in-degree")
    p.add_argument("--epsilon", type=float, help="frequency uncertainty (empirical mode)")
    p.add_argument("--trace", help="write the per-node search trace to this JSON file")
    p.add_argument("--output", required=True)

    p = sub.add_parser("bounds", help="cylinder counts, VC bounds, and sample-size solvers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta-risk", type=float, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("witness", help="build and verify a shattered point set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--value-pairs", help="per-position pairs, e.g. 0:1,0:2 (default 0:1 everywhere)")
    p.add_argument("--output", help="write witness + certificates JSON here")

    p = sub.add_parser("experiment", help="run the seeded trial grid from a JSON config")
    p.add_argument("--config", required=True, help="ExperimentConfig JSON file")
    p.add_argument("--output-dir", help="override the config's output directory")
    p.add_argument("--timings", action="store_true", help="also write per-cell wall times")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ModelViolationError as exc:
        print(f"model-violation: {exc}", file=sys.stderr)
        return EXIT_MODEL_VIOLATION
    except (OSError, ValueError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
