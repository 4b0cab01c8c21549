"""Golden SHA-256 digests of seeded artifacts.

Output identity is the contract for every refactor of the sampling,
counting and recovery code: the same seeds must give the same bytes. A
digest here changes only when an output format or the RNG stream is
changed on purpose, and such a change must update the digest in the same
commit and say why.
"""

import hashlib

import numpy as np
import pytest

from tuplebn import (
    ExperimentConfig,
    random_dag,
    run_experiment,
    sample,
    save_samples,
    save_witness,
    shatter_witness,
    verify_shattered,
)
from tuplebn.cli import main

CLI_DIGESTS = {
    "net.json": "fd56e48f5661ddaea3b945bee9c38a1308fb8db1af34a3627582ed0d1c6f3c6b",
    "samples.csv": "dd5d0160fee9d31cd6c824ccdf96af807464619df4a0bc0f9e362639c8616266",
    "freq.json": "0b3eb833db15d09c60ef03f29783398c8e94fa850acf4443971eb93eeedf7923",
    "recovered.json": "6a0305109ea7f83eccfdb9cefce16e8175d1b9510e234462a055b35a22c981cd",
    "trace.json": "c4544f566df5d2fac07e152b6fe36217293bde283367cfb915f60cae96e7c0de",
}
# the pipeline at n=64, d=2: a row takes 64 bits, more than one int64 row
# code holds
CLI_WIDE_DIGESTS = {
    "freq.json": "e01d9257a3ff84c25b955ccc9047a3e92064b1c3eb82d9abdb1179a991a959fd",
    "trace.json": "f382537b1ad9ba1c6bafef8da50e3251c4a10aa6d5a3929cb8da25b318c45850",
    "recovered.json": "a2f5fe99f90fd87eca04985878484652eb7db45269147fbdec4b8bf61ebb1689",
}
# exact-mode recovery of a network with card-1 variables first, in the
# middle and last (cards 1,2,3,2,1,3,2,4,2,1), at delta 2
EXACT_DIGESTS = {
    "recovered.json": "6f593e8ba3b12dabb826d8fff721e1782eaa6308a6f614e7c9febd1ffc45ba3f",
    "trace.json": "0d2128c29117dce08f151d637e783b8245376d52d06d3e2846942a11cde57636",
}
EXPERIMENT_DIGESTS = {
    "trials.csv": "dd6b67cac5a165654055b5fcc5cc1f39e8d75b27fcda4bd4111426b3d9d1847f",
    "summary.json": "91a1a6d0113879628ddd7c6dccafff0a8449657549d3d917eeb3fe22b6934c63",
}
# 3 * 65536 + 4321 rows: 24 full 8192-row sampling blocks plus a partial one
# of 4321 rows, so a blocked draw must continue the RNG stream exactly.
CHUNKED_L = 200_929
CHUNKED_ROWS_DIGEST = "727523623d43e7aa8b690e1ce2d97c6bb21267b564894f4f3ab1b2d968897f01"
# one variable above 256 values, so sample storage needs more than a byte
WIDE_CARDS = (3, 2, 300, 4)
WIDE_ROWS_DIGEST = "62f33843e2d6789677a873a75edfc8db658bef88788685d15ed8524de7981792"
# the samples CSV of a WIDE_CARDS draw over CHUNKED_L rows: values of one to
# three digits, written in 24 full row blocks plus a partial one
WIDE_CSV_DIGEST = "616f9a09d92a2da7a5d38f23658ae6ad9eb1bfb1d8c4bffeb23206bf8f877a94"
# save_witness JSON, keyed by (n, k, value_pairs); (4, 4) has l_points == 0
WITNESS_DIGESTS = {
    (2048, 3, None): "af80e6f592a99ba9680af4af8c0f82d2b379115e8aa70f1c9656e68cf91cdcf7",
    (4, 4, None): "0d2c908982f05f00de4f2e010b74f1b3c96f037e2ec7d7d0b3bfdad9fcbf8632",
    (3, 2, ((0, 2), (1, 0), (5, 7))): "2b48dac3e32759f88f5e3dbad24a38defa27066ce0fc9eea308339ccf7c06437",
}
# the `bounds --output` report, keyed by --format
BOUNDS_ARGV = ["bounds", "--n", "12", "--k", "5", "--d", "3", "--epsilon", "0.05", "--delta-risk", "0.01"]
BOUNDS_DIGESTS = {
    "json": "603cd5f67767ee71efd24853295fb7046a0b7e5bfb3925cdedd4fe1fc208a24c",
    "text": "49db1af71b5c4f7e6f168ced52c8453f0d51e07d17c334c69fb192c118a22ac5",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rows_digest(samples) -> str:
    return sha256(np.ascontiguousarray(samples.rows, dtype=np.int64).tobytes())


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_cli")
    p = {name: str(out / name) for name in CLI_DIGESTS}
    steps = [
        ["generate", "--n", "6", "--delta", "1", "--cards", "2,3,2,4,2,3", "--seed", "11",
         "--output", p["net.json"]],
        ["sample", "--dag", p["net.json"], "--l", "20000", "--seed", "12", "--output", p["samples.csv"]],
        ["estimate", "--samples", p["samples.csv"], "--k", "3", "--output", p["freq.json"]],
        ["recover", "--mode", "empirical", "--samples", p["samples.csv"], "--delta", "1",
         "--epsilon", "0.003", "--trace", p["trace.json"], "--output", p["recovered.json"]],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return {name: (out / name).read_bytes() for name in CLI_DIGESTS}


@pytest.fixture(scope="module")
def cli_wide_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_cli_wide")
    net, samples = str(out / "net.json"), str(out / "samples.csv")
    p = {name: str(out / name) for name in CLI_WIDE_DIGESTS}
    steps = [
        ["generate", "--n", "64", "--delta", "1", "--d", "2", "--seed", "51", "--output", net],
        ["sample", "--dag", net, "--l", "5000", "--seed", "52", "--output", samples],
        ["estimate", "--samples", samples, "--k", "2", "--output", p["freq.json"]],
        ["recover", "--mode", "empirical", "--samples", samples, "--delta", "1",
         "--epsilon", "0.01", "--trace", p["trace.json"], "--output", p["recovered.json"]],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return {name: (out / name).read_bytes() for name in CLI_WIDE_DIGESTS}


@pytest.fixture(scope="module")
def exact_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_exact")
    net = str(out / "net.json")
    p = {name: str(out / name) for name in EXACT_DIGESTS}
    steps = [
        ["generate", "--n", "10", "--delta", "2", "--cards", "1,2,3,2,1,3,2,4,2,1", "--seed", "41",
         "--output", net],
        ["recover", "--mode", "exact", "--dag", net, "--delta", "2", "--trace", p["trace.json"],
         "--output", p["recovered.json"]],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return {name: (out / name).read_bytes() for name in EXACT_DIGESTS}


@pytest.fixture(scope="module")
def experiment_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_experiment")
    with pytest.MonkeyPatch.context() as mp:
        # a relative output_dir, because summary.json records it
        mp.chdir(root)
        config = ExperimentConfig.from_dict({
            "n": 5, "delta": 1, "d": 2, "sample_sizes": [2000, 20000], "epsilon": 0.004,
            "delta_risk": 0.05, "trials": 2, "seed": 7, "output_dir": "out",
        })
        run_experiment(config)
    return {name: (root / "out" / name).read_bytes() for name in EXPERIMENT_DIGESTS}


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_cli_artifact_digest(cli_artifacts, name):
    assert sha256(cli_artifacts[name]) == CLI_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CLI_WIDE_DIGESTS))
def test_cli_wide_row_artifact_digest(cli_wide_artifacts, name):
    assert sha256(cli_wide_artifacts[name]) == CLI_WIDE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EXACT_DIGESTS))
def test_exact_recovery_artifact_digest(exact_artifacts, name):
    assert sha256(exact_artifacts[name]) == EXACT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EXPERIMENT_DIGESTS))
def test_experiment_artifact_digest(experiment_artifacts, name):
    assert sha256(experiment_artifacts[name]) == EXPERIMENT_DIGESTS[name]


def test_chunked_sample_digest():
    dag = random_dag(5, 2, (2, 3, 2, 4, 2), seed=21)
    s = sample(dag, CHUNKED_L, seed=22)
    assert s.l == CHUNKED_L
    assert rows_digest(s) == CHUNKED_ROWS_DIGEST


def test_wide_card_sample_digest():
    dag = random_dag(len(WIDE_CARDS), 2, WIDE_CARDS, seed=31, floor=0.001)
    s = sample(dag, 3000, seed=32)
    assert s.rows[:, 2].max() > 255
    assert rows_digest(s) == WIDE_ROWS_DIGEST


def test_wide_card_samples_csv_digest(tmp_path):
    dag = random_dag(len(WIDE_CARDS), 2, WIDE_CARDS, seed=31, floor=0.001)
    path = tmp_path / "wide.csv"
    save_samples(sample(dag, CHUNKED_L, seed=33), path)
    assert sha256(path.read_bytes()) == WIDE_CSV_DIGEST


@pytest.mark.parametrize("n, k, value_pairs", list(WITNESS_DIGESTS))
def test_witness_json_digest(tmp_path, n, k, value_pairs):
    w = shatter_witness(n, k, value_pairs)
    path = tmp_path / "witness.json"
    save_witness(w, verify_shattered(w), path)
    assert sha256(path.read_bytes()) == WITNESS_DIGESTS[n, k, value_pairs]


@pytest.mark.parametrize("fmt", sorted(BOUNDS_DIGESTS))
def test_bounds_report_digest(tmp_path, capsys, fmt):
    path = tmp_path / f"bounds.{fmt}"
    assert main([*BOUNDS_ARGV, "--format", fmt, "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert sha256(path.read_bytes()) == BOUNDS_DIGESTS[fmt]
