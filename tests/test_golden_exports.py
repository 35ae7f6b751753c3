"""Exports of one fixed-seed run, pinned byte for byte by their sha256 digests.

The digests were recorded with a drive path that pulsed every cell of the
array.  Skipping the cells a drive cannot switch must not change one random
draw, so any change to these bytes means the simulated results changed.  The
second group was recorded while every trial stream was still built through
its own ``SeedSequence`` and every array sampled all its cells up front; it
covers a seed wider than one 32-bit word, a three-input scouting read and a
characterization run over several cells.  The third group was recorded
while the operating point was still passed down as parameters; it covers a
parameter sweep and the unverified writes of the overlap probe.  The fourth
group was recorded while every drive was still resolved and validated anew
on each pulse; it covers the pseudo-crossbar wiring, with one cell per gate
(whose digests equal the standard array's: the pristine neighbours on the
cell's shared row BL stay inert) and with the input pairs rotated over rows.
The fifth group was recorded while every exported value was still formatted
one by one through a dict per row; it covers the JSON exports and the tables
only the command line writes (the case table and the synthesized library).
"""

import hashlib

import numpy as np
import pytest

from memlogic.analysis import (
    ExperimentConfig,
    export_characterization,
    export_logic_result,
    export_scouting_result,
    export_sweep,
    run_1t1r_experiment,
    run_characterization,
    run_scouting_experiment,
    sample_scouting_currents,
    sweep_parameter,
)
from memlogic.array import ArrayTopology, TopologyKind
from memlogic.cli import main

CONFIG = ExperimentConfig(seed=3, cycles=20)
PSEUDO_CROSSBAR = CONFIG.replace(topology=ArrayTopology(TopologyKind.PSEUDO_CROSSBAR))

GOLDEN_SHA256 = {
    "gate": {
        "traces.csv": "bf1eda3d8e573afdee842a05275d2ae29db85452f0e315db44e2a52be3fbae5e",
        "summary.csv": "9416427b43c6d08eb2a419064cd1adf1bc3705b9848d680af7d60b252a9fd921",
        "non_switching.csv": "3559944649d36ce802d424446864e8e223d709ef3eb5b6fb3f58e29eab590cce",
        "report.json": "af46ba7e50e5e69c64730e93f89e6b93d32d0908946786b4963c33790beb24ff",
    },
    "scouting": {
        "currents.csv": "6473caa31badbd8ed2d4cd6eeabad50536d4e2bf07baecb719729e5604638d59",
        "refs.csv": "abddd4921d8f695238e66530e429585126f78873ce764a36c9c0f038519ff7d9",
        "margins.csv": "9f6aea3087d0f05737c24ddcabde9c1d8db25905f422f605c0eb3a2024d8fee4",
        "summary.csv": "1deb6551702076ca69e36f14121d8e1a9136c8a68f5563cc778171a87e3a1bff",
        "report.json": "868deac54fdf2be06764ba03cba3d73847f7ac92cbf2379ee8c5766c8484fae2",
    },
    "characterize": {
        "characterize.csv": "235449a9c3397a912c5d4c75aa1f81dd8e59782351c93e3946e2ea9ca8a75ce4",
        "summary.csv": "81dc0e8fa588685647a5625d94bc6a0f1fe41f28a15c4ccf801fc114a843fafd",
        "characterize_report.json": "b3100c46f7558b246eea614b0faac9b7fa5d7a47a087e2fb3e72991a90252ddc",
    },
}

GOLDEN_SHA256.update({
    "gate_seed_2**32+3": {
        "traces.csv": "0b2fbfa2587d1ea37624d3bd42c233859712f3aaa4e736867a3c7ee034f26e80",
        "summary.csv": "dc080d70b60fd073c2efd29fbc10e57d2faa92d816d63bebe7a6e1b2ca953faf",
        "non_switching.csv": "0c97c70636de8d8b36e6617c9a6065a0af412fca05931ec0342f952901f09b7e",
        "report.json": "af46ba7e50e5e69c64730e93f89e6b93d32d0908946786b4963c33790beb24ff",
    },
    "scouting_n3": {
        "currents.csv": "a0511e27eb6430bc1c90718a16adda2de99703804c6fb0f7dab4a216196d8922",
        "refs.csv": "caeddd148adfc981e70a82257506d76a473ee3ad327addf7362497f8cf205474",
        "margins.csv": "38ae46a5b01fc3d9aaf53f88452cd3551103b43be30e60dfd7540063848f3c39",
        "summary.csv": "13a5dc40f2ec8ad8056be8f21878acb4fb8f0781337efc67e3dd56228c8af49e",
        "report.json": "b5efbdc2dc5015d3bb16f7721bf258fa332f4b4b88b1282139467f5b92a9a56d",
    },
    "characterize_cells3": {
        "characterize.csv": "99788bafbdfe4eeb547705ef81000a2c740851aab2d279afd5b1e409dd53f8d4",
        "summary.csv": "d6a4611318e6e0fea1bf4a021a19b4e0269fb0fad3a66a09dd88981f68bf9ecc",
        "characterize_report.json": "1f922ec12f3aa39daf14f3c0bbce98d7d457cd9fe755d4876caf23c3b24b6008",
    },
})

GOLDEN_SHA256.update({
    "gate_pseudo_crossbar": {
        "traces.csv": "bf1eda3d8e573afdee842a05275d2ae29db85452f0e315db44e2a52be3fbae5e",
        "summary.csv": "9416427b43c6d08eb2a419064cd1adf1bc3705b9848d680af7d60b252a9fd921",
        "non_switching.csv": "3559944649d36ce802d424446864e8e223d709ef3eb5b6fb3f58e29eab590cce",
        "report.json": "af46ba7e50e5e69c64730e93f89e6b93d32d0908946786b4963c33790beb24ff",
    },
    "gate_pseudo_crossbar_rotated": {
        "traces.csv": "86905a3397774ef6c4b3168daf79d0cd2d542ad6d58c5a0882c26a49b54ac826",
        "summary.csv": "68fcf3e78d0def82ee72963f36fc04c67a8bb391c9eca5c5588c1e2ce8e5d7f7",
        "non_switching.csv": "4b231e535dc835fbe594c2bbaa766631ee9cfe3d54728e83b1bc8da1dad37949",
        "report.json": "af46ba7e50e5e69c64730e93f89e6b93d32d0908946786b4963c33790beb24ff",
    },
})

GOLDEN_SHA256["sweep"] = {
    "sweep.csv": "2b656cd26c882dddbaae3e2caa3c32e89e8b6b2edb10be0b30feb94ff0aa9dbb",
}

#: sha256 of "class,cycle,repr(current)" lines of unverified writes, per n.
UNVERIFIED_CURRENTS_SHA256 = {
    2: "d765030513fb5c958dfa7cb91f3f50b0f49d8be7a779abf321926cb2ab1224ef",
    3: "4717423eb43e47c67a499e145ec051b5dcf60cc9a934d817421e4d2ae3fd3b34",
}

EXPORTERS = {
    "gate": lambda out: export_logic_result(run_1t1r_experiment(CONFIG), out),
    "scouting": lambda out: export_scouting_result(run_scouting_experiment(CONFIG), out),
    "characterize": lambda out: export_characterization(
        run_characterization(CONFIG.device, CONFIG.transistor, cycles=CONFIG.cycles,
                             seed=CONFIG.seed), out),
    "gate_seed_2**32+3": lambda out: export_logic_result(
        run_1t1r_experiment(CONFIG.replace(seed=2**32 + 3)), out),
    "scouting_n3": lambda out: export_scouting_result(run_scouting_experiment(
        CONFIG.replace(n_inputs=3, scouting_ops=("read", "or", "and", "xor"))), out),
    "characterize_cells3": lambda out: export_characterization(
        run_characterization(CONFIG.device, CONFIG.transistor, cells=3,
                             cycles=CONFIG.cycles, seed=CONFIG.seed), out),
    "gate_pseudo_crossbar": lambda out: export_logic_result(
        run_1t1r_experiment(PSEUDO_CROSSBAR), out),
    "gate_pseudo_crossbar_rotated": lambda out: export_logic_result(
        run_1t1r_experiment(PSEUDO_CROSSBAR.replace(rotate_cells=True)), out),
    "sweep": lambda out: [export_sweep(sweep_parameter(
        CONFIG, "hrs_sigma_c2c", list(np.linspace(0.1, 1.2, 3))), out)],
}


JSON_EXPORTERS = {
    "gate": lambda out: export_logic_result(run_1t1r_experiment(CONFIG), out, "json"),
    "scouting": lambda out: export_scouting_result(
        run_scouting_experiment(CONFIG), out, "json"),
    "characterize": lambda out: export_characterization(
        run_characterization(CONFIG.device, CONFIG.transistor, cycles=CONFIG.cycles,
                             seed=CONFIG.seed), out, "json"),
    "sweep": lambda out: [export_sweep(sweep_parameter(
        CONFIG, "hrs_sigma_c2c", list(np.linspace(0.1, 1.2, 3))), out, "json")],
}

GOLDEN_JSON_SHA256 = {
    "gate": {
        "traces.json": "3cb3ac16a720599da1e17c7a75c18e9a726ba2914ff12e014d538c4a6e75c6f2",
        "summary.json": "b28752d4f17e9f50fde7ebe5257c40b004c0e6fc43aba4b43d824747d574217b",
        "non_switching.json": "53172624de65acbbb30888387310f4d68b866f4214a0a851bd34ca59e7812166",
        "report.json": "af46ba7e50e5e69c64730e93f89e6b93d32d0908946786b4963c33790beb24ff",
    },
    "scouting": {
        "currents.json": "1a201f49b1b2f58eb93ed9d9abf0bb469d7d55027ca70baf1146ddf575ed4cba",
        "refs.json": "a2ab0dbe4ccf9084d33284640c7e82e5c1d87018dccbe90a2189db06fad0fffb",
        "margins.json": "daad6f337077bd45b82bd226c684fe3504bf1b5dfe0f3b9b31443498785f75bf",
        "summary.json": "f1fdc63227454134f6af614694e3ac01f5340fda37c8c22f6c22ccacecff1bea",
        "report.json": "868deac54fdf2be06764ba03cba3d73847f7ac92cbf2379ee8c5766c8484fae2",
    },
    "characterize": {
        "characterize.json": "34b5dfea624f138e7d27153528af464c97fd22f8adfcb991398511d4f9d5b729",
        "summary.json": "e8060860550261e578e2e917ffdc04cc59c159ad836c490d57a5de0199b2f8c9",
        "characterize_report.json": "b3100c46f7558b246eea614b0faac9b7fa5d7a47a087e2fb3e72991a90252ddc",
    },
    "sweep": {
        "sweep.json": "6be188200c41d8f6a231b5d1b24324a99552c332d687b525e47123980553c884",
    },
}

#: Command-line runs that write a table, with the digests of what they write.
CLI_RUNS = {
    "cases": ["cases"],
    "cases_json": ["cases", "--format", "json"],
    "synthesize": ["synthesize"],
}

GOLDEN_CLI_SHA256 = {
    "cases": {
        "cases.csv": "42765a7b140229d754b7c6090a2a0d1906529e3cf153b84c6552199b5009a0e0",
    },
    "cases_json": {
        "cases.json": "e41467a8812fd4f7d03b4b147afc9293e58051f38e56fd5a94374139833d43a4",
    },
    "synthesize": {
        "gates_synthesized.csv": "5254631f4fcf07ca6f559a9f3ced5a1d30a072a1d8b2aac3a5547e3e11f06403",
    },
}


def _digests(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


@pytest.mark.parametrize("kind", sorted(GOLDEN_SHA256))
def test_exports_match_golden_digests(kind, tmp_path):
    paths = EXPORTERS[kind](tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == GOLDEN_SHA256[kind]


@pytest.mark.parametrize("n", sorted(UNVERIFIED_CURRENTS_SHA256))
def test_unverified_currents_match_golden_digest(n):
    samples = sample_scouting_currents(CONFIG.replace(n_inputs=n), n, verify=False)
    text = "".join(f"{s.input_class},{s.cycle},{s.current!r}\n" for s in samples)
    assert hashlib.sha256(text.encode()).hexdigest() == UNVERIFIED_CURRENTS_SHA256[n]


@pytest.mark.parametrize("kind", sorted(GOLDEN_JSON_SHA256))
def test_json_exports_match_golden_digests(kind, tmp_path):
    assert _digests(JSON_EXPORTERS[kind](tmp_path)) == GOLDEN_JSON_SHA256[kind]


@pytest.mark.parametrize("kind", sorted(GOLDEN_CLI_SHA256))
def test_cli_tables_match_golden_digests(kind, tmp_path, capsys):
    assert main(CLI_RUNS[kind] + ["-o", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _digests(sorted(tmp_path.iterdir())) == GOLDEN_CLI_SHA256[kind]
