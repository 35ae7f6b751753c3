"""Exports of one fixed-seed run, pinned byte for byte by their sha256 digests.

The digests were recorded with a drive path that pulsed every cell of the
array.  Skipping the cells a drive cannot switch must not change one random
draw, so any change to these bytes means the simulated results changed.  The
second group was recorded while every trial stream was still built through
its own ``SeedSequence`` and every array sampled all its cells up front; it
covers a seed wider than one 32-bit word, a three-input scouting read and a
characterization run over several cells.  The third group was recorded
while the operating point was still passed down as parameters; it covers a
parameter sweep and the unverified writes of the overlap probe.
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

CONFIG = ExperimentConfig(seed=3, cycles=20)

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
    "sweep": lambda out: [export_sweep(sweep_parameter(
        CONFIG, "hrs_sigma_c2c", list(np.linspace(0.1, 1.2, 3))), out)],
}


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
