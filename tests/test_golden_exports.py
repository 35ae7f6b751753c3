"""Exports of one fixed-seed run, pinned byte for byte by their sha256 digests.

The digests were recorded with a drive path that pulsed every cell of the
array.  Skipping the cells a drive cannot switch must not change one random
draw, so any change to these bytes means the simulated results changed.
"""

import hashlib

import pytest

from memlogic.analysis import (
    ExperimentConfig,
    export_characterization,
    export_logic_result,
    export_scouting_result,
    run_1t1r_experiment,
    run_characterization,
    run_scouting_experiment,
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

EXPORTERS = {
    "gate": lambda out: export_logic_result(run_1t1r_experiment(CONFIG), out),
    "scouting": lambda out: export_scouting_result(run_scouting_experiment(CONFIG), out),
    "characterize": lambda out: export_characterization(
        run_characterization(CONFIG.device, CONFIG.transistor, cycles=CONFIG.cycles,
                             seed=CONFIG.seed), out),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_SHA256))
def test_exports_match_golden_digests(kind, tmp_path):
    paths = EXPORTERS[kind](tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == GOLDEN_SHA256[kind]
