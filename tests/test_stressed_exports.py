"""Exports of stressed runs, pinned byte for byte by their sha256 digests.

The default goldens never see an initialization error.  Here a 21 kOhm access
transistor (``r_on``) and wide LRS and read spreads (``STRESSED`` in ``test_runners``)
make verified writes give up: ``InitFailureError`` lands mid-bucket, so these
pins cover the per-bucket error, failure, summary and non-switching
bookkeeping, with the input pairs on one cell or rotated over rows.  At three
cycles and seed 0 (the smallest seed that does so) some buckets error on
every trial and so have no summary row.  The digests were first recorded
while the harness still regrouped all rows by label after the trial loop,
and re-recorded once when the draws moved to one stream pair per bucket.

A scouting run with a wide LRS spread collapses the ``01|10``/``11`` gap at
seed 9: no reference is placed, so ``refs.csv`` is its header alone,
``margins.csv`` holds ``nan`` references and a negative width, and
``report.json`` carries the overlap message over buckets whose every
evaluated cycle failed.  No default golden reaches that path.
"""

import hashlib

import pytest

from memlogic.analysis import (
    ExperimentConfig,
    run_1t1r_experiment,
    run_scouting_experiment,
    write_exports,
)
from memlogic.device import VariabilityParams

STRESSED = ExperimentConfig(
    seed=1, cycles=20,
    device=VariabilityParams(lrs_sigma_c2c=1.0, read_noise_lrs=0.5, read_noise_hrs=0.5,
                             r_on=21e3))

RUNS = {
    "one_cell": STRESSED,
    "rotated": STRESSED.replace(rotate_cells=True),
    "whole_buckets_fail": STRESSED.replace(seed=0, cycles=3),
}

GOLDEN_SHA256 = {
    "one_cell": {
        "traces.csv": "6ad1bf396b339f1635d7aad5f29c75c7719e629c551db318df61be39e05e6189",
        "summary.csv": "eb86f736cf940bddb45f05452a71870bee2c12d55f5280c186a2184fdc52871c",
        "non_switching.csv": "f968f9b3d32bc9258a6640b448d7e829551abaff447c5711d08bc4a030084902",
        "report.json": "5e965d536101be6c895e044f9782260b9b5f3b4a8fa9ad65c541508cb940a5e5",
    },
    "rotated": {
        "traces.csv": "dd72004949091efb8dc33c41a3929b0c7a47abb88455e296eba0e531ecd0e4e1",
        "summary.csv": "c44947985a80c919731e911706aae0d6c68d9e57297520a3e91340f5a23dee92",
        "non_switching.csv": "8155300f40b2f5fefad3d0fd9fe36d31e746da4aec888ec111a3277b2ca4f8e4",
        "report.json": "c50aa065010fdfcedf99af170eb517b01dc331aea30d8be85dc28b0e58082b5f",
    },
    "whole_buckets_fail": {
        "traces.csv": "d8ecbda0fffd9ae4b554022c167830adc1ba14306ca4f90b8042cff49892c534",
        "summary.csv": "7d25a92762668791e2056a5b1943214eccee0c176d38e5e1929645e56f01f204",
        "non_switching.csv": "d5c0db8ea552e380d2f4bc5eeca111bad9caa067574ac238e168ec1f6f78b7d3",
        "report.json": "1f406ca0e5fae713a7a1f403353bb09f33b3bb6a9305eb2b5271157c2513e4ed",
    },
}


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_stressed_exports_match_golden_digests(kind, tmp_path):
    result = run_1t1r_experiment(RUNS[kind])
    errored = [b for b in result.report.buckets if b.errors]
    assert errored and result.report.failures  # the error path is exercised
    if kind == "whole_buckets_fail":
        assert len(result.summaries) < len(result.report.buckets)
    else:  # mid-bucket: the bucket's other trials still ran
        assert any(b.errors < b.trials for b in errored)
    paths = write_exports(result.tables(), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == GOLDEN_SHA256[kind]


COLLAPSED_SCOUTING = ExperimentConfig(seed=9, cycles=30,
                                      device=VariabilityParams(lrs_sigma_c2c=1.0))

COLLAPSED_SHA256 = {
    "currents.csv": "d5fea1770bf792f37ba467e7c790eaa0eb494856dae915efb0b1f0373a4a9209",
    "refs.csv": "643c2f168d0f0a6369fef045e41cd9734431e5f4890e330670752cd832cd1fc4",
    "margins.csv": "36738918edf2a352cea934e563bf226704e7d6e23a726f9767873a4ea61b18a1",
    "summary.csv": "a9bd9ff19e2eca1a7946da5840507e2ff487d44e06950c313572009b7fe8f82e",
    "report.json": "cc70b87867b8a5d00af4dcab47694429e8c5a338c0420dfa7fcc6ac2abd65ecc",
}


def test_collapsed_scouting_exports_match_golden_digests(tmp_path):
    result = run_scouting_experiment(COLLAPSED_SCOUTING)
    assert result.overlap is not None and result.refs is None
    assert result.report.failures == result.report.trials
    assert any(m.width_a < 0 for m in result.margins)
    paths = write_exports(result.tables(), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
    assert digests == COLLAPSED_SHA256
