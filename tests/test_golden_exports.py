"""Exports of one fixed-seed run, pinned byte for byte by their sha256 digests.

Any change to these bytes means the simulated results changed.  Every digest
was re-recorded once, on purpose, when each bucket moved to its own pair of
switching and read-noise streams and every truncated draw to one uniform;
a change that keeps the draws must keep them all.  The groups were added
as the code they guard appeared.  The first covers the default
experiments.  The second covers a seed wider than one 32-bit word, a
three-input scouting read and a characterization run over several cells.
The third covers a parameter sweep and the unverified writes of the overlap
probe.  The fourth covers the pseudo-crossbar wiring, with one cell per gate
(whose digests equal the standard array's: the pristine neighbours on the
cell's shared row BL stay inert) and with the input pairs rotated over rows.
The fifth covers the JSON exports and the tables only the command line
writes (the case table and the synthesized library).  The sixth runs the
default experiments at 300 cycles, where every read-noise stream and most
switching streams draw more than 256 values, so a stream served in blocks
must carry its draws across a block boundary unchanged."""

import hashlib

import numpy as np
import pytest

from memlogic.analysis import (
    ExperimentConfig,
    SweepPoint,
    run_1t1r_experiment,
    run_characterization,
    run_scouting_experiment,
    sample_scouting_currents,
    sweep_parameter,
    write_exports,
)
from memlogic.array import ArrayTopology, TopologyKind
from memlogic.cli import main

CONFIG = ExperimentConfig(seed=3, cycles=20)
LONG = CONFIG.replace(cycles=300)
PSEUDO_CROSSBAR = CONFIG.replace(topology=ArrayTopology(TopologyKind.PSEUDO_CROSSBAR))

GOLDEN_SHA256 = {
    "gate": {
        "traces.csv": "09e808c2cc8ff7140048fb2a92d379f33e6469447eac188a463b55a35afb59e2",
        "summary.csv": "7c2c7cb94a81358ee4bc052b3f171702c17861903c1764a93b7a67c67df6c076",
        "non_switching.csv": "f0f2d4ed4bb3d99a4914ab0c49982021f3486fea9fa454b8c3660d90fbe2eab5",
        "report.json": "af46ba7e50e5e69c64730e93f89e6b93d32d0908946786b4963c33790beb24ff",
    },
    "scouting": {
        "currents.csv": "3efbb9f0355807570d76a37e00f31d6d742afd2be3da2938211e3f1e0b55c0c8",
        "refs.csv": "504adcb51a1e22fe0faab7f795055d4785ca63fb87ff4d5ee4c099e76dab4887",
        "margins.csv": "d7ef50024b00954670abbbfb90e0261a6883fa6b11c55dfd7a64c7228b789f5b",
        "summary.csv": "167cff6a16acceb29fe097c69ffe8ef9f588f1920da519a64b64ed118450d3fa",
        "report.json": "868deac54fdf2be06764ba03cba3d73847f7ac92cbf2379ee8c5766c8484fae2",
    },
    "characterize": {
        "characterize.csv": "f351626df29ad6a4fb26cd3c16e58db2e4b71af1cb3d8b51c9fc089c268b56fc",
        "summary.csv": "778fbd621873a2178483eb23896354a0423ccd906511b3a9c56d210e44bd47f0",
        "characterize_report.json": "1a9599e14432617d23af2d549733151364e7e5cc3fc0e2137bcaa948916b7439",
    },
}

GOLDEN_SHA256.update({
    "gate_seed_2**32+3": {
        "traces.csv": "7cb0afb2766784da3aaf50e0fdd5289203f2e64e269dab98377930bbd2d559c9",
        "summary.csv": "f0c81ac7548380b96dd9d90c96bf2a492dc14f4a045d8c953291eceb57faf16b",
        "non_switching.csv": "60f36224a0ccf36de985e5e03fffd2966712e6af8ae65d14a370b1d2dc950bb5",
        "report.json": "af46ba7e50e5e69c64730e93f89e6b93d32d0908946786b4963c33790beb24ff",
    },
    "scouting_n3": {
        "currents.csv": "5c7694f11ef85a3bfd55e5d7ff735e21f468485bd0779ddd0ff1e37eec22cd37",
        "refs.csv": "05bccdde758c47cfd32b97564ad0f4a71c9e558b14d36e5faf193c892e911448",
        "margins.csv": "d3c79e3708a52a548f62945e5365e13200710436f3cd3e73523cca2fa9d464d2",
        "summary.csv": "3610db460faeee7c945a05795c9d0ed4e5635640e20b7ee4ad4af1c4e372dc86",
        "report.json": "291c80a336318f3941ecf36041b84bfc199a357785e348a6ed0d9de3a67e16db",
    },
    "characterize_cells3": {
        "characterize.csv": "1e8376c77ff086cdd97f76191120b350b97d5d3bf6b77ad46eeb214f58c2a3f8",
        "summary.csv": "bcac31c03cdeee0bb2906a3691b692801f757e11dc09e73b687803e41c155778",
        "characterize_report.json": "d8986e4cb7531cf7e0d32170b606d0459f1270300aa730f2465cce9df660dde7",
    },
})

GOLDEN_SHA256.update({
    "gate_pseudo_crossbar": {
        "traces.csv": "09e808c2cc8ff7140048fb2a92d379f33e6469447eac188a463b55a35afb59e2",
        "summary.csv": "7c2c7cb94a81358ee4bc052b3f171702c17861903c1764a93b7a67c67df6c076",
        "non_switching.csv": "f0f2d4ed4bb3d99a4914ab0c49982021f3486fea9fa454b8c3660d90fbe2eab5",
        "report.json": "af46ba7e50e5e69c64730e93f89e6b93d32d0908946786b4963c33790beb24ff",
    },
    "gate_pseudo_crossbar_rotated": {
        "traces.csv": "a493127d0578116a6bfd1e382134be454b63eca10e7ddab47df7715220f908b9",
        "summary.csv": "827548f7b02e0c685e864960d8023535c17f6352273c9d54f855659d30904171",
        "non_switching.csv": "530cbb7d82013748c5ee4e02590529748b2c4297d017414baf51e76f8e65ba66",
        "report.json": "af46ba7e50e5e69c64730e93f89e6b93d32d0908946786b4963c33790beb24ff",
    },
})

GOLDEN_SHA256.update({
    "gate_300": {
        "traces.csv": "7f193eb479750fd9146a070437459d21eb98614300a5f9fbe1c5b0ffcc788eeb",
        "summary.csv": "dc9329a7527410ee40d99f0495d46e4263909db4ec9072a940189ebea7daf983",
        "non_switching.csv": "bb7194e21a66cc1e8419adf75c8fb04f6518183ac71ecd88dc826aaf506f4d2f",
        "report.json": "4df31f90527b416fac3ef6f397e0f32e0d826abca4478411702a8d4957533312",
    },
    "scouting_300": {
        "currents.csv": "8e7f308e7bb7d3b3213e34da875694dcd644486a9676825777b36ef7db9ae3a3",
        "refs.csv": "154ed30aeecb1f6253d55d7b4842c2cdeb57188b84044fe9075662f7e65f2d2c",
        "margins.csv": "e362b2994f8bafb9d65f42a1bd1e558354a3008d8ee2073019da3194d28daab2",
        "summary.csv": "a88df9cdee16a4476c717662f08f9946c521abf1e50c20ddda13711fef313665",
        "report.json": "eed99469501f51210ae10b717d5dc4ebf1aadf6b56383900faddacdf0d645b14",
    },
    "characterize_300": {
        "characterize.csv": "2122ae0d67964e45e82dc71fc091f6675f17f69ce0b8a696ec2a182bba8f45ae",
        "summary.csv": "348468b7a058b767b135bdd27d7d93b64bced8cb4af7839ae6135adbe051fb0c",
        "characterize_report.json": "76d7df5430f3a8a0d090ec710c3ae8239044113e8d9b1246dd75754b6b3a3855",
    },
})

GOLDEN_SHA256["sweep"] = {
    "sweep.csv": "bcb08ea15075736264d27ce044ec48f21f7a89bc3fa6140d040245a1ad516734",
}

#: sha256 of "class,cycle,repr(current)" lines of unverified writes, per n.
UNVERIFIED_CURRENTS_SHA256 = {
    2: "bf8f41ec57e3a1c65ece5c409f9174c0a69461054e9d1af8b14c01629abbf6fd",
    3: "b7e129cd2ea32bd8a9d37b8609f3643f340a482d6a9f4e74bcb54e3b6f8e282e",
}

EXPORTERS = {
    "gate": lambda out: write_exports(run_1t1r_experiment(CONFIG).tables(), out),
    "scouting": lambda out: write_exports(run_scouting_experiment(CONFIG).tables(), out),
    "characterize": lambda out: write_exports(run_characterization(CONFIG).tables(), out),
    "gate_seed_2**32+3": lambda out: write_exports(
        run_1t1r_experiment(CONFIG.replace(seed=2**32 + 3)).tables(), out),
    "scouting_n3": lambda out: write_exports(run_scouting_experiment(
        CONFIG.replace(n_inputs=3, scouting_ops=("read", "or", "and", "xor"))).tables(), out),
    "characterize_cells3": lambda out: write_exports(
        run_characterization(CONFIG, cells=3).tables(), out),
    "gate_pseudo_crossbar": lambda out: write_exports(
        run_1t1r_experiment(PSEUDO_CROSSBAR).tables(), out),
    "gate_pseudo_crossbar_rotated": lambda out: write_exports(
        run_1t1r_experiment(PSEUDO_CROSSBAR.replace(rotate_cells=True)).tables(), out),
    "sweep": lambda out: write_exports([("sweep", SweepPoint._fields, sweep_parameter(
        CONFIG, "hrs_sigma_c2c", list(np.linspace(0.1, 1.2, 3))))], out),
    "gate_300": lambda out: write_exports(run_1t1r_experiment(LONG).tables(), out),
    "scouting_300": lambda out: write_exports(run_scouting_experiment(LONG).tables(), out),
    "characterize_300": lambda out: write_exports(run_characterization(LONG).tables(), out),
}


JSON_EXPORTERS = {
    "gate": lambda out: write_exports(run_1t1r_experiment(CONFIG).tables(), out, "json"),
    "scouting": lambda out: write_exports(
        run_scouting_experiment(CONFIG).tables(), out, "json"),
    "characterize": lambda out: write_exports(
        run_characterization(CONFIG).tables(), out, "json"),
    "sweep": lambda out: write_exports([("sweep", SweepPoint._fields, sweep_parameter(
        CONFIG, "hrs_sigma_c2c", list(np.linspace(0.1, 1.2, 3))))], out, "json"),
}

GOLDEN_JSON_SHA256 = {
    "gate": {
        "traces.json": "603debcd530ed494aff1ab0c6e773ebc011f8b120e6f081c74e9bfc1a6f286f0",
        "summary.json": "7d511b8dcdc6f79012d2a8449a57d7d5c35858bdabf3c1ff40daaa50170006ad",
        "non_switching.json": "f02afe7efe994683ab54a90724a6e1f84c3eb931c9226fb7571e492104fdfdc9",
        "report.json": "af46ba7e50e5e69c64730e93f89e6b93d32d0908946786b4963c33790beb24ff",
    },
    "scouting": {
        "currents.json": "9a82919add7979e97d9e30e66ce4e700a410e4ff4efec0f94a4a95db92f2ba3b",
        "refs.json": "277ad241ecb51b11781a589f12653ab21f17514446f880bd14cdd55554154cd1",
        "margins.json": "6b2b46b04f2804282cb8a9c897f7aac20901f91346ca962d4ea0b06b05fc79d3",
        "summary.json": "99e61f1769b1ea0186b6a4c59eaaca8df99b3aee22cbef05d8f36565e0a11851",
        "report.json": "868deac54fdf2be06764ba03cba3d73847f7ac92cbf2379ee8c5766c8484fae2",
    },
    "characterize": {
        "characterize.json": "6853333b51bee88bc7869e6040fa57016e0a167de368463ac2df7b4a53847718",
        "summary.json": "e9d28cf3bb30948db604b2850bce939a541beefe3222d83add9446bc745b3a42",
        "characterize_report.json": "1a9599e14432617d23af2d549733151364e7e5cc3fc0e2137bcaa948916b7439",
    },
    "sweep": {
        "sweep.json": "ce2e94404146490ae363ac6bdc05dd45df086e9aac8e514268d9541242fff927",
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
    currents = sample_scouting_currents(CONFIG.replace(n_inputs=n), verify=False)
    text = "".join(f"{cls},{cycle},{current!r}\n" for cls, values in currents.items()
                   for cycle, current in enumerate(values))
    assert hashlib.sha256(text.encode()).hexdigest() == UNVERIFIED_CURRENTS_SHA256[n]


@pytest.mark.parametrize("kind", sorted(GOLDEN_JSON_SHA256))
def test_json_exports_match_golden_digests(kind, tmp_path):
    assert _digests(JSON_EXPORTERS[kind](tmp_path)) == GOLDEN_JSON_SHA256[kind]


@pytest.mark.parametrize("kind", sorted(GOLDEN_CLI_SHA256))
def test_cli_tables_match_golden_digests(kind, tmp_path, capsys):
    assert main(CLI_RUNS[kind] + ["-o", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _digests(sorted(tmp_path.iterdir())) == GOLDEN_CLI_SHA256[kind]
