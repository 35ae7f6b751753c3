"""Check that this checkout's CLI gives the same outputs as another revision's.

Usage::

    python tools/same_outputs.py REV

``REV`` is any git revision of this repository.  It is extracted with
``git archive`` into a temporary directory, so nothing is written under
``.git``.  Each case of a fixed matrix then runs twice as ``python -m
memlogic``, in a subprocess, once with ``PYTHONPATH`` at REV's ``src`` and
once at this checkout's, each writing its exports to a directory of its own.
A case is the same when the exit code, the standard output (each run's output
directory masked as ``<out>``, then the temporary directory as ``<tmp>``),
the standard error (masked alike) and the bytes of every export all agree.
The script lists every case that differs and exits 1 if any does, 0
otherwise.

The matrix runs each case at seeds 3, 7 and 19: the default gate, scouting,
characterize and sweep commands, a sweep over a range and one over a
subnormal ``lrs_median`` range (exit 2, its line naming the value as
``--values`` does), wider and paper-referenced scouting reads,
stressed and noisy-read device configs (a noisy-read scouting write gives up
at seeds 3 and 7: exit 2; a noisy-read gate's verified write gives up
mid-bucket at seeds 7 and 19, one gate error each), gates on rotated cells
(``experiment.rotate_cells``), the pseudo-crossbar wiring (whose scouting
exits 2), that wiring named in mixed case, a library gate whose drive is
ambiguous, a gate whose cells cannot form and a characterize run whose
cells cannot SET (each exit 2, one line naming the cell), a gate at a huge
HRS median and a scouting run at a tiny LRS median, whose finite reads sum
past the float range (each exit 2, one line naming the medians), and a library gate
whose name holds a comma, quoted as ``csv.writer`` quotes it.  Two cases check
the settings path: a config file that sets every key a flag also sets,
under a gate and a scouting run that pass every flag their command takes,
so each flag must win over its key.  A sweep
over a config with an unknown scouting op exits 2 with the same line and no
exports, whether it rejects the op before its first point or after it.
Four cases give ``characterize``, ``gate``, ``scouting`` and ``sweep`` an
existing file as their output directory (``-o``, in place of the run's own):
each simulates, then exits 2 with one line, writes nothing and prints
nothing on stdout.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (3, 7, 19)
GATE = ["gate", "OR", "AND", "NIMP", "XOR"]
SCOUTING = ["scouting", "read", "or", "and", "xor"]
SWEEP = ["sweep", "hrs_sigma_c2c", "--values", "0.32"]

#: The config files the cases read, by name: their lines.
CONFIGS = {
    "stressed": ["device.hrs_sigma_c2c = 1.0", "device.read_noise_hrs = 0.4"],
    "noisy-reads": ["device.read_noise_hrs = 1.5", "device.read_noise_lrs = 1.5"],
    "pseudo-crossbar": ["array.kind = pseudo-crossbar"],
    "mixed-case-pseudo-crossbar": ["array.kind = Pseudo-Crossbar"],
    "rotated": ["experiment.rotate_cells = true"],
    "ambiguous": ["device.v_reset_th_median = 0.2", "device.v_reset_th_sigma = 0"],
    "unformable": ["device.v_form_th_median = 6"],
    "unsettable": ["device.v_set_th_median = 2.0"],
    "unknown-op": ["experiment.scouting_ops = read,nand"],
    "huge-hrs": ["device.hrs_median = 2e307"],
    "tiny-lrs": ["device.lrs_median = 1e-307"],
    # Each key a flag sets, at a value the flag replaces.
    "every-flag-key": ["experiment.seed = 11", "experiment.cycles = 9",
                       "experiment.gates = NOTP", "experiment.scouting_ops = read",
                       "experiment.n_inputs = 2", "experiment.refs = paper-refs",
                       "experiment.output_dir = from_config", "experiment.format = json"],
}

#: Each case: (name, config name or None, CLI arguments before the seed).
CASES = [
    ("gate", None, GATE),
    ("scouting", None, SCOUTING),
    ("scouting n=3", None, ["scouting", "or", "and", "xor", "--n", "3"]),
    ("scouting paper-refs", None, ["scouting", "--refs", "paper-refs"]),
    ("characterize", None, ["characterize"]),
    ("sweep", None, ["sweep", "hrs_sigma_c2c", "--values", "0.2,0.8,1.5"]),
    ("range sweep", None, ["sweep", "hrs_sigma_c2c", "--start", "0.2", "--stop", "1.4",
                           "--steps", "3"]),
    ("subnormal range sweep", None, ["sweep", "lrs_median", "--start", "1e-320", "--stop",
                                     "1e-320", "--steps", "1", "--cycles", "2"]),
    ("unknown-op sweep", "unknown-op", SWEEP),
    ("stressed gate", "stressed", GATE),
    ("stressed scouting", "stressed", SCOUTING),
    ("noisy-read gate", "noisy-reads", GATE),
    ("noisy-read scouting", "noisy-reads", SCOUTING),
    ("rotated gate", "rotated", GATE),
    ("pseudo-crossbar gate", "pseudo-crossbar", GATE),
    ("pseudo-crossbar scouting", "pseudo-crossbar", SCOUTING),
    ("mixed-case pseudo-crossbar gate", "mixed-case-pseudo-crossbar", GATE),
    ("ambiguous library gate", "ambiguous", ["gate", "BOTH", "--library", "{library}"]),
    ("quoted library gate", None, ["gate", "A,B", "--library", "{quoted_library}"]),
    ("unformable gate", "unformable", GATE),
    ("huge-HRS gate", "huge-hrs", GATE),
    ("tiny-LRS scouting", "tiny-lrs", SCOUTING),
    ("characterize cannot set", "unsettable", ["characterize"]),
    ("every-flag gate", "every-flag-key",
     [*GATE, "--cycles", "20", "--format", "csv"]),
    ("every-flag scouting", "every-flag-key",
     [*SCOUTING, "--n", "3", "--refs", "placed", "--cycles", "20", "--format", "csv"]),
    *((f"unusable-output {args[0]}", None, [*args, "-o", "{a_file}"])
      for args in (["characterize"], GATE, SCOUTING, SWEEP)),
]


def extract(rev: str, into: Path) -> Path:
    """REV's files, from ``git archive``, under ``into``; returns that directory."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return into


def run_case(tree: Path, argv: list[str], out: Path, tmp: Path) -> tuple:
    """One CLI run on ``tree``'s sources, writing to ``out`` unless ``argv``
    names its own ``-o``: (exit code, masked stdout, masked stderr, {export
    path under ``out``: bytes})."""
    env = {k: v for k, v in os.environ.items() if k != "MEMLOGIC_OUTPUT_DIR"}
    env["PYTHONPATH"] = str(tree / "src")
    out.mkdir(parents=True)
    own = [] if "-o" in argv else ["-o", str(out)]
    proc = subprocess.run([sys.executable, "-m", "memlogic", *argv, *own],
                          capture_output=True, env=env, cwd=out, timeout=600)
    exports = {str(path.relative_to(out)): path.read_bytes()
               for path in sorted(out.rglob("*")) if path.is_file()}

    def mask(text: bytes) -> bytes:
        return text.replace(bytes(out), b"<out>").replace(bytes(tmp), b"<tmp>")
    return proc.returncode, mask(proc.stdout), mask(proc.stderr), exports


def differences(old: tuple, new: tuple) -> list[str]:
    """What differs between two ``run_case`` results."""
    names = ("exit code", "stdout", "stderr")
    found = [name for name, a, b in zip(names, old, new) if a != b]
    found += [f"export {name}" for name in sorted(set(old[3]) | set(new[3]))
              if old[3].get(name) != new[3].get(name)]
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/same_outputs.py REV", file=sys.stderr)
        return 2
    [rev] = argv
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"old": extract(rev, tmp / "old"), "new": ROOT}
        files = {name: tmp / f"{name}.cfg" for name in CONFIGS}
        for name, path in files.items():
            path.write_text("\n".join(CONFIGS[name]) + "\n")
        library = tmp / "library.csv"
        library.write_text("name,g,te,be,i\nBOTH,1,1,1,p\n")
        quoted_library = tmp / "quoted_library.csv"  # a name that holds a comma
        quoted_library.write_text('name,g,te,be,i\n"A,B",1,q,0,p\n')
        a_file = tmp / "a_file"  # an existing file: no output directory
        a_file.write_text("")
        differ = 0
        for (case, config, args), seed in ((case, seed) for case in CASES for seed in SEEDS):
            cli_args = ([str(files[config])] if config else []) + [
                arg.format(library=library, quoted_library=quoted_library, a_file=a_file)
                for arg in args] + [
                "--seed", str(seed)]
            slug = f"{case.replace(' ', '_')}-{seed}"
            old, new = (run_case(tree, cli_args, tmp / "runs" / side / slug, tmp)
                        for side, tree in trees.items())
            found = differences(old, new)
            if found:
                differ += 1
                print(f"DIFFERS {case} --seed {seed}: {', '.join(found)}")
        total = len(CASES) * len(SEEDS)
        print(f"{total - differ} of {total} cases the same as {rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
