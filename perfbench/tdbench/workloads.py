"""The three CLI workloads: input files and command line.  Why each exists
is recorded with its name in BENCHMARK.json and in the README.

Every job is one `tdhom.cli.main(argv)` call with `--json`; its body must
equal the stored expected report byte for byte.  Paths are bare file names
resolved in the run's input directory, so the body does not depend on where
the inputs were written.
"""

from dataclasses import dataclass
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent.parent / "expected"

# Passed explicitly on every job so no environment setting can change which
# jobs a size guard refuses.
GUARD_LIMIT = 10 ** 12


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple

    @property
    def files(self):
        """The input files the command line names."""
        return tuple(arg for arg in self.argv if arg.endswith(".json"))

    def expected_body(self):
        return (EXPECTED_DIR / (self.name + ".json")).read_text(
            encoding="utf-8")


WORKLOADS = {w.name: w for w in (
    Workload(
        "classical-gl3",
        ("cohomology", "gl3-adjoint.json", "--maxdeg", "2", "--json"),
    ),
    Workload(
        "td-heis-t4",
        ("cohomology", "--td", "heis-adjoint.json", "T4ab.json",
         "--guard-limit", str(GUARD_LIMIT), "--json"),
    ),
    Workload(
        "twisted-verify",
        ("verify", "gl3.json", "n5.json", "gl3-adjoint.json",
         "lr-derx3.json", "lr-dualnum.json", "poisson3.json", "T4ab.json",
         "--subcomplex-maxdeg", "2", "--guard-limit", str(GUARD_LIMIT),
         "--json"),
    ),
)}
