"""Uniform pass/fail reporting for every checker in the package.

Witnesses always carry the lexicographically first failing basis tuple and the
nonzero residual, so failure messages are stable across runs.
"""

import functools
from dataclasses import dataclass


@dataclass(frozen=True)
class Witness:
    args: tuple            # basis labels (or indices) of the failing tuple
    residual: tuple        # sorted ((coordinate, Fraction), ...), all nonzero

    def describe(self):
        terms = ", ".join("%s: %s" % (k, v) for k, v in self.residual)
        return "at %r residual {%s}" % (self.args, terms)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    witness: Witness = None
    detail: str = ""

    def __bool__(self):
        return self.ok

    def describe(self):
        status = "pass" if self.ok else "FAIL"
        out = "%s: %s" % (self.name, status)
        if self.detail:
            out += " (%s)" % self.detail
        if self.witness is not None:
            out += " " + self.witness.describe()
        return out


def combine(name, results):
    """Fold sub-results into one: first failure wins, detail lists sub-names."""
    for r in results:
        if not r.ok:
            return CheckResult(name, False, r.witness, detail=r.name)
    return CheckResult(name, True, detail="%d checks" % len(results))


def decided_once(decide):
    """The checker decide(structure), deciding once per structure: the
    result is kept on the structure, keyed by the checker, so a Poisson
    algebra asked for check_lie keeps a "lie" result beside its "poisson"
    one.  Sound because no structure's maps are reassigned after
    construction.  The call goes through the returned checker's
    __wrapped__, so a test can count the decisions."""
    key = decide.__name__

    @functools.wraps(decide)
    def checker(structure):
        kept = vars(structure).setdefault("_decided", {})
        if key not in kept:
            kept[key] = checker.__wrapped__(structure)
        return kept[key]

    return checker
