"""Uniform pass/fail reporting for every checker in the package.

Witnesses always carry the lexicographically first failing basis tuple and the
nonzero residual, so failure messages are stable across runs.
"""

import functools

from .errors import AxiomError


_assign = object.__setattr__


class _Frozen:
    """Immutable fields in __slots__ order, equal only within one class: a frozen
    dataclass without importing dataclasses (and inspect, ast, dis, tokenize)."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self.__reduce__() == other.__reduce__() if same else NotImplemented

    def __hash__(self):
        return hash(self.__reduce__()[1])

    def __repr__(self):
        return type(self).__name__ + repr(self.__reduce__()[1])


class Witness(_Frozen):
    __slots__ = ("args",       # basis labels (or indices) of the failing tuple
                 "residual")   # sorted ((coordinate, Fraction), ...), all nonzero
    TOO_LONG = "too long to print"  # past int()'s limit on decimal digits

    def __init__(self, args, residual):
        _assign(self, "args", args)
        _assign(self, "residual", residual)

    @staticmethod
    def printed(value):
        """str(value), or TOO_LONG where str() refuses it."""
        try:
            return str(value)
        except ValueError:
            return Witness.TOO_LONG

    def describe(self):
        try:
            terms = ", ".join("%s: %s" % (k, v) for k, v in self.residual)
        except ValueError:
            terms = self.TOO_LONG
        return "at %r residual {%s}" % (self.args, terms)


class CheckResult(_Frozen):
    __slots__ = ("name", "ok", "witness", "detail")

    def __init__(self, name, ok, witness=None, detail=""):
        _assign(self, "name", name)
        _assign(self, "ok", ok)
        _assign(self, "witness", witness)
        _assign(self, "detail", detail)

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
    """Fold sub-results into one: first failure wins, detail lists sub-names.
    results may be lazy: nothing after the first failure is read."""
    count = 0
    for count, r in enumerate(results, 1):
        if not r.ok:
            return CheckResult(name, False, r.witness, detail=r.name)
    return CheckResult(name, True, detail="%d checks" % count)


def require(result, prefix):
    """AxiomError(prefix + the description) unless result passes."""
    if not result:
        raise AxiomError(prefix + result.describe(), result)


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


def kept(structure, checker):
    """The result checker (a decided_once checker) keeps on structure, or
    None when it was never decided there; reading it decides nothing."""
    return vars(structure).get("_decided", {}).get(checker.__name__)
