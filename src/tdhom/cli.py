"""Command line front end: verify structure files, compute cohomology, export
the shipped examples.

Exit codes are a stable contract:

    0  every requested check passed
    1  at least one check failed
    2  unusable input (parse error, missing file, unknown name, bad flags)
    3  a size guard refused the computation

Reports exist in two renderings of the same data: --json prints the machine
body (sorted keys, no timestamps, identical bytes for identical inputs), the
default layout is a pure function of that body.  Elapsed time goes to stderr
so it never perturbs the report.
"""

import argparse
import json
import sys
import time

from . import corpus
from .algebra import (
    LieModule,
    check_associative,
    check_lie,
    check_module,
    check_poisson,
)
from .coalgebra import Coalgebra, check_coassociativity, symmetry_class
from .cohomology import TDComplexData, classical_complex
from .convolution import DEFAULT_GUARD_LIMIT
from .errors import (
    AxiomError,
    GuardError,
    MalformedInput,
    ParseError,
    ShapeError,
)
from .files import load_path, role_of, serialize_structure
from .lie_rinehart import (
    TDLRStructure,
    check_lr,
    check_subcomplex,
    check_td_lr,
)
from .td_structures import (
    TDLieStructure,
    TDModuleStructure,
    check_td_lie,
    check_td_module,
    check_td_poisson,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_GUARD = 3

REPORT_TAG = "tdhom-report/1"

SUITES = ("coalgebra", "lie", "td-lie", "td-poisson", "td-module",
          "lie-rinehart", "all")

def default_domains():
    """Corpus coalgebras small enough for the brute-force twisted checks,
    used whenever the command line supplies no coalgebra file."""
    names = sorted({c for _, c in corpus.td_check_pairs()})
    return [(name, corpus.get_coalgebra(name)) for name in names]


def _witness_doc(w):
    if w is None:
        return None
    return {
        "args": [list(a) if isinstance(a, (tuple, list)) else a
                 for a in w.args],
        "residual": [[coord, str(value)] for coord, value in w.residual],
    }


def _execute(thunk):
    """Run one checker; fold guard refusals and precondition failures into
    the entry instead of aborting the whole report."""
    try:
        result = thunk()
    except GuardError as exc:
        return {"status": "guarded", "detail": str(exc), "witness": None}
    except AxiomError as exc:
        inner = getattr(exc, "result", None)
        witness = inner.witness if inner is not None else None
        return {"status": "fail", "detail": str(exc),
                "witness": _witness_doc(witness)}
    if result.ok:
        return {"status": "pass", "detail": result.detail, "witness": None}
    return {"status": "fail", "detail": result.detail or result.name,
            "witness": _witness_doc(result.witness)}


def _suite_checks(suite, role, obj, domains, args):
    """(domain name or None, check name, thunk) triples for one structure."""

    def wants(s):
        return suite in (s, "all")

    out = []
    if role == "coalgebra" and wants("coalgebra"):
        out.append((None, "coassociativity",
                    lambda: check_coassociativity(obj)))
    elif role == "lie":
        if wants("lie"):
            out.append((None, "lie", lambda: check_lie(obj)))
        if wants("td-lie"):
            for cname, C in domains:
                out.append((cname, "td-lie",
                            lambda C=C: check_td_lie(obj, C)))
    elif role == "poisson":
        if suite == "all":
            out.append((None, "poisson", lambda: check_poisson(obj)))
        if wants("td-poisson"):
            for cname, C in domains:
                out.append((cname, "td-poisson",
                            lambda C=C: check_td_poisson(obj, C)))
    elif role == "module":
        if suite == "all":
            out.append((None, "lie", lambda: check_lie(obj.base)))
            out.append((None, "module", lambda: check_module(obj)))
        if wants("td-module"):
            for cname, C in domains:
                def run(C=C):
                    td = TDLieStructure(obj.base, C, check=False)
                    return check_td_module(
                        TDModuleStructure(td, obj, check=False))
                out.append((cname, "td-module", run))
    elif role == "associative" and suite == "all":
        out.append((None, "associative",
                    lambda: check_associative(obj.product)))
    elif role == "lie-rinehart" and wants("lie-rinehart"):
        out.append((None, "lie-rinehart", lambda: check_lr(obj)))
        for cname, C in domains:
            s = TDLRStructure(obj, C)
            out.append((cname, "td-lie-rinehart",
                        lambda s=s: check_td_lr(s)))
            out.append((cname, "td-subcomplex",
                        lambda s=s: check_subcomplex(
                            s, args.subcomplex_maxdeg, args.guard_limit)))
    return out


def build_verify_report(args):
    loaded = []
    entries = []
    for path in args.paths:
        try:
            obj = load_path(path, unsafe_skip_axioms=args.unsafe_skip_axioms)
        except AxiomError as exc:
            inner = getattr(exc, "result", None)
            entries.append({
                "path": path,
                "structure": exc.structure_name or path,
                "role": exc.role or "unknown",
                "coalgebra": None,
                "check": "load",
                "status": "fail",
                "detail": str(exc),
                "witness": _witness_doc(
                    inner.witness if inner is not None else None),
            })
            continue
        loaded.append((path, obj))

    file_domains = [(getattr(obj, "structure_name", None) or path, obj)
                    for path, obj in loaded if isinstance(obj, Coalgebra)]
    domains = file_domains or default_domains()

    for path, obj in loaded:
        role = role_of(obj)
        display = getattr(obj, "structure_name", None) or path
        checks = _suite_checks(args.suite, role, obj, domains, args)
        if not checks:
            entries.append({
                "path": path, "structure": display, "role": role,
                "coalgebra": None, "check": "(none)", "status": "skipped",
                "detail": "role %s is outside suite %s" % (role, args.suite),
                "witness": None,
            })
            continue
        for cname, check_name, thunk in checks:
            outcome = _execute(thunk)
            entries.append({
                "path": path, "structure": display, "role": role,
                "coalgebra": cname, "check": check_name, **outcome,
            })

    counts = {s: 0 for s in ("pass", "fail", "skipped", "guarded")}
    for e in entries:
        counts[e["status"]] += 1
    if counts["fail"]:
        status = "fail"
    elif counts["guarded"]:
        status = "guarded"
    else:
        status = "pass"
    return {
        "format": REPORT_TAG,
        "command": "verify",
        "suite": args.suite,
        "entries": entries,
        "counts": counts,
        "status": status,
    }


def render_verify(report):
    lines = []
    for e in report["entries"]:
        place = e["structure"]
        if e["coalgebra"]:
            place += " x " + e["coalgebra"]
        line = "%-7s %s: %s" % (e["status"], place, e["check"])
        if e["detail"]:
            line += " (%s)" % e["detail"]
        if e["witness"]:
            terms = ", ".join("%s: %s" % (coord, value)
                              for coord, value in e["witness"]["residual"])
            line += " at %s residual {%s}" % (e["witness"]["args"], terms)
        lines.append(line)
    c = report["counts"]
    lines.append("suite %s: %d pass, %d fail, %d skipped, %d guarded -> %s"
                 % (report["suite"], c["pass"], c["fail"], c["skipped"],
                    c["guarded"], report["status"]))
    return "\n".join(lines)


def build_cohomology_report(args):
    objs = []
    for path in args.paths:
        objs.append(load_path(path,
                              unsafe_skip_axioms=args.unsafe_skip_axioms))
    if args.module:
        objs.append(corpus.load(args.module,
                                unsafe_skip_axioms=args.unsafe_skip_axioms))
    modules = [o for o in objs if isinstance(o, LieModule)]
    coalgebras = [o for o in objs if isinstance(o, Coalgebra)]
    if args.coalgebra:
        coalgebras.append(corpus.get_coalgebra(args.coalgebra))
    if len(modules) != 1:
        raise ParseError("need exactly one module structure, got %d"
                         % len(modules))
    M = modules[0]
    report = {"format": REPORT_TAG, "command": "cohomology", "status": "pass",
              "module": getattr(M, "structure_name", None) or M.name,
              "coalgebra": None, "td": args.td}

    if not args.td:
        if coalgebras:
            raise ParseError("a coalgebra was supplied without --td")
        maxdeg = M.base.space.dim if args.maxdeg is None else args.maxdeg
        cx = classical_complex(M, maxdeg, args.guard_limit)
        return dict(report, maxdeg=maxdeg, cochain_dims=cx.cochain_dims(),
                    differential_ranks=cx.ranks(),
                    cohomology_dims=cx.cohomology_dims())

    if len(coalgebras) != 1:
        raise ParseError("--td needs exactly one coalgebra, got %d"
                         % len(coalgebras))
    C = coalgebras[0]
    maxdeg = args.maxdeg if args.maxdeg is not None else 2
    tdm = TDModuleStructure(TDLieStructure(M.base, C, check=False), M, check=False)
    data = TDComplexData(tdm, maxdeg, args.guard_limit)
    return dict(
        report, coalgebra=getattr(C, "structure_name", None) or C.space.name,
        maxdeg=maxdeg, cochain_dims=data.td_dims,
        classical_cochain_dims=data.alt_dims,
        induction_kernel_dims=data.ker_dims, composite_ranks=data.q_ranks,
        differential_ranks=data.q_ranks, cohomology_dims=data.h_dims,
        # "agree", or an AxiomError that ends the run
        direct_vs_induced=data.direct_vs_induced())


def render_cohomology(report):
    def row(label, values):
        return "%-24s %s" % (label + ":", " ".join(str(v) for v in values))

    lines = ["module %s" % report["module"]]
    if report["td"]:
        lines.append("hom-space complex over %s, degrees 0..%d"
                     % (report["coalgebra"], report["maxdeg"]))
        lines.append(row("cochain dims", report["cochain_dims"]))
        lines.append(row("classical cochain dims",
                         report["classical_cochain_dims"]))
        lines.append(row("induction kernel dims",
                         report["induction_kernel_dims"]))
        lines.append(row("composite ranks", report["composite_ranks"]))
        lines.append(row("differential ranks", report["differential_ranks"]))
        lines.append(row("dim H^k", report["cohomology_dims"]))
        lines.append("direct vs induced differential: %s"
                     % report["direct_vs_induced"])
    else:
        lines.append("classical complex, degrees 0..%d" % report["maxdeg"])
        lines.append(row("cochain dims", report["cochain_dims"]))
        lines.append(row("differential ranks", report["differential_ranks"]))
        lines.append(row("dim H^k", report["cohomology_dims"]))
    return "\n".join(lines)


def run_examples(args):
    if args.action == "list":
        rows = []
        for name in corpus.FIXTURES:
            rows.append((name, json.loads(corpus.fixture_text(name))["role"]))
        for name in corpus.coalgebra_names():
            C = corpus.get_coalgebra(name)
            rows.append((name, "coalgebra (%s, dim %d)"
                         % (symmetry_class(C), C.dim)))
        for name, kind in sorted(rows):
            print("%-18s %s" % (name, kind))
        return EXIT_PASS

    if not args.name:
        print("error: export needs an example name", file=sys.stderr)
        return EXIT_INPUT
    name = args.name
    if name in corpus.FIXTURES:
        text = corpus.fixture_text(name)
    elif name in corpus.coalgebra_names():
        text = serialize_structure(corpus.get_coalgebra(name))
    else:
        print("error: unknown example %r" % name, file=sys.stderr)
        return EXIT_INPUT
    dest = args.out or (name + ".json")
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(text)
    print("wrote %s" % dest)
    return EXIT_PASS


def non_negative_int(text):
    """text read as an int >= 0; ValueError otherwise."""
    value = int(text)
    if value < 0:
        raise ValueError("%d is negative" % value)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tdhom",
        description="Exact checkers and cohomology for twisted operator "
                    "algebra on maps out of a coalgebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a checker suite on structure files")
    v.add_argument("paths", nargs="+", help="structure files (tdhom/1)")
    v.add_argument("--suite", choices=SUITES, default="all")
    v.add_argument("--json", action="store_true",
                   help="print the machine-readable report")
    v.add_argument("--guard-limit", type=non_negative_int,
                   default=DEFAULT_GUARD_LIMIT,
                   help="size guard limit (default %(default)d)")
    v.add_argument("--subcomplex-maxdeg", type=non_negative_int, default=1,
                   help="depth of the linear-subcomplex sweep")
    v.add_argument("--unsafe-skip-axioms", action="store_true",
                   help="load files without their load-time axiom checks")

    c = sub.add_parser("cohomology", help="cochain dims, ranks and H^k")
    c.add_argument("paths", nargs="*", help="structure files (tdhom/1)")
    c.add_argument("--module", help="corpus module name")
    c.add_argument("--coalgebra", help="corpus coalgebra name")
    c.add_argument("--maxdeg", type=int, default=None)
    c.add_argument("--td", action="store_true",
                   help="compute on the hom-space complex over a coalgebra")
    c.add_argument("--json", action="store_true")
    c.add_argument("--guard-limit", type=non_negative_int,
                   default=DEFAULT_GUARD_LIMIT,
                   help="size guard limit (default %(default)d)")
    c.add_argument("--unsafe-skip-axioms", action="store_true")

    e = sub.add_parser("examples", help="list or export shipped structures")
    e.add_argument("action", choices=("list", "export"))
    e.add_argument("name", nargs="?")
    e.add_argument("--out", help="destination path (default <name>.json)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "examples":
            return run_examples(args)
        if args.command == "verify":
            report = build_verify_report(args)
            rendered = render_verify(report)
        else:
            report = build_cohomology_report(args)
            rendered = render_cohomology(report)
    except GuardError as exc:
        print("guard refused: %s (see --guard-limit)" % exc, file=sys.stderr)
        return EXIT_GUARD
    except (ParseError, MalformedInput, ShapeError, AxiomError, ValueError,
            KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(rendered)
    print("elapsed %.2fs" % (time.monotonic() - started), file=sys.stderr)
    if report["status"] == "fail":
        return EXIT_FAIL
    if report["status"] == "guarded":
        return EXIT_GUARD
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
