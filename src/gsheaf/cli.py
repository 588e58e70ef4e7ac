"""Command line front end.

Every command reads JSON documents, prints one deterministic JSON
object (sorted keys, two-space indent, no timestamps) and exits with:

    0  the check passed, was skipped for failed hypotheses, or plain ok
    1  a verified identity is false
    2  malformed input or usage
    3  a declared cap was exceeded

Structured checks print a report object with keys check, hypotheses,
lhs, rhs, pass, status, witnesses, caps_hit, notes.
"""

from __future__ import annotations

import argparse
import sys

from . import convalg, exactalg, fixtures, induction, isgring, schemas
from . import sheaf as sheafmod
from .convalg import build_conv_algebra
from .errors import CapExceeded, CheckFailure, GsheafError, InputError
from .fields import DEFAULT_PRIME_CAP, GF
from .groupoid import is_effective, is_minimal
from .reports import Report


def _print(doc: dict) -> None:
    sys.stdout.write(schemas.dump_json(doc))


def _report_exit(rep: Report) -> int:
    _print(rep.to_json())
    return 1 if rep.passed is False else 0


def _load_sheaf(path: str):
    kind, obj = schemas.load_document(path)
    if kind != "sheaf":
        raise InputError(f"{path}: expected a sheaf document, got {kind}")
    return obj.groupoid, obj


def _load_kind(path: str, want: str):
    kind, obj = schemas.load_document(path)
    if kind != want:
        raise InputError(f"{path}: expected a {want} document, got {kind}")
    return obj


def _property_report(check: str, flag: bool, witnesses: dict | None = None,
                     notes=None) -> Report:
    return Report(check=check, lhs={check: flag}, rhs={check: True},
                  passed=bool(flag), witnesses=witnesses or {},
                  notes=list(notes or []))


def cmd_validate(args) -> int:
    kind, obj = schemas.load_document(args.file)
    doc = {"kind": kind, "valid": True}
    if kind == "groupoid":
        doc["units"] = len(obj.units)
        doc["arrows"] = len(obj.arrows)
    elif kind == "sheaf":
        doc["units"] = len(obj.groupoid.units)
        doc["arrows"] = len(obj.groupoid.arrows)
        doc["stalk_dims"] = {u: obj.stalk[u].dim for u in obj.groupoid.units}
    elif kind == "inverse_semigroup":
        doc["elements"] = len(obj.elements)
        doc["idempotents"] = len(obj.idempotents())
    elif kind == "space_action":
        doc["elements"] = len(obj.semigroup.elements)
        doc["points"] = len(obj.points)
    elif kind == "ring_action":
        doc["elements"] = len(obj.semigroup.elements)
        doc["algebra_dim"] = obj.algebra.dim
    elif kind == "partial_group_action":
        doc["elements"] = len(obj.elements)
        doc["points"] = len(obj.points)
    elif kind == "algebra":
        bad = exactalg.validate_algebra(obj)
        if bad:
            raise InputError("not an associative algebra: " + bad[0])
        doc["dim"] = obj.dim
    _print(doc)
    return 0


def cmd_algebra(args) -> int:
    G, O = _load_sheaf(args.file)
    conv = build_conv_algebra(G, O)
    doc = schemas.algebra_to_doc(conv.algebra)
    text = schemas.dump_json(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _print({"written": args.out, "dim": conv.dim})
    else:
        sys.stdout.write(text)
    return 0


def cmd_check(args) -> int:
    what = args.what
    if what == "topfree":
        act = _load_kind(args.file, "space_action")
        return _report_exit(_property_report(
            "topologically_free", isgring.is_topologically_free(act)))

    kind, obj = schemas.load_document(args.file)
    if what in ("minimal", "effective"):
        G = obj if kind == "groupoid" else obj.groupoid
        flag = is_minimal(G) if what == "minimal" else is_effective(G)
        return _report_exit(_property_report(what, flag))

    if kind != "sheaf":
        raise InputError(f"check {what} needs a sheaf document")
    G, O = obj.groupoid, obj

    if what == "int-ker":
        return _report_exit(_property_report(
            "int_ker_is_units", sheafmod.int_ker_is_units(O),
            notes=["interior of the coefficient kernel meets only units"]))
    if what == "vnr-diagonal":
        flag, wit = sheafmod.diagonal_vnr(O)
        witnesses = {} if wit is None else {"non_regular_element": wit}
        return _report_exit(_property_report("vnr_diagonal", flag, witnesses))

    conv = build_conv_algebra(G, O)
    if what == "simple":
        # the witness reads Gamma's memo: simplicity, and the radical when
        # there is one block, are answered first on the orbit corner
        if not convalg.is_simple(conv) and len(
                exactalg.central_primitive_idempotents(conv.algebra)) == 1:
            convalg.jacobson_radical(conv)
        wit = exactalg.simplicity_witness(conv.algebra)
        witnesses = {}
        if wit is not None:
            witnesses["proper_ideal_generator"] = [
                conv.field.encode(c) for c in wit]
        return _report_exit(_property_report("simple", wit is None,
                                             witnesses))
    if what == "masa":
        return _report_exit(convalg.check_masa_criterion(conv))
    if what == "uniqueness":
        return _report_exit(convalg.check_uniqueness_theorem(conv))
    if what == "semiprimitive":
        return _report_exit(convalg.check_semiprimitivity(
            G, O, conv, args.seed))
    if what == "primitive":
        return _report_exit(convalg.check_primitivity(G, O, conv))
    raise InputError(f"unknown check {what}")


def cmd_ideals(args) -> int:
    G, O = _load_sheaf(args.file)
    conv = build_conv_algebra(G, O)
    ideals = convalg.two_sided_ideals(conv)
    f = conv.field
    _print({
        "algebra_dim": conv.dim,
        "count": len(ideals),
        "ideals": [{"dim": I.dim,
                    "basis": [[f.encode(c) for c in row] for row in I.basis]}
                   for I in ideals],
    })
    return 0


def cmd_radical(args) -> int:
    G, O = _load_sheaf(args.file)
    conv = build_conv_algebra(G, O)
    J = convalg.jacobson_radical(conv)
    f = conv.field
    _print({
        "algebra_dim": conv.dim,
        "radical_dim": J.dim,
        "basis": [[f.encode(c) for c in row] for row in J.basis],
    })
    return 0


def cmd_induce(args) -> int:
    G, O = _load_sheaf(args.file)
    if args.unit not in G.unit_index:
        raise InputError(f"{args.unit} is not a unit of the groupoid")
    conv = build_conv_algebra(G, O)
    B = induction.isotropy_ring(conv, args.unit)
    mdoc = schemas.load_json(args.module)
    M = schemas.module_from_doc(mdoc, B)
    T = induction.Transversal.canonical(conv, args.unit)
    ind = induction.induce(conv, args.unit, M, T)
    ann = induction.annihilator_induced(conv, args.unit, M, T, ind)
    f = conv.field
    _print({
        "unit": args.unit,
        "isotropy_ring_dim": B.dim,
        "module_dim": M.dim,
        "induced_dim": ind.dim,
        "annihilator_dim": ann.dim,
        "annihilator_basis": [[f.encode(c) for c in row] for row in ann.basis],
        "simple": induction.induced_simplicity_witness(
            conv, args.unit, M, T, ind) is None,
    })
    return 0


def cmd_verify(args) -> int:
    what = args.what
    if what == "effros-hahn":
        G, O = _load_sheaf(args.file)
        conv = build_conv_algebra(G, O)
        return _report_exit(induction.verify_effros_hahn(conv, args.seed))
    if what == "simplelife":
        G, O = _load_sheaf(args.file)
        return _report_exit(convalg.check_simplelife(G, O))
    if what == "siri":
        G, O = _load_sheaf(args.file)
        return _report_exit(isgring.verify_siri(G, O))
    if what == "pierce":
        act = _load_kind(args.file, "ring_action")
        return _report_exit(isgring.pierce_verification(act))
    if what == "cinza":
        act = _load_kind(args.file, "space_action")
        return _report_exit(isgring.check_cinza(act))
    if what == "simpleaction":
        act = _load_kind(args.file, "space_action")
        return _report_exit(isgring.check_simpleaction(act, p=args.p))
    if what == "partial-crossed":
        doc = schemas.load_json(args.file)
        act = schemas.partial_group_action_from_doc(doc)
        if "field" not in doc:
            raise InputError("partial_group_action document needs a field")
        field = schemas.field_from_doc(doc["field"])
        return _report_exit(isgring.verify_partial_crossed(act, field))
    if what == "disintegration":
        G, O = _load_sheaf(args.file)
        conv = build_conv_algebra(G, O)
        M = None
        if args.module:
            mdoc = schemas.load_json(args.module)
            M = schemas.module_from_doc(mdoc, conv.algebra)
        return _report_exit(induction.check_disintegration(conv, M))
    raise InputError(f"unknown verification {what}")


def cmd_fixtures(args) -> int:
    if args.action != "run":
        raise InputError("the fixtures command only knows 'run'")
    results = fixtures.run_catalog(args.filter, args.seed)
    if not results:
        raise InputError(f"no fixture name contains {args.filter!r}")
    doc = {name: [rep.to_json() for rep in reps]
           for name, reps in results.items()}
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for reps in results.values():
        for rep in reps:
            counts[rep.status] += 1
    _print({"fixtures": doc, "totals": counts})
    return 1 if counts["fail"] else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gsheaf",
        description="exact convolution algebras of finite groupoids "
                    "with sheaf coefficients")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for compatibility; every check is "
                        "deterministic, so it changes no answer (default 0)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate any input document")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("algebra",
                        help="structure constants of the convolution algebra")
    sp.add_argument("file")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_algebra)

    sp = sub.add_parser("check", help="single named check")
    sp.add_argument("what", choices=["simple", "semiprimitive", "primitive",
                                     "vnr-diagonal", "masa", "uniqueness",
                                     "minimal", "effective", "int-ker",
                                     "topfree"])
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("ideals", help="enumerate two-sided ideals")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_ideals)

    sp = sub.add_parser("radical", help="Jacobson radical")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_radical)

    sp = sub.add_parser("induce",
                        help="induce a module of an isotropy ring")
    sp.add_argument("file")
    sp.add_argument("--unit", required=True)
    sp.add_argument("--module", required=True)
    sp.set_defaults(fn=cmd_induce)

    sp = sub.add_parser("verify", help="machine-check a structure theorem")
    sp.add_argument("what", choices=["effros-hahn", "simplelife", "siri",
                                     "pierce", "cinza", "simpleaction",
                                     "partial-crossed", "disintegration"])
    sp.add_argument("file")
    sp.add_argument("--p", type=int, default=2,
                    help="characteristic for constant coefficients "
                         "(simpleaction, default 2)")
    sp.add_argument("--module", default=None,
                    help="module document (disintegration; default regular)")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("fixtures", help="run the built-in catalog")
    sp.add_argument("action", choices=["run"])
    sp.add_argument("--filter", default=None)
    sp.set_defaults(fn=cmd_fixtures)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "what", None) == "simpleaction":
            if args.p > DEFAULT_PRIME_CAP:
                raise CapExceeded(
                    f"characteristic {args.p} exceeds the prime cap "
                    f"{DEFAULT_PRIME_CAP}")
            GF(args.p)  # rejects composite characteristics
        return args.fn(args)
    except CheckFailure as exc:
        _print({"error": str(exc), "kind": "check_failure"})
        return 1
    except CapExceeded as exc:
        _print({"error": str(exc), "kind": "cap_exceeded"})
        return 3
    except InputError as exc:
        _print({"error": str(exc), "kind": "input_error"})
        return 2
    except GsheafError as exc:
        _print({"error": str(exc), "kind": "error"})
        return 1


if __name__ == "__main__":
    sys.exit(main())
