"""JSON input documents for every structure the command line accepts.

Every document carries a top-level "kind".  Coefficients are integers
0..p-1 over GF(p) and "num/den" strings over the rationals.  Identity
arrows must be listed (with id equal to their unit's id); composition
pairs involving identities and identity alphas may be omitted and are
filled in automatically.
"""

from __future__ import annotations

import json
import os

from . import linalg
from .errors import CapExceeded, InputError
from .exactalg import AlgebraModule, FDAlgebra, Subspace
from .fields import DEFAULT_PRIME_CAP, Field, GF, QQ
from .groupoid import FiniteGroupoid, require_valid_groupoid
from .isgring import (FiniteInverseSemigroup, PartialGroupAction,
                      SpaceAction, SpectralRingAction,
                      symmetric_inverse_monoid)
from .sheaf import GSheafOfAlgebras, require_valid_sheaf

KINDS = ("groupoid", "sheaf", "inverse_semigroup", "space_action",
         "ring_action", "partial_group_action", "module")


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path} must hold a JSON object")
    return doc


def dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _require(doc: dict, key: str, kind: str):
    if key not in doc:
        raise InputError(f"{kind} document is missing '{key}'")
    return doc[key]


def _resolve(value, base_dir: str, loader, kind: str):
    """Accept an inline object or a path string, relative to the document."""
    if isinstance(value, str):
        path = value if os.path.isabs(value) else os.path.join(base_dir, value)
        return loader(load_json(path), os.path.dirname(path))
    if isinstance(value, dict):
        return loader(value, base_dir)
    raise InputError(f"expected an inline {kind} object or a path string")


def _is_index(x) -> bool:
    """A JSON integer; true and false are not indices."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list")
    return value


def _require_id(x, what: str) -> None:
    """Ids are strings or integers, so they can be keys."""
    if not isinstance(x, (str, int)):
        raise InputError(f"{what} must be strings or integers, got {x!r}")


def _require_ids(value, what: str) -> list:
    for x in _require_list(value, what):
        _require_id(x, what)
    return value


def _id_tuples(value, n: int, what: str) -> list[tuple]:
    """A list of n-element lists of ids, as tuples."""
    out = []
    for entry in _require_list(value, what):
        if not isinstance(entry, list) or len(entry) != n:
            raise InputError(f"{what} entries are lists of {n} ids")
        out.append(tuple(_require_ids(entry, what)))
    return out


def _require_known_keys(section, known, what: str, member: str) -> None:
    """Every key of an id-keyed section names a member of the structure."""
    if not isinstance(section, dict):
        raise InputError(f"{what} must be an object keyed by id")
    known = set(known)
    for key in section:
        if key not in known:
            raise InputError(f"{what} key {key!r} is not {member}")


# ---------------------------------------------------------------------------
# fields


def field_from_doc(value) -> Field:
    if value == "Q":
        return QQ
    if isinstance(value, dict) and set(value) == {"p"}:
        p = value["p"]
        if not isinstance(p, int):
            raise InputError("field characteristic must be an integer")
        if p > DEFAULT_PRIME_CAP:
            if pow(2, p - 1, p) != 1:  # Fermat's test proves p composite
                raise InputError(f"field order {p} is not prime")
            raise CapExceeded(
                f"characteristic {p} exceeds the prime cap {DEFAULT_PRIME_CAP}")
        return GF(p)
    raise InputError("field must be {\"p\": <prime>} or \"Q\"")


def field_to_doc(f: Field):
    return "Q" if not f.is_finite else {"p": f.p}


def _coerce_vector(f: Field, v, n: int, what: str):
    if not isinstance(v, list) or len(v) != n:
        raise InputError(f"{what} must be a list of {n} coefficients")
    return [f.coerce(c) for c in v]


def _coerce_matrix(f: Field, M, rows: int, cols: int, what: str):
    if not isinstance(M, list) or len(M) != rows:
        raise InputError(f"{what} must have {rows} rows")
    return [_coerce_vector(f, r, cols, what) for r in M]


def _encode_vector(f: Field, v):
    return [f.encode(c) for c in v]


def _encode_matrix(f: Field, M):
    return [_encode_vector(f, r) for r in M]


# ---------------------------------------------------------------------------
# groupoids


def groupoid_from_doc(doc: dict, base_dir: str = ".") -> FiniteGroupoid:
    if doc.get("kind") != "groupoid":
        raise InputError("expected a groupoid document")
    units = _require_ids(_require(doc, "units", "groupoid"), "groupoid units")
    arrows_doc = _require_list(_require(doc, "arrows", "groupoid"),
                               "groupoid arrows")
    arrows, src, dst = [], {}, {}
    for a in arrows_doc:
        if not isinstance(a, dict) or {"id", "src", "dst"} - set(a):
            raise InputError("each arrow needs id, src and dst")
        for key in ("id", "src", "dst"):
            _require_id(a[key], "groupoid ids")
        arrows.append(a["id"])
        src[a["id"]] = a["src"]
        dst[a["id"]] = a["dst"]
    for u in units:
        if u not in src:
            raise InputError(f"unit {u} has no identity arrow listed")
    unit_set = set(units)
    compose = {}
    for b, r, br in _id_tuples(doc.get("compose", []), 3, "compose"):
        if (b, r) in compose and compose[b, r] != br:
            raise InputError(f"conflicting compositions for ({b},{r})")
        compose[b, r] = br
    for a in arrows:
        if dst[a] in unit_set:
            compose.setdefault((dst[a], a), a)
        if src[a] in unit_set:
            compose.setdefault((a, src[a]), a)
    inverse = dict(_id_tuples(doc.get("inverse", []), 2, "inverse"))
    for u in units:
        inverse.setdefault(u, u)
    G = FiniteGroupoid(units, arrows, src, dst, compose, inverse)
    require_valid_groupoid(G)
    return G


def groupoid_to_doc(G: FiniteGroupoid) -> dict:
    unit_set = set(G.units)
    compose = [[b, r, br] for (b, r), br in sorted(
        G.compose.items(), key=lambda kv: (G.arrow_index[kv[0][0]],
                                           G.arrow_index[kv[0][1]]))
        if b not in unit_set and r not in unit_set]
    inverse = [[a, ia] for a, ia in sorted(
        G.inverse.items(), key=lambda kv: G.arrow_index[kv[0]])
        if a not in unit_set]
    return {
        "kind": "groupoid",
        "units": list(G.units),
        "arrows": [{"id": a, "src": G.src[a], "dst": G.dst[a]}
                   for a in G.arrows],
        "compose": compose,
        "inverse": inverse,
    }


# ---------------------------------------------------------------------------
# sheaves


def sheaf_from_doc(doc: dict, base_dir: str = ".") -> GSheafOfAlgebras:
    if doc.get("kind") != "sheaf":
        raise InputError("expected a sheaf document")
    G = _resolve(_require(doc, "groupoid", "sheaf"), base_dir,
                 groupoid_from_doc, "groupoid")
    f = field_from_doc(_require(doc, "field", "sheaf"))
    stalks_doc = _require(doc, "stalks", "sheaf")
    _require_known_keys(stalks_doc, G.units, "stalks", "a unit of the groupoid")
    stalks = {}
    for u in G.units:
        if u not in stalks_doc:
            raise InputError(f"missing stalk at unit {u}")
        sd = stalks_doc[u]
        if not isinstance(sd, dict):
            raise InputError(f"stalk at {u} must be an object")
        dim = sd.get("dim")
        if not _is_index(dim) or dim < 1:
            raise InputError(f"stalk at {u} needs a positive dim")
        one = _coerce_vector(f, _require(sd, "one", "stalk"), dim,
                             f"stalk unit at {u}")
        table = [[linalg.zero_vector(f, dim) for _ in range(dim)]
                 for _ in range(dim)]
        mul = sd.get("mul", [])
        if not isinstance(mul, list):
            raise InputError(f"stalk mul at {u} must be a list")
        for entry in mul:
            if not isinstance(entry, list) or len(entry) != 3:
                raise InputError("stalk mul entries are [i, j, coeffs]")
            i, j, coeffs = entry
            if not (_is_index(i) and _is_index(j)
                    and 0 <= i < dim and 0 <= j < dim):
                raise InputError(f"stalk mul indices at {u} must be integers "
                                 f"in range({dim})")
            table[i][j] = _coerce_vector(f, coeffs, dim,
                                         f"stalk product at {u}")
        labels = [f"b{k}" for k in range(dim)]
        stalks[u] = FDAlgebra(f, labels, table, one)
    alpha_doc = doc.get("alpha", {})
    _require_known_keys(alpha_doc, G.arrows, "alpha", "an arrow of the groupoid")
    alpha = {}
    for a in G.arrows:
        d = stalks[G.dst[a]].dim
        s = stalks[G.src[a]].dim
        if a in alpha_doc:
            alpha[a] = _coerce_matrix(f, alpha_doc[a], d, s,
                                      f"alpha at arrow {a}")
        elif G.is_unit_arrow(a):
            alpha[a] = linalg.identity_matrix(f, d)
        else:
            raise InputError(f"missing alpha for arrow {a}")
    O = GSheafOfAlgebras(G, f, stalks, alpha)
    require_valid_sheaf(O)
    return O


def sheaf_to_doc(O: GSheafOfAlgebras) -> dict:
    G = O.groupoid
    f = O.field
    stalks = {}
    for u in G.units:
        A = O.stalk[u]
        mul = []
        for i in range(A.dim):
            for j in range(A.dim):
                if not linalg.vec_is_zero(list(A.table[i][j])):
                    mul.append([i, j, _encode_vector(f, A.table[i][j])])
        stalks[u] = {"dim": A.dim, "one": _encode_vector(f, A.unit),
                     "mul": mul}
    alpha = {}
    for a in G.arrows:
        if G.is_unit_arrow(a):
            continue
        alpha[a] = _encode_matrix(f, O.alpha[a])
    return {
        "kind": "sheaf",
        "groupoid": groupoid_to_doc(G),
        "field": field_to_doc(f),
        "stalks": stalks,
        "alpha": alpha,
    }


# ---------------------------------------------------------------------------
# modules


def module_label(label) -> str:
    """String form of an algebra basis label: tuple parts joined by '|'."""
    if isinstance(label, tuple):
        return "|".join(str(part) for part in label)
    return str(label)


def module_from_doc(doc: dict, algebra: FDAlgebra,
                    base_dir: str = ".") -> AlgebraModule:
    if doc.get("kind") != "module":
        raise InputError("expected a module document")
    dim = _require(doc, "dim", "module")
    if not _is_index(dim) or dim < 0:
        raise InputError("module dim must be a non-negative integer")
    action = _require(doc, "action", "module")
    f = algebra.field
    by_string = {module_label(lab): i for i, lab in enumerate(algebra.labels)}
    _require_known_keys(action, by_string, "action", "an algebra basis label")
    mats = [None] * algebra.dim
    for key, M in action.items():
        mats[by_string[key]] = _coerce_matrix(f, M, dim, dim,
                                              f"action of {key}")
    for i, M in enumerate(mats):
        if M is None:
            raise InputError(
                f"missing action matrix for {module_label(algebra.labels[i])}")
    mod = AlgebraModule(algebra, dim, mats)
    bad = mod.validate()
    if bad:
        raise InputError("not a module: " + bad[0])
    return mod


def module_to_doc(M: AlgebraModule, algebra_path: str | None = None) -> dict:
    f = M.algebra.field
    doc = {
        "kind": "module",
        "dim": M.dim,
        "action": {module_label(lab): _encode_matrix(f, M.mats[i])
                   for i, lab in enumerate(M.algebra.labels)},
    }
    if algebra_path is not None:
        doc["algebra"] = algebra_path
    return doc


def algebra_to_doc(A: FDAlgebra) -> dict:
    f = A.field
    return {
        "kind": "algebra",
        "field": field_to_doc(f),
        "dim": A.dim,
        "labels": [module_label(lab) for lab in A.labels],
        "table": [[_encode_vector(f, A.table[i][j]) for j in range(A.dim)]
                  for i in range(A.dim)],
        "unit": _encode_vector(f, A.unit) if A.unit is not None else None,
    }


def algebra_from_doc(doc: dict, base_dir: str = ".") -> FDAlgebra:
    if doc.get("kind") != "algebra":
        raise InputError("expected an algebra document")
    f = field_from_doc(_require(doc, "field", "algebra"))
    labels = _require_ids(_require(doc, "labels", "algebra"), "algebra labels")
    dim = len(labels)
    table_doc = _require(doc, "table", "algebra")
    if not isinstance(table_doc, list) or len(table_doc) != dim:
        raise InputError("algebra table has the wrong number of rows")
    table = [_coerce_matrix(f, row, dim, dim, f"table[{i}]")
             for i, row in enumerate(table_doc)]
    unit = doc.get("unit")
    if unit is not None:
        unit = _coerce_vector(f, unit, dim, "algebra unit")
    return FDAlgebra(f, labels, table, unit)


# ---------------------------------------------------------------------------
# inverse semigroups and actions


def inverse_semigroup_from_doc(doc: dict,
                               base_dir: str = ".") -> FiniteInverseSemigroup:
    if doc.get("kind") != "inverse_semigroup":
        raise InputError("expected an inverse_semigroup document")
    if "partial_injections" in doc:
        symbols = _require_ids(doc["partial_injections"], "partial_injections")
        if not symbols:
            raise InputError("partial_injections must list the symbols")
        S, _ = symmetric_inverse_monoid(symbols)
        return S
    elements = _require_ids(_require(doc, "elements", "inverse_semigroup"),
                            "semigroup elements")
    mul = {(s, t): st for s, t, st in _id_tuples(
        _require(doc, "mul", "inverse_semigroup"), 3, "mul")}
    star = dict(_id_tuples(_require(doc, "star", "inverse_semigroup"), 2,
                           "star"))
    return FiniteInverseSemigroup(elements, mul, star)


def inverse_semigroup_to_doc(S: FiniteInverseSemigroup) -> dict:
    return {
        "kind": "inverse_semigroup",
        "elements": list(S.elements),
        "mul": [[s, t, S.mul[s, t]] for s in S.elements for t in S.elements],
        "star": [[s, S.star[s]] for s in S.elements],
    }


def _partial_bijections(doc: dict, elements, kind: str, member: str):
    """(points, domain, theta) of a space or partial group action document;
    domains and theta are objects keyed by elements."""
    points = _require_ids(_require(doc, "space", kind), "space")
    domains_doc = _require(doc, "domains", kind)
    theta_doc = _require(doc, "theta", kind)
    for section, name in ((domains_doc, "domains"), (theta_doc, "theta")):
        _require_known_keys(section, elements, name, member)
    domain, theta = {}, {}
    for s in elements:
        domain[s] = frozenset(_require_ids(domains_doc.get(s, []),
                                           f"domains[{s}]"))
        theta[s] = {}
        for x, y in _id_tuples(theta_doc.get(s, []), 2, f"theta[{s}]"):
            if x in theta[s]:
                raise InputError(f"theta[{s}] maps {x} twice")
            theta[s][x] = y
    return points, domain, theta


def space_action_from_doc(doc: dict, base_dir: str = ".") -> SpaceAction:
    if doc.get("kind") != "space_action":
        raise InputError("expected a space_action document")
    S = _resolve(_require(doc, "semigroup", "space_action"), base_dir,
                 inverse_semigroup_from_doc, "inverse_semigroup")
    points, domain, theta = _partial_bijections(
        doc, S.elements, "space_action", "an element of the semigroup")
    return SpaceAction(S, points, domain, theta)


def space_action_to_doc(act: SpaceAction) -> dict:
    S = act.semigroup
    return {
        "kind": "space_action",
        "semigroup": inverse_semigroup_to_doc(S),
        "space": list(act.points),
        "domains": {s: sorted(act.domain[s], key=act.pos.get)
                    for s in S.elements},
        "theta": {s: [[x, y] for x, y in sorted(act.theta[s].items(),
                                                key=lambda kv: act.pos[kv[0]])]
                  for s in S.elements},
    }


def ring_action_from_doc(doc: dict, base_dir: str = ".") -> SpectralRingAction:
    if doc.get("kind") != "ring_action":
        raise InputError("expected a ring_action document")
    S = _resolve(_require(doc, "semigroup", "ring_action"), base_dir,
                 inverse_semigroup_from_doc, "inverse_semigroup")
    A = _resolve(_require(doc, "algebra", "ring_action"), base_dir,
                 algebra_from_doc, "algebra")
    f = A.field
    domains_doc = _require(doc, "domains", "ring_action")
    alpha_doc = _require(doc, "alpha", "ring_action")
    for section, name in ((domains_doc, "domains"), (alpha_doc, "alpha")):
        _require_known_keys(section, S.elements, name,
                            "an element of the semigroup")
    domain, alpha = {}, {}
    for s in S.elements:
        gens = _require_list(domains_doc.get(s, []), f"domains[{s}]")
        vecs = [_coerce_vector(f, v, A.dim, f"domain generator of {s}")
                for v in gens]
        domain[s] = Subspace.from_vectors(f, A.dim, vecs)
        if s in alpha_doc:
            alpha[s] = _coerce_matrix(f, alpha_doc[s], A.dim, A.dim,
                                      f"alpha[{s}]")
        else:
            alpha[s] = linalg.identity_matrix(f, A.dim)
    return SpectralRingAction(S, A, domain, alpha)


def ring_action_to_doc(act: SpectralRingAction) -> dict:
    S, A = act.semigroup, act.algebra
    f = A.field
    return {
        "kind": "ring_action",
        "semigroup": inverse_semigroup_to_doc(S),
        "algebra": algebra_to_doc(A),
        "domains": {s: [_encode_vector(f, b) for b in act.domain[s].basis]
                    for s in S.elements},
        "alpha": {s: _encode_matrix(f, act.alpha[s]) for s in S.elements},
    }


def partial_group_action_from_doc(doc: dict,
                                  base_dir: str = ".") -> PartialGroupAction:
    if doc.get("kind") != "partial_group_action":
        raise InputError("expected a partial_group_action document")
    group = _require(doc, "group", "partial_group_action")
    if not isinstance(group, dict):
        raise InputError("partial_group_action group must be an object")
    elements = _require_ids(_require(group, "elements", "group"),
                            "group elements")
    unit = _require(group, "unit", "group")
    _require_id(unit, "group unit")
    mul = {(a, b): ab for a, b, ab in _id_tuples(
        _require(group, "mul", "group"), 3, "group mul")}
    points, domain, theta = _partial_bijections(
        doc, elements, "partial_group_action", "an element of the group")
    return PartialGroupAction(elements, mul, unit, points, domain, theta)


def partial_group_action_to_doc(act: PartialGroupAction) -> dict:
    return {
        "kind": "partial_group_action",
        "group": {
            "elements": list(act.elements),
            "unit": act.unit,
            "mul": [[a, b, act.mul[a, b]]
                    for a in act.elements for b in act.elements],
        },
        "space": list(act.points),
        "domains": {g: sorted(act.domain[g], key=act.pos.get)
                    for g in act.elements},
        "theta": {g: [[x, y] for x, y in sorted(act.theta[g].items(),
                                                key=lambda kv: act.pos[kv[0]])]
                  for g in act.elements},
    }


LOADERS = {
    "groupoid": groupoid_from_doc,
    "sheaf": sheaf_from_doc,
    "inverse_semigroup": inverse_semigroup_from_doc,
    "space_action": space_action_from_doc,
    "ring_action": ring_action_from_doc,
    "partial_group_action": partial_group_action_from_doc,
    "algebra": algebra_from_doc,
}


def load_document(path: str):
    """Load and validate any input document; returns (kind, object)."""
    doc = load_json(path)
    kind = doc.get("kind")
    if kind == "module":
        raise InputError("module documents need an algebra context; "
                         "use the induce command")
    if not isinstance(kind, str) or kind not in LOADERS:
        raise InputError(f"unknown document kind {kind!r}")
    return kind, LOADERS[kind](doc, os.path.dirname(os.path.abspath(path)))
