"""JSON document layer: round trips, autofill, caps, error channels."""

import json
from fractions import Fraction

import pytest

from gsheaf import exactalg, schemas
from gsheaf.convalg import build_conv_algebra
from gsheaf.errors import CapExceeded, InputError
from gsheaf.fields import GF, QQ
from gsheaf.fixtures import (galois_sheaf, pair_groupoid,
                             partial_swap_action, scalar_algebra,
                             swap_action, swap_ring_action, t1_groupoid)
from gsheaf.groupoid import validate_groupoid
from gsheaf.sheaf import constant_sheaf


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(schemas.dump_json(doc) if isinstance(doc, dict) else doc,
                 encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# fields


def test_field_docs():
    assert schemas.field_from_doc({"p": 5}) == GF(5)
    assert schemas.field_from_doc("Q") == QQ
    assert schemas.field_to_doc(GF(7)) == {"p": 7}
    assert schemas.field_to_doc(QQ) == "Q"
    with pytest.raises(CapExceeded):
        schemas.field_from_doc({"p": 17})
    with pytest.raises(InputError):
        schemas.field_from_doc({"p": 4})     # within the cap but composite
    # above the cap, a composite order is still malformed input
    for composite in (10**6, 10**40 + 1):
        with pytest.raises(InputError):
            schemas.field_from_doc({"p": composite})
    with pytest.raises(CapExceeded):
        schemas.field_from_doc({"p": 2**61 - 1})
    with pytest.raises(InputError):
        schemas.field_from_doc("R")


def test_rational_coefficients_round_trip():
    A = exactalg.matrix_algebra(QQ, 2)
    doc = schemas.algebra_to_doc(A)
    assert doc["unit"] == ["1/1", "0/1", "0/1", "1/1"]
    back = schemas.algebra_from_doc(doc)
    assert back.table == A.table
    assert back.unit == A.unit


def test_rational_strings_parse():
    doc = schemas.algebra_to_doc(scalar_algebra(QQ))
    doc["table"] = [[["3/2"]]]
    doc["unit"] = ["2/3"]
    A = schemas.algebra_from_doc(doc)
    assert A.table[0][0] == (Fraction(3, 2),)
    assert A.unit == (Fraction(2, 3),)


def test_float_coefficients_rejected():
    doc = schemas.algebra_to_doc(scalar_algebra(QQ))
    doc["table"] = [[[0.5]]]
    with pytest.raises(InputError):
        schemas.algebra_from_doc(doc)


# ---------------------------------------------------------------------------
# groupoids


def test_groupoid_round_trip():
    for G in (t1_groupoid(3), pair_groupoid(2)):
        doc = schemas.groupoid_to_doc(G)
        back = schemas.groupoid_from_doc(doc)
        assert back.units == G.units
        assert back.arrows == G.arrows
        assert back.compose == G.compose
        assert back.inverse == G.inverse


def test_groupoid_doc_omits_identity_bookkeeping():
    doc = schemas.groupoid_to_doc(pair_groupoid(2))
    # only the two swap-swap compositions need listing
    assert sorted(doc["compose"]) == [["a12", "a21", "u1"],
                                      ["a21", "a12", "u2"]]
    assert ["u1", "u1"] not in doc["inverse"]


def test_groupoid_identity_autofill():
    doc = {
        "kind": "groupoid",
        "units": ["e"],
        "arrows": [{"id": "e", "src": "e", "dst": "e"},
                   {"id": "g", "src": "e", "dst": "e"}],
        "compose": [["g", "g", "e"]],
        "inverse": [["g", "g"]],
    }
    G = schemas.groupoid_from_doc(doc)
    assert validate_groupoid(G) == []
    assert G.compose["e", "g"] == "g"
    assert G.compose["g", "e"] == "g"
    assert G.inverse["e"] == "e"


def test_groupoid_missing_identity_arrow():
    doc = {
        "kind": "groupoid",
        "units": ["u"],
        "arrows": [],
    }
    with pytest.raises(InputError):
        schemas.groupoid_from_doc(doc)


def test_groupoid_conflicting_compose():
    doc = {
        "kind": "groupoid",
        "units": ["e"],
        "arrows": [{"id": "e", "src": "e", "dst": "e"},
                   {"id": "g", "src": "e", "dst": "e"}],
        "compose": [["g", "g", "e"], ["g", "g", "g"]],
        "inverse": [["g", "g"]],
    }
    with pytest.raises(InputError):
        schemas.groupoid_from_doc(doc)


def test_groupoid_invalid_structure_rejected():
    doc = {
        "kind": "groupoid",
        "units": ["e"],
        "arrows": [{"id": "e", "src": "e", "dst": "e"},
                   {"id": "g", "src": "e", "dst": "e"}],
        "compose": [["g", "g", "g"]],        # then g has no inverse
        "inverse": [["g", "g"]],
    }
    with pytest.raises(InputError):
        schemas.groupoid_from_doc(doc)


# ---------------------------------------------------------------------------
# sheaves


def test_sheaf_round_trip():
    G, O = galois_sheaf()
    doc = schemas.sheaf_to_doc(O)
    back = schemas.sheaf_from_doc(doc)
    assert back.alpha == O.alpha
    for u in G.units:
        assert back.stalk[u].table == O.stalk[u].table
        assert back.stalk[u].unit == O.stalk[u].unit


def test_sheaf_doc_omits_identity_alphas():
    G, O = galois_sheaf()
    doc = schemas.sheaf_to_doc(O)
    assert "x" not in doc["alpha"]
    assert "g" in doc["alpha"]


def test_sheaf_missing_alpha_rejected():
    G, O = galois_sheaf()
    doc = schemas.sheaf_to_doc(O)
    del doc["alpha"]["g"]
    with pytest.raises(InputError):
        schemas.sheaf_from_doc(doc)


def test_sheaf_groupoid_by_path(tmp_path):
    G = pair_groupoid(2)
    O = constant_sheaf(G, scalar_algebra(GF(3)))
    gpath = write(tmp_path, "g.json", schemas.groupoid_to_doc(G))
    doc = schemas.sheaf_to_doc(O)
    doc["groupoid"] = "g.json"
    spath = write(tmp_path, "s.json", doc)
    kind, back = schemas.load_document(spath)
    assert kind == "sheaf"
    assert back.groupoid.arrows == G.arrows


# ---------------------------------------------------------------------------
# modules and algebras


def test_module_round_trip():
    G = t1_groupoid(2)
    conv = build_conv_algebra(G, constant_sheaf(G, scalar_algebra(GF(2))))
    M = exactalg.regular_module(conv.algebra)
    doc = schemas.module_to_doc(M)
    assert set(doc["action"]) == {"u1|0", "u2|0"}
    back = schemas.module_from_doc(doc, conv.algebra)
    assert back.mats == M.mats


def test_module_requires_every_label():
    G = t1_groupoid(2)
    conv = build_conv_algebra(G, constant_sheaf(G, scalar_algebra(GF(2))))
    M = exactalg.regular_module(conv.algebra)
    doc = schemas.module_to_doc(M)
    del doc["action"]["u2|0"]
    with pytest.raises(InputError):
        schemas.module_from_doc(doc, conv.algebra)
    doc["action"]["u2|0"] = doc["action"]["u1|0"]
    doc["action"]["zz|9"] = doc["action"]["u1|0"]
    with pytest.raises(InputError):
        schemas.module_from_doc(doc, conv.algebra)


def test_module_action_must_satisfy_axioms():
    G = t1_groupoid(2)
    conv = build_conv_algebra(G, constant_sheaf(G, scalar_algebra(GF(2))))
    doc = {"kind": "module", "dim": 1,
           "action": {"u1|0": [[1]], "u2|0": [[1]]}}
    with pytest.raises(InputError):
        schemas.module_from_doc(doc, conv.algebra)


def test_algebra_round_trip_finite_field():
    A = exactalg.matrix_algebra(GF(3), 2)
    doc = schemas.algebra_to_doc(A)
    back = schemas.algebra_from_doc(doc)
    assert back.labels == A.labels
    assert back.table == A.table


# ---------------------------------------------------------------------------
# semigroups and actions


def test_partial_injections_sugar():
    doc = {"kind": "inverse_semigroup", "partial_injections": ["1", "2"]}
    S = schemas.inverse_semigroup_from_doc(doc)
    assert len(S.elements) == 7


def test_inverse_semigroup_round_trip():
    doc = {"kind": "inverse_semigroup", "partial_injections": ["1", "2"]}
    S = schemas.inverse_semigroup_from_doc(doc)
    doc2 = schemas.inverse_semigroup_to_doc(S)
    back = schemas.inverse_semigroup_from_doc(doc2)
    assert back.elements == S.elements
    assert back.mul == S.mul
    assert back.star == S.star


def test_space_action_round_trip():
    act = swap_action()
    doc = schemas.space_action_to_doc(act)
    back = schemas.space_action_from_doc(doc)
    assert back.points == act.points
    assert back.domain == act.domain
    assert back.theta == act.theta


def test_ring_action_round_trip():
    act = swap_ring_action()
    doc = schemas.ring_action_to_doc(act)
    back = schemas.ring_action_from_doc(doc)
    assert back.domain == act.domain
    assert back.alpha == act.alpha


def test_partial_group_action_round_trip():
    act = partial_swap_action()
    doc = schemas.partial_group_action_to_doc(act)
    back = schemas.partial_group_action_from_doc(doc)
    assert back.points == act.points
    assert back.domain == act.domain
    assert back.theta == act.theta
    assert back.inv == act.inv


def test_theta_duplicate_key_rejected():
    act = swap_action()
    doc = schemas.space_action_to_doc(act)
    doc["theta"]["g"] = [["a", "b"], ["a", "a"]]
    with pytest.raises(InputError):
        schemas.space_action_from_doc(doc)


# ---------------------------------------------------------------------------
# load_document and dump_json


def test_load_document_dispatch(tmp_path):
    paths = {
        "groupoid": schemas.groupoid_to_doc(pair_groupoid(2)),
        "space_action": schemas.space_action_to_doc(swap_action()),
        "ring_action": schemas.ring_action_to_doc(swap_ring_action()),
        "partial_group_action":
            schemas.partial_group_action_to_doc(partial_swap_action()),
    }
    for kind, doc in paths.items():
        p = write(tmp_path, f"{kind}.json", doc)
        got_kind, obj = schemas.load_document(p)
        assert got_kind == kind


def test_load_document_rejects_module(tmp_path):
    p = write(tmp_path, "m.json", {"kind": "module", "dim": 0, "action": {}})
    with pytest.raises(InputError):
        schemas.load_document(p)


def test_load_document_rejects_unknown_kind(tmp_path):
    p = write(tmp_path, "x.json", {"kind": "mystery"})
    with pytest.raises(InputError):
        schemas.load_document(p)


def test_load_json_errors(tmp_path):
    p = write(tmp_path, "bad.json", "{not json")
    with pytest.raises(InputError):
        schemas.load_json(p)
    p2 = write(tmp_path, "arr.json", "[1, 2]")
    with pytest.raises(InputError):
        schemas.load_json(p2)
    with pytest.raises(InputError):
        schemas.load_json(str(tmp_path / "missing.json"))


def test_dump_json_is_deterministic():
    doc = {"b": 1, "a": {"z": 2, "y": 3}}
    out = schemas.dump_json(doc)
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert out.endswith("\n")
    assert out.index('"a"') < out.index('"b"')


def test_prime_cap_enforced_in_sheaf_docs():
    G = t1_groupoid(1)
    O = constant_sheaf(G, scalar_algebra(GF(2)))
    doc = schemas.sheaf_to_doc(O)
    doc["field"] = {"p": 17}
    with pytest.raises(CapExceeded):
        schemas.sheaf_from_doc(doc)
