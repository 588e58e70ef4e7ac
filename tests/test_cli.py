"""Command line surface: exit codes, JSON shape, determinism."""

import copy
import json
import random
import subprocess
import sys

import pytest

from gsheaf import exactalg, schemas
from gsheaf.cli import main
from gsheaf.convalg import build_conv_algebra
from gsheaf.fields import GF, QQ
from gsheaf.fixtures import (_diag_f2_squared, catalog_names, cyclic_mul,
                             dual_numbers, galois_sheaf, get_fixture,
                             group_groupoid, pair_groupoid,
                             partial_swap_action, scalar_algebra, swap_action,
                             swap_ring_action, t1_groupoid, trivial_z2_action,
                             z2_isg)
from gsheaf.induction import isotropy_ring
from gsheaf.sheaf import constant_sheaf


def write(tmp_path, name, doc):
    p = tmp_path / name
    text = schemas.dump_json(doc) if isinstance(doc, dict) else doc
    p.write_text(text, encoding="utf-8")
    return str(p)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def galois_doc(tmp_path):
    _, O = galois_sheaf()
    return write(tmp_path, "galois.json", schemas.sheaf_to_doc(O))


def const_doc(tmp_path, G, p, name):
    O = constant_sheaf(G, scalar_algebra(GF(p)))
    return write(tmp_path, name, schemas.sheaf_to_doc(O))


def z2_groupoid():
    return group_groupoid("e", ["e", "g"], cyclic_mul(["e", "g"]))


def test_validate_sheaf(tmp_path, capsys):
    code, doc = run_cli(capsys, ["validate", galois_doc(tmp_path)])
    assert code == 0
    assert doc == {"kind": "sheaf", "valid": True, "units": 1, "arrows": 2,
                   "stalk_dims": {"x": 2}}


def test_validate_rejects_corrupt_file(tmp_path, capsys):
    p = write(tmp_path, "bad.json", "{oops")
    code, doc = run_cli(capsys, ["validate", p])
    assert code == 2
    assert doc["kind"] == "input_error"


@pytest.mark.parametrize("kind", [[], {}, ["sheaf"], 1])
def test_validate_rejects_a_kind_that_is_not_a_string(tmp_path, capsys, kind):
    doc = schemas.sheaf_to_doc(galois_sheaf()[1])
    doc["kind"] = kind
    code, out = run_cli(capsys, ["validate", write(tmp_path, "k.json", doc)])
    assert code == 2
    assert out["kind"] == "input_error"


def catalog_documents():
    """The catalog's fixtures as documents: sheaves, space actions, ring
    actions and partial group actions (with their field)."""
    docs = []
    for name in catalog_names():
        fix = get_fixture(name)
        built = fix.build()
        if fix.kind == "sheaf":
            docs.append(schemas.sheaf_to_doc(built[1]))
        elif fix.kind == "space_action":
            docs.append(schemas.space_action_to_doc(built))
        elif fix.kind == "ring_action":
            docs.append(schemas.ring_action_to_doc(built))
        else:
            act, field = built
            doc = schemas.partial_group_action_to_doc(act)
            doc["field"] = schemas.field_to_doc(field)
            docs.append(doc)
    return docs


JUNK = [None, True, -1, 10**6, "x", [], {}, 1.5]


def mutated(rng, doc):
    """doc with one key or list entry deleted, or its value replaced by
    junk, anywhere in the tree."""
    doc = copy.deepcopy(doc)
    places = []
    work = [doc]
    while work:
        node = work.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for k in keys:
            places.append((node, k))
            if isinstance(node[k], (dict, list)):
                work.append(node[k])
    node, k = rng.choice(places)
    if rng.random() < 0.25:
        del node[k]
    else:
        node[k] = rng.choice(JUNK)
    return doc


def test_validate_fuzzed_catalog_documents(tmp_path, capsys):
    # a malformed document exits 2 with a JSON error, never 1 and never
    # with a traceback; a mutation that keeps the document valid exits 0
    rng = random.Random("loader-fuzz")
    docs = catalog_documents()
    kinds = {doc["kind"] for doc in docs}
    assert kinds == {"sheaf", "space_action", "ring_action",
                     "partial_group_action"}
    codes = {0: 0, 2: 0}
    for case in range(400):
        doc = mutated(rng, rng.choice(docs))
        path = write(tmp_path, "fuzz.json", doc)
        code, out = run_cli(capsys, ["validate", path])
        assert code in codes, (case, doc, out)
        assert (out["kind"] == "input_error") == (code == 2), (case, out)
        codes[code] += 1
    assert codes[0] > 0 and codes[2] > 0


def test_algebra_out(tmp_path, capsys):
    path = const_doc(tmp_path, pair_groupoid(2), 2, "p2.json")
    out = str(tmp_path / "alg.json")
    code, doc = run_cli(capsys, ["algebra", path, "--out", out])
    assert code == 0
    assert doc == {"written": out, "dim": 4}
    A = schemas.algebra_from_doc(schemas.load_json(out))
    assert exactalg.validate_algebra(A) == []
    assert A.dim == 4


def test_check_simple_exit_codes(tmp_path, capsys):
    code, doc = run_cli(capsys, ["check", "simple", galois_doc(tmp_path)])
    assert code == 0
    assert doc["pass"] is True

    z2 = const_doc(tmp_path, z2_groupoid(), 2, "z2.json")
    code, doc = run_cli(capsys, ["check", "simple", z2])
    assert code == 1
    assert doc["pass"] is False
    assert doc["witnesses"]["proper_ideal_generator"]


def test_check_vnr_diagonal_witness(tmp_path, capsys):
    G = t1_groupoid(1)
    O = constant_sheaf(G, dual_numbers())
    p = write(tmp_path, "dual.json", schemas.sheaf_to_doc(O))
    code, doc = run_cli(capsys, ["check", "vnr-diagonal", p])
    assert code == 1
    assert doc["witnesses"]["non_regular_element"] == \
        {"unit": "u1", "element": [0, 1]}


def test_check_masa_is_a_theorem_check(tmp_path, capsys):
    # masa fails but so does int-ker: the criterion itself holds, exit 0
    z2 = const_doc(tmp_path, z2_groupoid(), 2, "z2.json")
    code, doc = run_cli(capsys, ["check", "masa", z2])
    assert code == 0
    assert doc["pass"] is True
    assert doc["lhs"] == {"diagonal is masa": False}


def test_check_structural_properties(tmp_path, capsys):
    p2 = write(tmp_path, "p2g.json", schemas.groupoid_to_doc(pair_groupoid(2)))
    t2 = write(tmp_path, "t2g.json", schemas.groupoid_to_doc(t1_groupoid(2)))
    assert run_cli(capsys, ["check", "minimal", p2])[0] == 0
    assert run_cli(capsys, ["check", "minimal", t2])[0] == 1
    assert run_cli(capsys, ["check", "effective", p2])[0] == 0

    code, doc = run_cli(capsys, ["check", "int-ker", galois_doc(tmp_path)])
    assert code == 0

    sw = write(tmp_path, "swap.json",
               schemas.space_action_to_doc(swap_action()))
    tz = write(tmp_path, "trivz2.json",
               schemas.space_action_to_doc(trivial_z2_action()))
    assert run_cli(capsys, ["check", "topfree", sw])[0] == 0
    assert run_cli(capsys, ["check", "topfree", tz])[0] == 1


def test_check_uniqueness_and_radical(tmp_path, capsys):
    z2 = const_doc(tmp_path, z2_groupoid(), 2, "z2.json")
    code, doc = run_cli(capsys, ["check", "uniqueness", z2])
    assert code == 0

    code, doc = run_cli(capsys, ["radical", z2])
    assert code == 0
    assert doc["radical_dim"] == 1

    code, doc = run_cli(capsys, ["check", "semiprimitive", z2])
    assert code == 0
    assert doc["status"] == "skip"       # masa hypothesis fails


def test_ideals_and_cap(tmp_path, capsys):
    p2 = const_doc(tmp_path, pair_groupoid(2), 2, "p2.json")
    code, doc = run_cli(capsys, ["ideals", p2])
    assert code == 0
    assert doc["count"] == 2

    p3 = const_doc(tmp_path, pair_groupoid(3), 2, "p3.json")
    code, doc = run_cli(capsys, ["ideals", p3])
    assert code == 0
    assert doc["count"] == 2

    # GF(7)[Z7] is local, so its one Peirce piece has 137 257 points
    labels = [f"z{i}" for i in range(7)]
    z7 = const_doc(tmp_path, group_groupoid("z0", labels, cyclic_mul(labels)),
                   7, "z7.json")
    code, doc = run_cli(capsys, ["ideals", z7])
    assert code == 3
    assert doc["kind"] == "cap_exceeded"
    assert doc["error"].endswith("Peirce points, algebra has 137257")


def test_ideals_and_radical_through_the_orbit_corner(tmp_path, capsys):
    # P4 with GF(5)[Z5] stalks: dim 80, whose Peirce spaces hold 12 496
    # points, over the ideal enumeration's budget; its orbit corner is
    # GF(5)[Z5] = GF(5)[t]/(t^5), a chain of 6 ideals with radical (t)
    labels = [f"z{i}" for i in range(5)]
    mul = cyclic_mul(labels)
    stalk = exactalg.group_algebra(GF(5), labels, lambda g, h: mul[g, h])
    O = constant_sheaf(pair_groupoid(4), stalk)
    path = write(tmp_path, "p4z5.json", schemas.sheaf_to_doc(O))
    code, doc = run_cli(capsys, ["ideals", path])
    assert code == 0
    assert doc["algebra_dim"] == 80 and doc["count"] == 6
    assert [I["dim"] for I in doc["ideals"]] == [0, 16, 32, 48, 64, 80]
    code, doc = run_cli(capsys, ["radical", path])
    assert code == 0
    assert doc["radical_dim"] == 64
    # one block, so the witness of `check simple` is the radical's first
    # basis vector, read off the corner's answers (the whole-algebra
    # radical took 20 s)
    first = doc["basis"][0]
    code, doc = run_cli(capsys, ["check", "simple", path])
    assert code == 1
    assert doc["lhs"] == {"simple": False}
    assert doc["witnesses"] == {"proper_ideal_generator": first}


def test_induce_command(tmp_path, capsys):
    gal = galois_doc(tmp_path)
    _, O = galois_sheaf()
    conv = build_conv_algebra(O.groupoid, O)
    B = isotropy_ring(conv, "x")
    mpath = write(tmp_path, "mod.json",
                  schemas.module_to_doc(exactalg.regular_module(B)))
    code, doc = run_cli(capsys, ["induce", gal, "--unit", "x",
                                 "--module", mpath])
    assert code == 0
    assert doc["isotropy_ring_dim"] == 4
    assert doc["induced_dim"] == 4
    assert doc["annihilator_dim"] == 0
    assert doc["simple"] is False        # the regular module splits

    code, doc = run_cli(capsys, ["induce", gal, "--unit", "zz",
                                 "--module", mpath])
    assert code == 2


def test_induce_decides_simplicity_on_the_base_stalk(tmp_path, capsys):
    # P3 over QQ: the induced module of B_x's 1-dim regular module is
    # decided without a point scan (it capped on the 3-dim induced module)
    O = constant_sheaf(pair_groupoid(3), scalar_algebra(QQ))
    p3q = write(tmp_path, "p3q.json", schemas.sheaf_to_doc(O))
    B = isotropy_ring(build_conv_algebra(O.groupoid, O), "u1")
    mpath = write(tmp_path, "mod.json",
                  schemas.module_to_doc(exactalg.regular_module(B)))
    code, doc = run_cli(capsys, ["induce", p3q, "--unit", "u1",
                                 "--module", mpath])
    assert code == 0
    assert doc["induced_dim"] == 3 and doc["annihilator_dim"] == 0
    assert doc["simple"] is True
    # a 2-dim base stalk over QQ is still undecided: exit 3
    two = exactalg.AlgebraModule(B, 2, [[[1, 0], [0, 1]]])
    mpath = write(tmp_path, "two.json", schemas.module_to_doc(two))
    code, doc = run_cli(capsys, ["induce", p3q, "--unit", "u1",
                                 "--module", mpath])
    assert code == 3
    assert doc["kind"] == "cap_exceeded"


SMALL_SHEAVES = ("T1-1-F2", "T1-2-F2", "T1-3-F3", "DUAL-T1-1", "Z2-F2",
                 "Z3-F3", "GAL", "P2-F2", "P2-F3", "P2-Q")


def test_induce_and_effros_hahn_on_fuzzed_documents(tmp_path, capsys):
    # `induce` on mutated module documents and `verify effros-hahn` on
    # mutated sheaf documents exit 0, 2 or 3, never with a traceback
    rng = random.Random("induce-fuzz")
    gal = galois_doc(tmp_path)
    G, O = galois_sheaf()
    B = isotropy_ring(build_conv_algebra(G, O), "x")
    modules = [schemas.module_to_doc(exactalg.regular_module(B)),
               schemas.module_to_doc(
                   exactalg.meataxe_simple_quotients(
                       exactalg.regular_module(B))[0])]
    codes = {0: 0, 2: 0, 3: 0}
    for case in range(200):
        path = write(tmp_path, "mod.json", mutated(rng, rng.choice(modules)))
        code, out = run_cli(capsys, ["induce", gal, "--unit", "x",
                                     "--module", path])
        assert code in codes, (case, out)
        codes[code] += 1
    assert codes[0] > 0 and codes[2] > 0
    sheaves = [schemas.sheaf_to_doc(get_fixture(name).build()[1])
               for name in SMALL_SHEAVES]
    codes = {0: 0, 2: 0, 3: 0}
    for case in range(200):
        path = write(tmp_path, "sheaf.json", mutated(rng, rng.choice(sheaves)))
        code, out = run_cli(capsys, ["verify", "effros-hahn", path])
        # exit 1 would be a report that the theorem fails: a finding
        assert code in codes, (case, out)
        codes[code] += 1
    assert codes[0] > 0 and codes[2] > 0


def test_verify_effros_hahn(tmp_path, capsys):
    code, doc = run_cli(capsys, ["verify", "effros-hahn",
                                 galois_doc(tmp_path)])
    assert code == 0
    assert doc["pass"] is True


def test_verify_siri_and_cap_skip(tmp_path, capsys):
    p2 = const_doc(tmp_path, pair_groupoid(2), 2, "p2.json")
    code, doc = run_cli(capsys, ["verify", "siri", p2])
    assert code == 0
    assert doc["pass"] is True

    # P3 has more arrows than the full bisection enumeration's cap; SIRI
    # runs over the wide semigroup of arrow singletons and G0, which has none
    p3 = const_doc(tmp_path, pair_groupoid(3), 2, "p3.json")
    code, doc = run_cli(capsys, ["verify", "siri", p3])
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["lhs"] == {"dim L": 12, "dim N": 3, "dim quotient": 9}


def test_verify_pierce(tmp_path, capsys):
    p = write(tmp_path, "ra.json",
              schemas.ring_action_to_doc(swap_ring_action()))
    code, doc = run_cli(capsys, ["verify", "pierce", p])
    assert code == 0
    assert doc["pass"] is True


def test_verify_space_action_checks(tmp_path, capsys):
    sw = write(tmp_path, "swap.json",
               schemas.space_action_to_doc(swap_action()))
    for what in ("cinza", "simpleaction"):
        code, doc = run_cli(capsys, ["verify", what, sw])
        assert code == 0
        assert doc["pass"] is True

    code, doc = run_cli(capsys, ["verify", "simpleaction", sw, "--p", "4"])
    assert code == 2
    code, doc = run_cli(capsys, ["verify", "simpleaction", sw, "--p", "17"])
    assert code == 3
    code, doc = run_cli(capsys, ["verify", "simpleaction", sw, "--p", "3"])
    assert code == 0


def test_non_homomorphic_space_action_is_an_input_error(tmp_path, capsys):
    # S = {e, z} with e z = z: theta_e o theta_z is the identity on {a},
    # but theta_z = theta_ez is the identity on {a, b}
    doc = {
        "kind": "space_action",
        "semigroup": {"kind": "inverse_semigroup", "elements": ["e", "z"],
                      "mul": [["e", "e", "e"], ["e", "z", "z"],
                              ["z", "e", "z"], ["z", "z", "z"]],
                      "star": [["e", "e"], ["z", "z"]]},
        "space": ["a", "b"],
        "domains": {"e": ["a"], "z": ["a", "b"]},
        "theta": {"e": [["a", "a"]], "z": [["a", "a"], ["b", "b"]]},
    }
    p = write(tmp_path, "nonhom.json", doc)
    code, out = run_cli(capsys, ["verify", "cinza", p])
    assert code == 2
    assert out["kind"] == "input_error"
    assert "theta[z] is defined at b" in out["error"]


def test_verify_partial_crossed(tmp_path, capsys):
    doc = schemas.partial_group_action_to_doc(partial_swap_action())
    p = write(tmp_path, "pswap_nofield.json", doc)
    code, out = run_cli(capsys, ["verify", "partial-crossed", p])
    assert code == 2                     # field is required

    doc["field"] = "Q"
    p = write(tmp_path, "pswap.json", doc)
    code, out = run_cli(capsys, ["verify", "partial-crossed", p])
    assert code == 0
    assert out["pass"] is True
    assert out["lhs"] == {"dim skew ring": 5}


def test_verify_disintegration(tmp_path, capsys):
    p2 = const_doc(tmp_path, pair_groupoid(2), 3, "p2q.json")
    code, doc = run_cli(capsys, ["verify", "disintegration", p2])
    assert code == 0
    assert doc["pass"] is True

    O = constant_sheaf(pair_groupoid(2), scalar_algebra(GF(3)))
    conv = build_conv_algebra(O.groupoid, O)
    mpath = write(tmp_path, "reg.json",
                  schemas.module_to_doc(exactalg.regular_module(conv.algebra)))
    code, doc = run_cli(capsys, ["verify", "disintegration", p2,
                                 "--module", mpath])
    assert code == 0


def test_non_object_module_action_exits_2(tmp_path, capsys):
    p2 = const_doc(tmp_path, pair_groupoid(2), 3, "p2q.json")
    mpath = write(tmp_path, "bad_module.json",
                  {"kind": "module", "dim": 1, "action": [[1]]})
    code, out = run_cli(capsys, ["verify", "disintegration", p2,
                                 "--module", mpath])
    assert code == 2
    assert out["kind"] == "input_error"


def test_fixtures_run_and_determinism(capsys):
    code = main(["fixtures", "run", "--filter", "GAL"])
    out1 = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out1)
    assert doc["totals"]["fail"] == 0
    assert "GAL" in doc["fixtures"]

    code = main(["fixtures", "run", "--filter", "GAL"])
    out2 = capsys.readouterr().out
    assert out1 == out2

    code = main(["fixtures", "run", "--filter", "no-such-fixture"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["kind"] == "input_error"


@pytest.mark.parametrize("mangle", [
    lambda g: g.update(units=[["x"]]),
    lambda g: g.update(units=7),
    lambda g: g["arrows"][0].update(id={"x": 1}),
    lambda g: g["arrows"][0].update(src=["x"]),
    lambda g: g.update(compose=[[["x"], "x", "x"]]),
    lambda g: g.update(inverse=[["x", None]]),
    lambda g: g.update(compose=5),
], ids=["unit-list", "units-int", "arrow-id-dict", "src-list",
        "compose-list", "inverse-null", "compose-int"])
def test_malformed_groupoid_ids_exit_2(tmp_path, capsys, mangle):
    doc = schemas.sheaf_to_doc(constant_sheaf(t1_groupoid(1),
                                              scalar_algebra(GF(2))))
    mangle(doc["groupoid"])
    p = write(tmp_path, "bad_ids.json", doc)
    code, out = run_cli(capsys, ["check", "simple", p])
    assert code == 2
    assert out["kind"] == "input_error"


@pytest.mark.parametrize("mangle", [
    lambda d: d["alpha"].update(zz=[[1]]),
    lambda d: d["stalks"].update(zz=dict(d["stalks"]["u1"])),
], ids=["alpha", "stalks"])
def test_unknown_sheaf_ids_exit_2(tmp_path, capsys, mangle):
    doc = schemas.sheaf_to_doc(constant_sheaf(pair_groupoid(2),
                                              scalar_algebra(GF(2))))
    mangle(doc)
    p = write(tmp_path, "unknown_id.json", doc)
    code, out = run_cli(capsys, ["check", "simple", p])
    assert code == 2
    assert out["kind"] == "input_error"
    assert "'zz'" in out["error"]


@pytest.mark.parametrize("mangle", [
    lambda s: s.update(u1=5),
    lambda s: s["u1"].update(mul=[["a", 0, [1]]]),
    lambda s: s["u1"].update(mul=7),
    lambda s: s["u1"].update(dim=True),
], ids=["stalk-int", "mul-index-str", "mul-int", "dim-bool"])
def test_malformed_stalks_exit_2(tmp_path, capsys, mangle):
    doc = schemas.sheaf_to_doc(constant_sheaf(pair_groupoid(2),
                                              scalar_algebra(GF(2))))
    mangle(doc["stalks"])
    p = write(tmp_path, "bad_stalk.json", doc)
    code, out = run_cli(capsys, ["check", "simple", p])
    assert code == 2
    assert out["kind"] == "input_error"
    assert "u1" in out["error"]


@pytest.mark.parametrize("section", ["alpha", "domains"])
def test_unknown_ring_action_ids_exit_2(tmp_path, capsys, section):
    doc = schemas.ring_action_to_doc(swap_ring_action())
    doc[section]["zz"] = doc[section]["g"]
    p = write(tmp_path, "unknown_id.json", doc)
    code, out = run_cli(capsys, ["verify", "pierce", p])
    assert code == 2
    assert out["kind"] == "input_error"
    assert "'zz'" in out["error"]


def _action_doc(kind):
    if kind == "space_action":
        return schemas.space_action_to_doc(swap_action())
    return schemas.partial_group_action_to_doc(partial_swap_action())


@pytest.mark.parametrize("kind", ["space_action", "partial_group_action"])
@pytest.mark.parametrize("mangle", [
    lambda d: d.update(domains=["a"]),
    lambda d: d.update(theta=5),
    lambda d: d["theta"].update(g=5),
    lambda d: d.update(space=5),
    lambda d: d["domains"].update(zz=["a"]),
    lambda d: d["theta"].update(zz=[]),
], ids=["domains-list", "theta-int", "theta-entry-int", "space-int",
        "domains-unknown-key", "theta-unknown-key"])
def test_malformed_actions_exit_2(tmp_path, capsys, kind, mangle):
    doc = _action_doc(kind)
    mangle(doc)
    p = write(tmp_path, "bad_action.json", doc)
    code, out = run_cli(capsys, ["validate", p])
    assert code == 2
    assert out["kind"] == "input_error"


def test_partial_group_action_list_unit_exits_2(tmp_path, capsys):
    doc = _action_doc("partial_group_action")
    doc["group"]["unit"] = ["1"]
    p = write(tmp_path, "bad_unit.json", doc)
    code, out = run_cli(capsys, ["validate", p])
    assert code == 2
    assert out["kind"] == "input_error"


@pytest.mark.parametrize("mangle", [
    lambda d: d.update(labels=5),
    lambda d: d["table"].__setitem__(0, 5),
    lambda d: d.update(labels=[["1"], ["u"]]),
], ids=["labels-int", "table-row-int", "labels-list"])
def test_malformed_algebras_exit_2(tmp_path, capsys, mangle):
    doc = schemas.algebra_to_doc(dual_numbers())
    mangle(doc)
    p = write(tmp_path, "bad_algebra.json", doc)
    code, out = run_cli(capsys, ["validate", p])
    assert code == 2
    assert out["kind"] == "input_error"


@pytest.mark.parametrize("mangle", [
    lambda d: d.update(mul=5),
    lambda d: d.update(star=5),
    lambda d: d.update(elements=[["1"], ["g"]]),
], ids=["mul-int", "star-int", "elements-list"])
def test_malformed_inverse_semigroups_exit_2(tmp_path, capsys, mangle):
    doc = schemas.inverse_semigroup_to_doc(z2_isg())
    mangle(doc)
    p = write(tmp_path, "bad_semigroup.json", doc)
    code, out = run_cli(capsys, ["validate", p])
    assert code == 2
    assert out["kind"] == "input_error"


def test_non_list_ring_action_domain_exits_2(tmp_path, capsys):
    doc = schemas.ring_action_to_doc(swap_ring_action())
    doc["domains"]["g"] = 5
    p = write(tmp_path, "bad_domain.json", doc)
    code, out = run_cli(capsys, ["verify", "pierce", p])
    assert code == 2
    assert out["kind"] == "input_error"


def test_partial_ring_action_is_an_input_error(tmp_path, capsys):
    # Z2 on GF(2) x GF(2) with D_g the first factor and alpha_g the
    # identity: alpha_g o alpha_g is defined on D_g only, not on all of
    # D_1 = D_{gg}, so this is a partial action, not a homomorphism
    doc = {
        "kind": "ring_action",
        "semigroup": schemas.inverse_semigroup_to_doc(z2_isg()),
        "algebra": schemas.algebra_to_doc(_diag_f2_squared()),
        "domains": {"1": [[1, 0], [0, 1]], "g": [[1, 0]]},
        "alpha": {"1": [[1, 0], [0, 1]], "g": [[1, 0], [0, 1]]},
    }
    p = write(tmp_path, "partial_ring.json", doc)
    for argv in (["validate", p], ["verify", "pierce", p]):
        code, out = run_cli(capsys, argv)
        assert code == 2, argv
        assert out["kind"] == "input_error"
        assert "alpha[g] o alpha[g] is not defined exactly on D_1" \
            in out["error"]


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    _, O = galois_sheaf()
    p = write(tmp_path, "galois.json", schemas.sheaf_to_doc(O))
    proc = subprocess.run(
        [sys.executable, "-m", "gsheaf.cli", "check", "simple", p],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True
