"""Memoized invariants: each algebra computes each answer once, and the
remembered answer is the one a fresh copy of the algebra computes."""

import gc
import json
import weakref

import pytest

from gsheaf import cli, convalg, exactalg, fixtures, isgring, schemas
from gsheaf import sheaf as sheafmod
from gsheaf.convalg import ConvAlgebra, centralizer_of_diagonal
from gsheaf.errors import AlgebraError, CapExceeded
from gsheaf.exactalg import (FDAlgebra, Subspace, central_primitive_idempotents,
                             enumerate_two_sided_ideals, find_unit, is_simple,
                             jacobson_radical, subalgebra_on)
from gsheaf.fields import GF, QQ
from gsheaf.fixtures import (CATALOG, dual_numbers, pair_groupoid, run_catalog,
                             scalar_algebra, swap_ring_action)


def fresh(A):
    return FDAlgebra(A.field, A.labels, A.table, A.unit)


def answer(fn, *args):
    """The value, or the type and text of the error, of fn(*args)."""
    try:
        return fn(*args)
    except (AlgebraError, CapExceeded) as exc:
        return type(exc), str(exc)


def memoized_answers(A):
    return [answer(is_simple, A), answer(jacobson_radical, A, 0),
            answer(enumerate_two_sided_ideals, A),
            answer(central_primitive_idempotents, A)]


@pytest.fixture(scope="module")
def catalog_objects():
    """The convolution algebras, ring actions and skew rings that
    run_catalog(seed=0) builds, with the memos the catalog left on them."""
    convs, ring_algebras = [], []

    def recording(real, store, pick):
        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            store.append(pick(out))
            return out
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        conv_rec = recording(convalg.build_conv_algebra, convs, lambda c: c)
        for mod in (convalg, fixtures, isgring):
            mp.setattr(mod, "build_conv_algebra", conv_rec)
        mp.setattr(isgring, "skew_isg_ring", recording(
            isgring.skew_isg_ring, ring_algebras,
            lambda R: (R.action.algebra, R.quotient)))
        run_catalog(seed=0)
    algebras = {}
    for conv in convs:
        for A in [conv.algebra, *conv.sheaf.stalk.values()]:
            algebras[id(A)] = A
    for pair in ring_algebras:
        for A in pair:
            algebras[id(A)] = A
    finite = [A for A in algebras.values() if A.field.is_finite]
    # build_conv_algebra hands a caller the algebra it already built, so
    # one algebra may be recorded more than once
    convs = list({id(c): c for c in convs}.values())
    return [c for c in convs if c.field.is_finite], finite


def test_memoized_answers_match_a_fresh_copy(catalog_objects):
    convs, algebras = catalog_objects
    assert len(convs) >= 20 and len(algebras) >= 60
    # the catalog asked questions of at least the convolution algebras of
    # its 15 finite-field sheaf fixtures, so those answers come from the memo
    assert sum("_memo" in vars(A) for A in algebras) >= 15
    for A in algebras:
        assert memoized_answers(A) == memoized_answers(fresh(A)), A.labels


def test_memoized_diagonal_centralizer_matches_a_fresh_copy(catalog_objects):
    convs, _ = catalog_objects
    # the sheaf battery asks for it on its 15 finite-field fixtures
    assert sum("diagonal centralizer" in vars(conv).get("_memo", (None, {}))[1]
               for conv in convs) == 15
    for conv in convs:
        copy = ConvAlgebra(conv.groupoid, conv.sheaf, fresh(conv.algebra))
        assert centralizer_of_diagonal(conv) == centralizer_of_diagonal(copy)


def test_a_capped_enumeration_raises_again_like_a_fresh_copy():
    # GF(7)[Z7]: one idempotent, so one Peirce piece of 137 257 points
    A = exactalg.group_algebra(GF(7), range(7), lambda g, h: (g + h) % 7)
    with pytest.raises(CapExceeded) as caught:
        enumerate_two_sided_ideals(A)
    text = str(caught.value)
    assert text.startswith("ideal enumeration capped at ")
    assert text.endswith("Peirce points, algebra has 137257")
    assert answer(enumerate_two_sided_ideals, A) == (CapExceeded, text)
    assert answer(enumerate_two_sided_ideals, fresh(A)) == (CapExceeded, text)


def test_returned_answers_are_copies():
    A = exactalg.group_algebra(GF(2), [0, 1, 2],
                               lambda g, h: (g + h) % 3)
    ideals = enumerate_two_sided_ideals(A)
    first = list(ideals)
    ideals.clear()
    assert enumerate_two_sided_ideals(A) == first
    idems = central_primitive_idempotents(A)
    first = [list(e) for e in idems]
    idems[0][0] = 1 - idems[0][0]
    idems.append([0, 0, 0])
    assert central_primitive_idempotents(A) == first
    assert len(first) == 2  # GF(2)[Z3] = GF(2) x GF(4)


def test_the_radical_is_remembered_whatever_the_seed(monkeypatch):
    searched = []
    real = exactalg._radical_search
    monkeypatch.setattr(exactalg, "_radical_search",
                        lambda A: searched.append(A.dim) or real(A))
    A = dual_numbers()
    J = jacobson_radical(A, 0)
    assert jacobson_radical(A, 0) == J == jacobson_radical(A, 1)
    # one search on A and one, uncertified, on the fresh quotient A/J; the
    # seed changes no answer, so a second seed computes nothing
    assert searched == [2, 1]


def test_each_centre_is_computed_once(monkeypatch):
    # the simplicity certificate, the central idempotents and the diagonal
    # centralizer of a groupoid of units (whose diagonal is the whole
    # algebra) share it, so every centralizer call on a full subspace is
    # on a different algebra
    centres = []
    real = exactalg.centralizer

    def counting(A, S):
        if S.is_full():
            centres.append(A)
        return real(A, S)

    monkeypatch.setattr(exactalg, "centralizer", counting)
    run_catalog(seed=0)
    assert len(centres) == 21
    assert len({id(A) for A in centres}) == len(centres)
    D = dual_numbers()
    assert is_simple(D) is False and central_primitive_idempotents(D) == [[1, 0]]
    assert centres[21:] == [D]


def test_the_field_test_runs_once_and_its_cap_raises_every_time(monkeypatch):
    runs = []
    real = exactalg._is_field
    monkeypatch.setattr(exactalg, "_is_field",
                        lambda A: runs.append(A) or real(A))
    # GF(2)[Z3] = GF(2) x GF(4) is not a field; QQ[Z2] is not decided
    A = exactalg.group_algebra(GF(2), [0, 1, 2], lambda g, h: (g + h) % 3)
    assert exactalg.is_field(A) is False and exactalg.is_field(A) is False
    B = exactalg.group_algebra(QQ, [0, 1], lambda g, h: (g + h) % 2)
    for _ in range(2):
        with pytest.raises(CapExceeded, match="only decided in dim 1"):
            exactalg.is_field(B)
    assert runs == [A, B, B]


def test_no_answer_outlives_a_change_of_unit(monkeypatch):
    runs = []
    real = exactalg._two_sided_ideals
    monkeypatch.setattr(exactalg, "_two_sided_ideals",
                        lambda A: runs.append(A.unit) or real(A))
    D = dual_numbers()
    A = FDAlgebra(D.field, D.labels, D.table)  # the unit not yet found
    scanned = enumerate_two_sided_ideals(A)
    with pytest.raises(AlgebraError):
        is_simple(A)
    A.unit = tuple(find_unit(A))  # as subalgebra_on and SkewRing do
    assert enumerate_two_sided_ideals(A) == scanned
    assert not is_simple(A)
    assert runs == [None, (1, 0)]
    # subalgebra_on assigns the unit it finds, and the skew ring assigns
    # the units of L and of its quotient; each answers like a fresh copy
    B = subalgebra_on(D, Subspace.full(D.field, 2))
    skew = isgring.skew_isg_ring(swap_ring_action())
    for C in (B, skew.L, skew.quotient):
        assert C.unit is not None
        assert memoized_answers(C) == memoized_answers(fresh(C))


def test_the_catalog_answers_the_same_twice_in_one_process():
    def report_json(run):
        return {name: [rep.to_json() for rep in reps]
                for name, reps in run.items()}

    first = report_json(run_catalog(seed=0))
    assert report_json(run_catalog(seed=0)) == first
    assert len(first) == len(CATALOG)


def p3_document(tmp_path, field):
    O = sheafmod.constant_sheaf(pair_groupoid(3), scalar_algebra(field))
    path = tmp_path / "p3.json"
    path.write_text(schemas.dump_json(schemas.sheaf_to_doc(O)), encoding="utf-8")
    return str(path)


def counting(monkeypatch, module, name, calls):
    """Record (name, first argument) for each call of module.name."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((name, args[0]))
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def test_a_loaded_sheaf_is_validated_and_built_once(monkeypatch, tmp_path):
    calls = []
    counting(monkeypatch, sheafmod, "validate_sheaf", calls)
    counting(monkeypatch, convalg, "_build", calls)
    counting(monkeypatch, exactalg, "validate_algebra", calls)
    path = p3_document(tmp_path, GF(2))
    _, O = schemas.load_document(path)
    G = O.groupoid
    conv = convalg.build_conv_algebra(G, O)
    assert isgring.verify_siri(G, O).passed
    assert isgring.siri_data(G, O).conv is conv
    assert convalg.check_simplelife(G, O).passed
    assert [c for c in calls if c[0] == "validate_sheaf"] == [("validate_sheaf", O)]
    assert [c for c in calls if c[0] == "_build"] == [("_build", O)]
    assert sum(A is conv.algebra for name, A in calls) == 1
    # the memo is per object: an equal sheaf loaded again is built again
    _, again = schemas.load_document(path)
    other = convalg.build_conv_algebra(again.groupoid, again)
    assert other is not conv and other.algebra.table == conv.algebra.table
    assert [O for name, O in calls if name == "_build"] == [O, again]
    # an unvalidated build is always a fresh copy
    assert convalg.build_conv_algebra(G, O, validate=False) is not conv


def test_a_kept_algebra_makes_no_reference_cycle():
    # the sheaf holds its algebra weakly, so reference counting alone
    # frees both, and an algebra no caller holds is built again
    gc.disable()
    try:
        O = sheafmod.constant_sheaf(pair_groupoid(2), scalar_algebra(GF(2)))
        conv = convalg.build_conv_algebra(O.groupoid, O)
        assert convalg.build_conv_algebra(O.groupoid, O) is conv
        gone = weakref.ref(conv)
        del conv
        assert gone() is None
        assert convalg.build_conv_algebra(O.groupoid, O).sheaf is O
        gone = weakref.ref(O)
        del O
        assert gone() is None
    finally:
        gc.enable()


def test_the_cli_validates_and_builds_a_sheaf_once(monkeypatch, tmp_path, capsys):
    calls = []
    counting(monkeypatch, sheafmod, "validate_sheaf", calls)
    counting(monkeypatch, convalg, "_build", calls)
    assert cli.main(["verify", "siri", p3_document(tmp_path, QQ)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert [name for name, _ in calls] == ["validate_sheaf", "_build"]
