"""Acceptance suite: sixteen structural criteria, each a single test.

Every criterion is checked at exact equality over exact arithmetic; a
criterion that cannot run on an instance because of a declared cap is
skipped for that instance only, never weakened.  Run with -v to get one
pass or fail line per criterion.
"""

import hashlib
import json
import subprocess
import sys
from functools import lru_cache

from gsheaf import exactalg, linalg
from gsheaf.convalg import (build_conv_algebra, centralizer_of_diagonal,
                            check_bisection_convolution,
                            check_convolution_table, check_masa_criterion,
                            check_uniqueness_theorem, is_diagonal_masa)
from gsheaf.errors import CapExceeded
from gsheaf.fields import GF, QQ
from gsheaf.fixtures import (catalog_names, get_fixture, frobenius_matrix,
                             global_swap_action, identity_only_action,
                             natural_i2_action, pair_groupoid, scalar_algebra,
                             swap_action, trivial_z2_action)
from gsheaf.groupoid import is_effective, is_minimal
from gsheaf.induction import (InductionMap, annihilator_induced,
                              check_disintegration, induce, isotropy_ring,
                              verify_effros_hahn)
from gsheaf.isgring import (check_cinza, check_orbit_correspondence,
                            check_simpleaction, dual_ring_action,
                            pierce_data, pierce_verification, siri_data,
                            skew_isg_ring, transformation_groupoid,
                            verify_partial_crossed, verify_siri)
from gsheaf.sheaf import (constant_sheaf, diagonal_vnr, int_ker_is_units,
                          is_sheaf_of_fields, stalks_commutative)
from oracles import is_simple_module

SMALL_DIM = 8          # size bound for the ideal-lattice and meataxe criteria
ORDER_CAP = 2 ** 12    # brute-force element scans
# sha256 of `gsheaf --seed 0 fixtures run` on standard output
CATALOG_SHA256 = "8bb62c983d02b4ffb19b9ec31e825f21dc560da8a7904b820fd7e55d057ee814"


def sheaf_fixture_names():
    return [n for n in catalog_names() if get_fixture(n).kind == "sheaf"]


@lru_cache(maxsize=None)
def built(name):
    fix = get_fixture(name)
    G, O = fix.build()
    return G, O, build_conv_algebra(G, O)


def small_finite(name):
    G, O, conv = built(name)
    return O.field.is_finite and conv.dim <= SMALL_DIM


def fields_stalks(O):
    try:
        return is_sheaf_of_fields(O)
    except CapExceeded:
        return None


def all_transversals(conv, x, B):
    """The induction map into B along every transversal out of x, as a
    list (product of arrow choices)."""
    import itertools
    G = conv.groupoid
    from gsheaf.groupoid import orbit_of
    orbit = orbit_of(G, x)
    choices = []
    for y in orbit:
        if y == x:
            choices.append([G.unit_arrow(x)])
        else:
            choices.append(sorted(G.arrows_between(x, y),
                                  key=G.arrow_index.get))
    out = []
    for combo in itertools.product(*choices):
        out.append(InductionMap(conv, x, B, dict(zip(orbit, combo))))
    return out


def test_01_convolution_identities():
    """Structure constants re-derived from the defining sum; indicator
    functions of bisections multiply along the bisection product."""
    ran = 0
    for name in sheaf_fixture_names():
        G, O, conv = built(name)
        rep = check_convolution_table(conv)
        assert rep.passed is True, (name, rep.to_json())
        rep = check_bisection_convolution(conv)
        assert rep.passed is not False, (name, rep.to_json())
        if rep.passed is True:
            ran += 1
    assert ran >= 10


def test_02_matrix_units_of_pair_groupoids():
    """Constant scalar coefficients on a pair groupoid produce the full
    matrix-unit relations; the two-point instance has exactly 2 ideals."""
    import itertools
    for n in (2, 3):
        for p in (2, 3):
            G = pair_groupoid(n)
            conv = build_conv_algebra(G, constant_sheaf(G, scalar_algebra(GF(p))))
            arrow = {(G.dst[a], G.src[a]): a for a in G.arrows}
            zero = [conv.field.zero] * conv.dim
            for i, j, k, l in itertools.product(G.units, repeat=4):
                prod = conv.algebra.mul(conv.chi([arrow[i, j]]),
                                        conv.chi([arrow[k, l]]))
                want = conv.chi([arrow[i, l]]) if j == k else zero
                assert prod == want, (n, p, i, j, k, l)
            if n == 2:
                ideals = exactalg.enumerate_two_sided_ideals(conv.algebra)
                assert len(ideals) == 2, (p, len(ideals))


def test_03_effros_hahn_ideals_are_induced():
    """Every two-sided ideal is the intersection of annihilators of
    modules induced from isotropy, on every small finite-field instance."""
    ran = 0
    for name in sheaf_fixture_names():
        if not small_finite(name):
            continue
        G, O, conv = built(name)
        rep = verify_effros_hahn(conv)
        assert rep.passed is True, (name, rep.to_json())
        assert "ideal_dims_mismatched" not in rep.witnesses, name
        ran += 1
    assert ran >= 10


def test_04_induced_simples_and_transversal_independence():
    """Inducing a simple isotropy module yields a simple module, and the
    result is independent of the transversal, exercised on an instance
    with two genuinely different transversals."""
    multi = 0
    for name in sheaf_fixture_names():
        if not small_finite(name):
            continue
        G, O, conv = built(name)
        for x in G.units:
            B = isotropy_ring(conv, x)
            try:
                simples = exactalg.meataxe_simple_quotients(
                    exactalg.regular_module(B))
            except CapExceeded:
                continue
            ts = all_transversals(conv, x, B)
            if len(ts) > 1:
                multi += 1
            for S in simples:
                inds = [induce(T, S) for T in ts]
                anns = [annihilator_induced(T, S, ind)
                        for T, ind in zip(ts, inds)]
                for ind in inds:
                    assert is_simple_module(ind), (name, x, S.dim)
                for ann in anns[1:]:
                    assert ann == anns[0], (name, x)
                for ind in inds[1:]:
                    assert exactalg.simple_modules_isomorphic(ind, inds[0]), \
                        (name, x)
    assert multi >= 2      # both units of the two-transversal instance


def test_05_maximal_ideals_are_induced_annihilators():
    """Every maximal two-sided ideal arises as the annihilator of a
    module induced from a simple isotropy module."""
    ran = 0
    for name in sheaf_fixture_names():
        if not small_finite(name):
            continue
        G, O, conv = built(name)
        A = conv.algebra
        ideals = exactalg.enumerate_two_sided_ideals(A)
        proper = [I for I in ideals if not I.is_full()]
        maximal = [I for I in proper
                   if not any(I != J and I.leq(J) for J in proper)]
        inventory = set()
        skipped_units = False
        for x in G.units:
            B = isotropy_ring(conv, x)
            try:
                simples = exactalg.meataxe_simple_quotients(
                    exactalg.regular_module(B))
            except CapExceeded:
                skipped_units = True
                continue
            phi = InductionMap.canonical(conv, x, B)
            for S in simples:
                inventory.add(annihilator_induced(phi, S, induce(phi, S)).basis)
        if skipped_units:
            continue
        for I in maximal:
            assert I.basis in inventory, (name, I.dim)
        ran += 1
    assert ran >= 10


def test_06_simplicity_dictionary():
    """For sheaves of fields: simple iff minimal with trivial kernel
    interior; includes a simple-but-not-effective witness and a
    minimal-but-not-simple witness."""
    ran = 0
    for name in sheaf_fixture_names():
        G, O, conv = built(name)
        if fields_stalks(O) is not True:
            continue
        try:
            simple = exactalg.is_simple(conv.algebra)
        except CapExceeded:
            continue
        assert simple == (is_minimal(G) and int_ker_is_units(O)), name
        ran += 1
    assert ran >= 8

    G, O, conv = built("GAL")
    assert not is_effective(G)
    assert int_ker_is_units(O)
    assert exactalg.is_simple(conv.algebra)

    G, O, conv = built("Z2-F2")
    assert is_minimal(G)
    assert not int_ker_is_units(O)
    assert not exactalg.is_simple(conv.algebra)


def test_07_masa_criterion_and_centralizer_support():
    """Diagonal is maximal commutative iff the kernel interior is the
    unit space (field stalks); for commutative stalks the centralizer of
    the diagonal lives on the isotropy bundle."""
    masa_ran = 0
    for name in sheaf_fixture_names():
        G, O, conv = built(name)
        if stalks_commutative(O):
            C = centralizer_of_diagonal(conv)
            iso = set(G.iso_bundle())
            for v in C.basis:
                assert set(conv.support(list(v))) <= iso, name
        if fields_stalks(O) is True:
            rep = check_masa_criterion(conv)
            assert rep.passed is True, (name, rep.to_json())
            assert is_diagonal_masa(conv) == int_ker_is_units(O), name
            masa_ran += 1
    assert masa_ran >= 8


def test_08_regular_diagonal_dictionary():
    """The diagonal is von Neumann regular iff every stalk is a field,
    with an explicit non-regular witness on the dual-numbers instance."""
    ran = 0
    for name in sheaf_fixture_names():
        G, O, conv = built(name)
        if not O.field.is_finite:
            continue
        flag, wit = diagonal_vnr(O)
        assert flag == is_sheaf_of_fields(O), name
        if not flag:
            u = wit["unit"]
            elem = [O.field.coerce(c) for c in wit["element"]]
            A = O.stalk[u]
            for a in A.elements():
                assert A.mul(A.mul(elem, list(a)), elem) != elem, name
        ran += 1
    assert ran >= 10
    flag, wit = diagonal_vnr(built("DUAL-T1-1")[1])
    assert not flag and wit["element"] == [0, 1]


def test_09_semiprimitivity_and_radical_oracle():
    """Field stalks with a masa diagonal force a zero radical; on every
    element-enumerable instance the certified radical equals the
    brute-force quasi-invertibility scan."""
    zero_ran = oracle_ran = 0
    for name in sheaf_fixture_names():
        G, O, conv = built(name)
        if fields_stalks(O) is True:
            try:
                masa = is_diagonal_masa(conv)
            except CapExceeded:
                masa = None
            if masa:
                try:
                    J = exactalg.jacobson_radical(conv.algebra)
                except CapExceeded:
                    J = None
                if J is not None:
                    assert J.is_zero(), name
                    zero_ran += 1
        if O.field.is_finite and O.field.order ** conv.dim <= ORDER_CAP:
            J = exactalg.jacobson_radical(conv.algebra)
            assert J == exactalg.radical_bruteforce(conv.algebra), name
            oracle_ran += 1
    assert zero_ran >= 6
    assert oracle_ran >= 10


def test_10_uniqueness_theorem():
    """Every nonzero two-sided ideal meets the centralizer of the
    diagonal."""
    ran = 0
    for name in sheaf_fixture_names():
        G, O, conv = built(name)
        rep = check_uniqueness_theorem(conv)
        assert rep.passed is not False, (name, rep.to_json())
        if rep.passed is True:
            ran += 1
    assert ran >= 10


def test_11_skew_ring_realization():
    """The convolution algebra is the quotient of the skew ring over the
    wide semigroup of arrow singletons and the unit space by the relation
    ideal, with the expected block dimensions."""
    expected = {
        "T1-2-F2": (4, 2, 2),
        "Z2-F2": (2, 0, 2),
        "P2-F2": (6, 2, 4),
    }
    for name, dims in expected.items():
        G, O, conv = built(name)
        data = siri_data(G, O)
        got = (data.skew.L.dim, data.skew.N.dim, data.skew.quotient.dim)
        assert got == dims, (name, got)
        rep = verify_siri(G, O)
        assert rep.passed is True, (name, rep.to_json())
    for name in sheaf_fixture_names():
        G, O, conv = built(name)
        rep = verify_siri(G, O)
        assert rep.passed is not False, (name, rep.to_json())


def test_12_pierce_realization():
    """Skew rings of spectral actions are convolution algebras over the
    germ groupoid of the Pierce-atom action; the Galois instance
    reproduces the order-2 field-automorphism sheaf."""
    for name in ("RA-SWAP", "RA-TRIV", "RA-GAL"):
        fix = get_fixture(name)
        act = fix.build()
        rep = pierce_verification(act)
        assert rep.passed is True, (name, rep.to_json())
    act = get_fixture("RA-GAL").build()
    data = pierce_data(act)
    G = data.germ.groupoid
    assert len(data.atoms) == 1
    assert len(G.arrows) == 2
    iso_arrow = [a for a in G.arrows if a not in G.units][0]
    assert data.sheaf.stalk[G.units[0]].dim == 2
    assert data.sheaf.alpha[iso_arrow] == frobenius_matrix()
    assert data.conv.dim == 4
    assert exactalg.is_simple(data.conv.algebra)


def test_13_action_dictionaries():
    """Topological freeness matches germ effectiveness, minimality of a
    free action matches simplicity, and orbits correspond."""
    rep = check_cinza(swap_action())
    assert rep.passed is True and rep.lhs == {"topologically free": True}
    rep = check_cinza(trivial_z2_action())
    assert rep.passed is True and rep.lhs == {"topologically free": False}

    rep = check_simpleaction(swap_action())
    assert rep.passed is True and rep.lhs == {"action minimal": True}
    rep = check_simpleaction(identity_only_action())
    assert rep.passed is True and rep.lhs == {"action minimal": False}

    for act in (swap_action(), trivial_z2_action(), identity_only_action(),
                natural_i2_action()):
        rep = check_orbit_correspondence(act)
        assert rep.passed is True, rep.to_json()


def test_14_partial_crossed_products():
    """Partial skew group rings coincide with transformation-groupoid
    convolution algebras over the rationals; the global two-point swap
    gives the 2x2 rational matrix ring."""
    pswap = get_fixture("PSWAP").build()[0]
    rep = verify_partial_crossed(pswap, QQ)
    assert rep.passed is True, rep.to_json()
    assert rep.lhs == {"dim skew ring": 5}
    assert rep.rhs["dim conv"] == 5

    gswap = global_swap_action()
    rep = verify_partial_crossed(gswap, QQ)
    assert rep.passed is True, rep.to_json()
    G = transformation_groupoid(gswap)
    conv = build_conv_algebra(G, constant_sheaf(G, scalar_algebra(QQ)))
    skew = skew_isg_ring(dual_ring_action(gswap, QQ))
    assert skew.N.is_zero()
    assert skew.quotient.dim == conv.dim == 4
    M = exactalg.matrix_algebra(QQ, 2)
    arrow = {(G.dst[a], G.src[a]): a for a in G.arrows}
    units = list(G.units)
    cols = [conv.chi([arrow[units[i], units[j]]])
            for i in (0, 1) for j in (0, 1)]
    assert exactalg.check_ring_iso(M, conv.algebra, linalg.transpose(cols))


def test_15_disintegration_of_modules():
    """Every module splits into unit stalks carrying a functorial family
    of invertible arrow maps that rebuild the original action; checked on
    regular modules everywhere and on meataxe simples over finite
    fields."""
    ran = simple_ran = 0
    for name in sheaf_fixture_names():
        G, O, conv = built(name)
        rep = check_disintegration(conv, exactalg.regular_module(conv.algebra))
        assert rep.passed is True, (name, rep.to_json())
        ran += 1
        if not (O.field.is_finite and conv.dim <= SMALL_DIM):
            continue
        try:
            simples = exactalg.meataxe_simple_quotients(
                exactalg.regular_module(conv.algebra))
        except CapExceeded:
            continue
        for S in simples:
            rep = check_disintegration(conv, S)
            assert rep.passed is True, (name, S.dim, rep.to_json())
            simple_ran += 1
    assert ran >= 14
    assert simple_ran >= 10


def test_16_catalog_determinism():
    """Two full catalog runs with the same seed print byte-identical
    reports and report zero failures."""
    cmd = [sys.executable, "-m", "gsheaf.cli", "--seed", "0",
           "fixtures", "run"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0, first.stdout.decode()[-2000:]
    assert second.returncode == 0
    assert first.stdout == second.stdout
    # the catalog's output is pinned byte for byte; a change to the
    # fixtures or the report format must update this digest on purpose
    assert hashlib.sha256(first.stdout).hexdigest() == CATALOG_SHA256
    doc = json.loads(first.stdout)
    assert doc["totals"]["fail"] == 0
    assert len(doc["fixtures"]) >= 14
