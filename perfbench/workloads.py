"""The three benchmark workloads: catalog, lattice and rational.

Each workload builds its inputs from a seed in ``setup``, then runs
passes over its items.  A pass returns the timed segments (one per item,
plus pass-level work such as the catalog's JSON dump) and the raw
answers; ``summarize`` turns the answers into counts outside the timed
region, and ``check`` is the correctness gate, also untimed.

The lattice and rational generators walk a fixed menu of slots.  The
seed picks a variant in the slots that hold several (small instances
whose cost hardly counts), names every unit and arrow with a seeded tag,
and shuffles the item order.  That changes the input bytes but not the
work, so every seed stays in the same cost class.  The seed does not
reorder arrows: the basis order alone moved the cost of one lattice
instance (P2+Z3 over GF(3)) between 1.3 and 2.1 s.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import random
import shutil
import time

from tracer import algebra_key

CATALOG_REPORTS = 397
CATALOG_PASSES_AT_LEAST = 355
# radical_bruteforce is O(order^2); the gate compares against it only up
# to this algebra order
ORACLE_ORDER_CAP = 2**10
# the gate checks the ideal list against every subspace up to this count
ORACLE_SUBSPACE_CAP = 4000
SKIP_REASONS = ("finite_field", "ideal_dim", "arrow_cap", "point_budget",
                "order_cap", "hypothesis", "other")


class Pass:
    """One timed pass: segment durations in seconds and raw answers."""

    def __init__(self):
        self.items: list[float] = []   # one per item
        self.extra = 0.0               # pass-level work outside items
        self.answers: list = []

    @property
    def seconds(self) -> float:
        return sum(self.items) + self.extra


class Summary:
    """What the gate and the metrics need from one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0       # failed reports, exceptions, oracle mismatches
        self.decided = 0
        self.passed = 0
        self.skips = collections.Counter()
        self.digest = ""      # of the answers, to compare passes and modes
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(what)


def skip_reason(caps_hit) -> str:
    """Which cap (or failed hypothesis) made a report skip."""
    if not caps_hit:
        return "hypothesis"
    text = str(caps_hit[0])
    if "finite base field" in text or "rationals" in text:
        return "finite_field"
    if "ideal enumeration capped" in text:
        return "ideal_dim"
    if "arrow" in text:
        return "arrow_cap"
    if "point" in text or "budget" in text:
        return "point_budget"
    if "order" in text:
        return "order_cap"
    return "other"


def _count_reports(summary: Summary, reports) -> None:
    """Tally Report objects: decided, failed and skip reasons."""
    for rep in reports:
        summary.attempted += 1
        status = rep.status
        if status == "skip":
            summary.skips[skip_reason(rep.caps_hit)] += 1
        else:
            summary.decided += 1
            if status == "pass":
                summary.passed += 1
            else:
                summary.fail(f"report {rep.check} failed")


def subspace_count(q: int, n: int) -> int:
    """Number of subspaces of F_q^n: the sum of Gaussian binomials."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# groupoid builders on top of gsheaf.fixtures


def _cyclic(gs, n: int, prefix: str):
    labels = [f"{prefix}{i}" for i in range(n)]
    return gs.fixtures.group_groupoid(labels[0], labels,
                                      gs.fixtures.cyclic_mul(labels))


def _point(gs, label: str):
    return gs.groupoid.FiniteGroupoid([label], [label], {label: label},
                                      {label: label}, {(label, label): label},
                                      {label: label})


def _union(gs, *parts):
    G = parts[0]
    for H in parts[1:]:
        G = gs.fixtures.disjoint_union(G, H)
    return G


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))


def _dual_numbers(gs, field):
    """field[u] with u^2 = 0."""
    one, zero = field.one, field.zero
    table = [[[one, zero], [zero, one]], [[zero, one], [zero, zero]]]
    return gs.exactalg.FDAlgebra(field, ["1", "u"], table, [one, zero])


def _groupoid(gs, spec: str):
    """Groupoids by menu name: P<n> pair, Z<n> cyclic, S3, T1 point,
    Z2XP2 bundle, and unions written with '+'."""
    fx = gs.fixtures
    parts = []
    for k, name in enumerate(spec.split("+")):
        tag = "uvwxyz"[k]
        if name.startswith("P"):
            G = fx.pair_groupoid(int(name[1:]))
            if k:
                G = _relabel(gs, G, tag)
        elif name.startswith("Z2XP2"):
            G = fx.z2_bundle_over_p2()
        elif name.startswith("Z"):
            G = _cyclic(gs, int(name[1:]), tag)
        elif name == "S3":
            G = fx.group_groupoid(*fx.s3_group())
        elif name == "T1":
            G = _point(gs, tag)
        else:
            raise ValueError(f"unknown groupoid {name}")
        parts.append(G)
    return _union(gs, *parts)


def _relabel(gs, G, tag: str):
    """The same groupoid, every unit and arrow id prefixed with tag."""
    ren = {a: f"{tag}{a}" for a in G.arrows}
    return gs.groupoid.FiniteGroupoid(
        [ren[u] for u in G.units], [ren[a] for a in G.arrows],
        {ren[a]: ren[b] for a, b in G.src.items()},
        {ren[a]: ren[b] for a, b in G.dst.items()},
        {(ren[a], ren[b]): ren[c] for (a, b), c in G.compose.items()},
        {ren[a]: ren[b] for a, b in G.inverse.items()})


def _sheaf(gs, spec: str, field, rng: random.Random):
    """(G, O) for '<groupoid>/<stalk>' with stalk 'F' (the field) or 'D'
    (dual numbers over it), ids prefixed with a tag drawn from rng."""
    gspec, stalk = spec.split("/")
    G = _relabel(gs, _groupoid(gs, gspec), _tag(rng))
    A = (gs.fixtures.scalar_algebra(field) if stalk == "F"
         else _dual_numbers(gs, field))
    return G, gs.sheaf.constant_sheaf(G, A)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Shared shape: ``setup(gs)``, ``run_pass()``, ``summarize(pass)``,
    ``check(summaries)``.  ``begin_item`` is called with each item's
    index inside a pass; the traced run points it at the tracer."""

    # the highest percentile that keeps at least 10 item samples beyond it
    # at the usual pass count (metrics.json)
    tail_percentile = 80

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    @staticmethod
    def begin_item(index: int) -> None:
        pass

    def cleanup(self) -> None:
        pass

    def check(self, summaries: list) -> None:
        """Every pass gives the same answers."""
        for s in summaries:
            if s.digest != summaries[0].digest:
                s.fail(f"{self.name} answers differ between passes")


# ---------------------------------------------------------------------------
# catalog


class Catalog(Workload):
    """The bundled fixture catalog, exactly as ``gsheaf fixtures run``."""

    name = "catalog"
    tail_percentile = 85
    TINY = ("T1-1-F2", "Z2-F2", "GAL", "SWAP", "PTRIV", "RA-TRIV")

    def setup(self, gs) -> None:
        self.gs = gs
        names = gs.fixtures.catalog_names()
        self.names = [n for n in names if n in self.TINY] if self.tiny else names
        # run_fixture builds each fixture again; building them here puts
        # the cost of the builders into setup_s
        self.built = [gs.fixtures.get_fixture(n).build() for n in self.names]

    def inputs_digest(self) -> str:
        return _sha(json.dumps(self.names), str(self.seed))

    def run_pass(self) -> Pass:
        fx, seed = self.gs.fixtures, self.seed
        out = Pass()
        doc = {}
        for k, name in enumerate(self.names):
            self.begin_item(k)
            t0 = time.perf_counter()
            try:
                reps = fx.run_fixture(name, seed)
                doc[name] = [rep.to_json() for rep in reps]
            except Exception as exc:  # counted by the gate
                reps = exc
            out.items.append(time.perf_counter() - t0)
            out.answers.append((name, reps))
        t0 = time.perf_counter()
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for reps in doc.values():
            for rep in reps:
                counts[rep["status"]] += 1
        text = self.gs.schemas.dump_json({"fixtures": doc, "totals": counts})
        out.extra = time.perf_counter() - t0
        out.answers.append(("document", text))
        return out

    def summarize(self, p: Pass) -> Summary:
        s = Summary()
        for name, reps in p.answers[:-1]:
            if isinstance(reps, Exception):
                s.attempted += 1
                s.fail(f"{name} raised {reps!r}")
                continue
            _count_reports(s, reps)
        s.digest = _sha(p.answers[-1][1])
        return s

    def check(self, summaries: list[Summary]) -> None:
        """397 reports with no failure and at least the 355 passes of the
        reference run; skips may turn into passes.  Every pass prints the
        same document."""
        for s in summaries:
            if not self.tiny:
                if s.attempted != CATALOG_REPORTS:
                    s.fail(f"{s.attempted} reports, expected {CATALOG_REPORTS}")
                if s.passed < CATALOG_PASSES_AT_LEAST:
                    s.fail(f"only {s.passed} reports passed")
        super().check(summaries)


# ---------------------------------------------------------------------------
# lattice


# '<groupoid>/<stalk>@p', one slot per line, cheapest first; a slot with
# several variants holds only instances of a few milliseconds.
LATTICE_MENU = (
    ("Z2/F@3", "Z2/F@5", "Z2/F@7"),   # non-modular order-2 isotropy
    ("T1/D@3", "T1/D@5", "T1/D@7"),   # a dual-number stalk
    ("Z4/F@2",),                      # modular cyclic, radical dim 3
    ("Z2/D@3",),                      # dual numbers under isotropy
    ("S3/F@2",),                      # S3 in characteristic 2
    ("Z4/F@7",),                      # non-modular cyclic, 8 ideals
    ("P2/D@2",),                      # matrices over the dual numbers
    ("S3/F@3",),                      # S3 in characteristic 3
    ("P2+Z3/F@3",),                   # pair groupoid next to Z3 isotropy
)
LATTICE_TINY = LATTICE_MENU[:3]


class Lattice(Workload):
    """Non-simple GF(p) instances: ideal lattice, Effros-Hahn, radical.

    Every question gets its own copy of the algebra, rebuilt from the
    structure constants, as separate ``gsheaf`` commands would load it:
    no algebra object is asked twice.
    """

    name = "lattice"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self._oracle: dict[tuple, object] = {}

    def setup(self, gs) -> None:
        self.gs = gs
        rng = random.Random(f"lattice/{self.seed}")
        self.instances = []
        for slot in (LATTICE_TINY if self.tiny else LATTICE_MENU):
            spec, p = rng.choice(slot).split("@")
            G, O = _sheaf(gs, spec, gs.fields.GF(int(p)), rng)
            conv = gs.convalg.build_conv_algebra(G, O)
            self.instances.append((f"{spec}@{p}", conv))
        rng.shuffle(self.instances)

    def inputs_digest(self) -> str:
        sch = self.gs.schemas
        return _sha(*(name + sch.dump_json(sch.sheaf_to_doc(conv.sheaf))
                      for name, conv in self.instances))

    def _fresh(self, conv):
        A = conv.algebra
        copy = self.gs.exactalg.FDAlgebra(A.field, A.labels, A.table, A.unit)
        return self.gs.convalg.ConvAlgebra(conv.groupoid, conv.sheaf, copy)

    def _item(self, conv):
        gs, seed = self.gs, self.seed
        ea = gs.exactalg
        calls = (
            lambda: ea.enumerate_two_sided_ideals(self._fresh(conv).algebra),
            lambda: gs.induction.verify_effros_hahn(self._fresh(conv),
                                                    seed=seed),
            lambda: gs.convalg.check_uniqueness_theorem(self._fresh(conv)),
            lambda: ea.jacobson_radical(self._fresh(conv).algebra, seed),
            lambda: ea.is_simple(self._fresh(conv).algebra),
        )
        answers = []
        for call in calls:
            try:
                answers.append(call())
            except gs.errors.CapExceeded as exc:
                answers.append(("cap", str(exc)))
            except Exception as exc:  # counted by the gate
                answers.append(("error", repr(exc)))
        return answers

    def run_pass(self) -> Pass:
        out = Pass()
        for k, (name, conv) in enumerate(self.instances):
            self.begin_item(k)
            t0 = time.perf_counter()
            answers = self._item(conv)
            out.items.append(time.perf_counter() - t0)
            out.answers.append(answers)
        return out

    def summarize(self, p: Pass) -> Summary:
        s = Summary()
        Report = self.gs.reports.Report
        parts = []
        for (name, conv), answers in zip(self.instances, p.answers):
            ideals, eh, un, J, simple = answers
            for label, ans in zip(("ideals", "effros-hahn", "uniqueness",
                                   "radical", "simple"), answers):
                s.attempted += 1
                if isinstance(ans, tuple) and ans[0] == "cap":
                    s.skips[skip_reason([ans[1]])] += 1
                elif isinstance(ans, tuple) and ans[0] == "error":
                    s.fail(f"{name} {label}: {ans[1]}")
                elif isinstance(ans, Report):
                    if ans.status == "skip":
                        s.skips[skip_reason(ans.caps_hit)] += 1
                    else:
                        s.decided += 1
                        if ans.status == "fail":
                            s.fail(f"{name} {label} report failed")
                else:
                    s.decided += 1
            self._gate(s, name, conv, ideals, J, simple)
            parts.append(json.dumps([
                name,
                [I.basis for I in ideals] if isinstance(ideals, list) else ideals,
                eh.to_json() if isinstance(eh, Report) else eh,
                un.to_json() if isinstance(un, Report) else un,
                J.basis if hasattr(J, "basis") else J,
                simple], default=str))
        s.digest = _sha(*parts)
        return s

    def _gate(self, s: Summary, name, conv, ideals, J, simple) -> None:
        """Ideals are ideals and form a lattice from 0 to A, matching every
        ideal among all subspaces where their count allows; the radical
        matches the brute-force oracle where the order allows; simplicity
        agrees with the count."""
        ea = self.gs.exactalg
        A = conv.algebra
        if isinstance(ideals, list):
            if not all(ea.is_ideal(A, I) for I in ideals):
                s.fail(f"{name}: an enumerated subspace is not an ideal")
            bases = {I.basis for I in ideals}
            if not (ideals[0].is_zero() and ideals[-1].is_full()
                    and all(I.join(K).basis in bases
                            and I.intersect(K).basis in bases
                            for I in ideals for K in ideals)):
                s.fail(f"{name}: the ideals do not form a lattice from 0 to A")
            if subspace_count(A.field.order, A.dim) <= ORACLE_SUBSPACE_CAP:
                key = (id(conv), "ideals")
                if key not in self._oracle:
                    self._oracle[key] = {
                        S.basis for S in ea.enumerate_subspaces(A.field, A.dim)
                        if ea.is_ideal(A, S)}
                if self._oracle[key] != bases:
                    s.fail(f"{name}: ideals differ from the subspace oracle")
            if isinstance(simple, bool) and simple != (len(ideals) == 2):
                s.fail(f"{name}: simple={simple} with {len(ideals)} ideals")
        if simple is True:
            s.fail(f"{name}: the menu holds only non-simple algebras")
        if hasattr(J, "basis") and A.order() <= ORACLE_ORDER_CAP:
            key = (id(conv), "radical")
            if key not in self._oracle:
                self._oracle[key] = ea.radical_bruteforce(A, ORACLE_ORDER_CAP)
            if self._oracle[key] != J:
                s.fail(f"{name}: radical differs from the brute-force oracle")


# ---------------------------------------------------------------------------
# rational


# '<groupoid>/<stalk>' sheaves over QQ, or 'partial:<points>' actions;
# the several variants of a slot cost a few milliseconds and decide the
# same number of checks.
RATIONAL_MENU = (
    ("P5/F",),               # 25 arrows: every bisection check cap-skips
    ("P4/F",),
    ("Z2XP2/F",),            # 8 arrows: SIRI over all bisections
    ("partial:3",),          # partial swap: transformation groupoid P2+T1
    ("Z3+Z2/F",),
    ("S3/F",),
    ("T1+T1+T1/F",),
    ("Z2/F", "Z3/F", "Z4/F"),
    ("partial:2",),          # global swap: transformation groupoid P2
)
RATIONAL_TINY = (("Z2/F", "Z3/F"), ("partial:2",), ("P2/F",))
WORK_DIR = ".perfbench-work"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _partial_swap(gs, n_points: int, rng: random.Random):
    """The order-2 group swapping the first two of n points (n = 2 or 3);
    a third point lies only in the identity's domain."""
    tag = _tag(rng)
    pts = [f"{tag}{i}" for i in range(n_points)]
    a, b = pts[0], pts[1]
    return gs.isgring.PartialGroupAction(
        ["1", "g"], gs.fixtures.cyclic_mul(["1", "g"]), "1", pts,
        {"1": frozenset(pts), "g": frozenset([a, b])},
        {"1": {x: x for x in pts}, "g": {a: b, b: a}})


class Rational(Workload):
    """QQ sheaves and partial actions, read back from JSON every pass."""

    name = "rational"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.dir = os.path.join(ROOT, WORK_DIR, f"rational-{seed}")
        self._reference: dict[str, tuple] = {}

    def setup(self, gs) -> None:
        self.gs = gs
        QQ = gs.fields.QQ
        sch = gs.schemas
        rng = random.Random(f"rational/{self.seed}")
        os.makedirs(self.dir, exist_ok=True)
        self.instances = []
        for k, slot in enumerate(RATIONAL_TINY if self.tiny else RATIONAL_MENU):
            spec = rng.choice(slot)
            if spec.startswith("partial:"):
                obj = _partial_swap(gs, int(spec.split(":")[1]), rng)
                doc = sch.partial_group_action_to_doc(obj)
            else:
                _, obj = _sheaf(gs, spec, QQ, rng)
                doc = sch.sheaf_to_doc(obj)
            text = sch.dump_json(doc)
            path = os.path.join(self.dir, f"{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.instances.append((spec, path, obj, text))
        rng.shuffle(self.instances)

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.dir))
        except OSError:
            pass  # another run still has its documents there

    def inputs_digest(self) -> str:
        return _sha(*(spec + text for spec, _, _, text in self.instances))

    def _item(self, path):
        gs = self.gs
        kind, obj = gs.schemas.load_document(path)
        if kind == "partial_group_action":
            return obj, None, [gs.isgring.verify_partial_crossed(
                obj, gs.fields.QQ)]
        G, O = obj.groupoid, obj
        cv, ind = gs.convalg, gs.induction
        conv = cv.build_conv_algebra(G, O)
        reports = [
            cv.check_convolution_table(conv),
            cv.check_bisection_convolution(conv),
            cv.check_masa_criterion(conv),
            cv.check_uniqueness_theorem(conv),
            cv.check_simplelife(G, O, conv),
            cv.check_primitivity(G, O, conv),
            cv.check_semiprimitivity(G, O, conv, self.seed),
            gs.fixtures.vnr_diagonal_report(O),
            ind.verify_effros_hahn(conv, seed=self.seed),
            gs.isgring.verify_siri(G, O),
            ind.check_disintegration(conv, gs.exactalg.regular_module(
                conv.algebra)),
        ]
        return obj, conv, reports

    def run_pass(self) -> Pass:
        out = Pass()
        for k, (spec, path, _, _) in enumerate(self.instances):
            self.begin_item(k)
            t0 = time.perf_counter()
            try:
                answer = self._item(path)
            except Exception as exc:  # counted by the gate
                answer = exc
            out.items.append(time.perf_counter() - t0)
            out.answers.append(answer)
        return out

    def summarize(self, p: Pass) -> Summary:
        s = Summary()
        sch = self.gs.schemas
        parts = []
        for (spec, path, orig, text), answer in zip(self.instances, p.answers):
            if isinstance(answer, Exception):
                s.attempted += 1
                s.fail(f"{spec} raised {answer!r}")
                continue
            loaded, conv, reports = answer
            _count_reports(s, reports)
            if conv is None:
                same = sch.dump_json(sch.partial_group_action_to_doc(loaded)) == text
            else:
                same = algebra_key(conv.algebra) == self._reference_key(path, orig)
            if not same:
                s.fail(f"{spec}: the document did not round-trip")
            parts.append(json.dumps([spec] + [r.to_json() for r in reports],
                                    default=str))
        s.digest = _sha(*parts)
        return s

    def _reference_key(self, path, O) -> tuple:
        """Structure constants built straight from the generated sheaf."""
        if path not in self._reference:
            conv = self.gs.convalg.build_conv_algebra(O.groupoid, O,
                                                      validate=False)
            self._reference[path] = algebra_key(conv.algebra)
        return self._reference[path]



WORKLOADS = {w.name: w for w in (Catalog, Lattice, Rational)}
