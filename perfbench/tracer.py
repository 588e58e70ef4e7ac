"""Outside-in tracer for the benchmark's traced run.

The tracer swaps named gsheaf functions for wrappers from the outside:
no gsheaf source changes.  A function imported with ``from .x import y``
is bound under several module attributes, so every ``gsheaf.*`` module
attribute that holds the same function object is swapped, and all of
them are put back by ``uninstall``.

Span targets record one span per call: name, start, end, parent span
and item id, kept in memory until the run ends.  The hot kernels
(``IncrementalSpan.add``, ``linalg.mat_vec`` and the yields of
``exactalg.projective_points``) get counters only, because a span per
call would swamp the trace.  ``fields`` is not wrapped at all for the
same reason; its cost shows inside the self time of its callers.
"""

from __future__ import annotations

import functools
import sys
import time

# Functions (and one method) that get one span per call, by layer: the
# gsheaf module that defines them.
SPAN_TARGETS = {
    "linalg": ["rref", "kernel_basis", "solve", "inverse_matrix", "mat_mul"],
    "exactalg": [
        "validate_algebra", "enumerate_two_sided_ideals", "ideal_generated",
        "is_ideal", "simplicity_witness", "is_simple",
        "module_simplicity_witness", "annihilator",
        "meataxe_simple_quotients", "jacobson_radical",
        "is_von_neumann_regular", "centralizer", "quotient_module",
        "quotient_algebra", "check_ring_iso", "find_unit",
    ],
    "groupoid": ["bisection_semigroup", "is_minimal", "is_effective",
                 "orbits"],
    "sheaf": ["require_valid_sheaf", "is_sheaf_of_fields", "ker_sheaf",
              "int_ker_is_units", "diagonal_vnr"],
    "convalg": [
        "build_conv_algebra", "check_convolution_table",
        "check_bisection_convolution", "centralizer_of_diagonal",
        "check_masa_criterion", "check_uniqueness_theorem",
        "check_simplelife", "check_primitivity", "check_semiprimitivity",
    ],
    "induction": ["isotropy_ring", "induce", "annihilator_induced",
                  "module_stalks", "verify_effros_hahn",
                  "check_disintegration"],
    "isgring": [
        "bisection_ring_action", "skew_isg_ring", "siri_data", "verify_siri",
        "transformation_groupoid", "dual_ring_action",
        "verify_partial_crossed", "pierce_atoms", "pierce_data",
        "pierce_verification", "germ_groupoid", "check_cinza",
        "check_orbit_correspondence", "check_simpleaction",
    ],
    "schemas": ["load_document", "dump_json", "sheaf_to_doc",
                "partial_group_action_to_doc"],
    "reports": ["Report.to_json"],
    "fixtures": ["run_fixture", "vnr_diagonal_report"],
}

LAYERS = tuple(SPAN_TARGETS)


def algebra_key(A) -> tuple:
    """Structure constants of an FDAlgebra, hashable."""
    return (A.field.p, A.labels, tuple(tuple(row) for row in A.table), A.unit)


class Tracer:
    """Spans and counters around gsheaf's public functions.

    ``install`` swaps the functions, ``uninstall`` restores them.  Call
    ``begin_item`` before each item so spans carry an item id and the
    per-item repeat counters start afresh.
    """

    def __init__(self):
        self.names: list[str] = []        # span name by id
        self.layer_of: list[str] = []     # layer by span name id
        self.spans: list = []             # (name id, start, end, parent, item)
        self.stack: list[int] = []
        self.item = -1
        self.busy: dict[str, float] = {}  # outermost-call time per name
        self.calls: dict[str, int] = {}
        self.depth: dict[str, int] = {}
        self.counts: dict[str, int] = {}  # counters and sums
        self._seen: dict[str, set] = {}   # per-item keys for repeat ratios
        self._swapped: list = []          # (owner, attribute, original)

    # -- lifecycle ------------------------------------------------------

    def install(self) -> None:
        if self._swapped:
            raise RuntimeError("tracer is already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "gsheaf" or k.startswith("gsheaf."))]
        for layer, attrs in SPAN_TARGETS.items():
            mod = sys.modules[f"gsheaf.{layer}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._swap_attr(cls, meth, orig,
                                    self._span_wrapper(layer, attr, orig))
                else:
                    orig = getattr(mod, attr)
                    self._swap_everywhere(modules, orig,
                                          self._span_wrapper(layer, attr, orig))
        linalg = sys.modules["gsheaf.linalg"]
        exactalg = sys.modules["gsheaf.exactalg"]
        span_cls = linalg.IncrementalSpan
        self._swap_attr(span_cls, "add", span_cls.__dict__["add"],
                        self._span_add_counter(span_cls.__dict__["add"]))
        self._swap_everywhere(modules, linalg.mat_vec,
                              self._call_counter("linalg.mat_vec.calls",
                                                 linalg.mat_vec))
        self._swap_everywhere(modules, exactalg.projective_points,
                              self._yield_counter(
                                  "exactalg.projective_points.yielded",
                                  exactalg.projective_points))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._swapped):
            setattr(owner, attr, orig)
        self._swapped = []

    def begin_item(self, item: int) -> None:
        self.item = item
        self._seen = {}

    def _swap_attr(self, owner, attr, orig, wrapper) -> None:
        self._swapped.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _swap_everywhere(self, modules, orig, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._swap_attr(mod, attr, orig, wrapper)

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, layer: str, attr: str, orig):
        name = f"{layer}.{attr.split('.')[-1]}"
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.busy[name] = 0.0
        self.calls[name] = 0
        self.depth[name] = 0
        hook = HOOKS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            self.depth[name] += 1
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.depth[name] -= 1
                spans[idx] = (name_id, t0, t1, parent, self.item)
                self.calls[name] += 1
                if not self.depth[name]:
                    self.busy[name] += t1 - t0
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _span_add_counter(self, orig):
        counts = self.counts
        counts["linalg.span_add.calls"] = 0
        counts["linalg.span_add.grew"] = 0

        @functools.wraps(orig)
        def add(span, v):
            counts["linalg.span_add.calls"] += 1
            grew = orig(span, v)
            if grew:
                counts["linalg.span_add.grew"] += 1
            return grew

        return add

    def _call_counter(self, key: str, orig):
        counts = self.counts
        counts[key] = 0

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        return counted

    def _yield_counter(self, key: str, orig):
        counts = self.counts
        counts[key] = 0

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            for v in orig(*args, **kwargs):
                counts[key] += 1
                yield v

        return counted

    # -- hook helpers ---------------------------------------------------

    def add_count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def item_keys(self, name: str) -> set:
        """Keys seen so far in the current item, per function name."""
        return self._seen.setdefault(name, set())

    def note_repeat(self, name: str, key) -> None:
        """Count a call whose key was already seen in the same item."""
        seen = self.item_keys(name)
        if key in seen:
            self.add_count(name + ".repeats")
        else:
            seen.add(key)

    # -- results --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time of child spans."""
        child = [0.0] * len(self.spans)
        for name_id, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {layer: 0.0 for layer in LAYERS}
        for i, (name_id, t0, t1, _, _) in enumerate(self.spans):
            out[self.layer_of[name_id]] += (t1 - t0) - child[i]
        return out

    def root_time(self) -> float:
        """Total time of spans with no parent span."""
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans if parent < 0)


def _algebra_arg(args, kwargs):
    return args[0] if args else kwargs["A"]


def _repeat_on_arg(name):
    def hook(tr, args, kwargs, result):
        tr.note_repeat(name, algebra_key(_algebra_arg(args, kwargs)))
    return hook


def _ideal_generated(tr, args, kwargs, result):
    A = _algebra_arg(args, kwargs)
    sided = args[2] if len(args) > 2 else kwargs.get("sided", "two")
    seen = tr.item_keys("exactalg.ideal_generated")
    key = (id(A), A.dim, sided, result.basis)
    if key not in seen:
        seen.add(key)
        tr.add_count("exactalg.ideal_generated.distinct")


def _build_conv(tr, args, kwargs, result):
    tr.note_repeat("convalg.build_conv_algebra", algebra_key(result.algebra))


def _siri_data(tr, args, kwargs, result):
    tr.note_repeat("isgring.siri_data", algebra_key(result.conv.algebra))


def _skew(tr, args, kwargs, result):
    tr.add_count("isgring.skew_isg_ring.L_dim", result.L.dim)
    tr.add_count("isgring.skew_isg_ring.quotient_dim", result.quotient.dim)


def _bisections(tr, args, kwargs, result):
    tr.add_count("groupoid.bisection_semigroup.members", len(result[1]))


def _dump(tr, args, kwargs, result):
    tr.add_count("schemas.dump_json.bytes", len(result.encode("utf-8")))


HOOKS = {
    "exactalg.simplicity_witness": _repeat_on_arg("exactalg.simplicity_witness"),
    "exactalg.enumerate_two_sided_ideals":
        _repeat_on_arg("exactalg.enumerate_two_sided_ideals"),
    "exactalg.ideal_generated": _ideal_generated,
    "convalg.build_conv_algebra": _build_conv,
    "isgring.siri_data": _siri_data,
    "isgring.skew_isg_ring": _skew,
    "groupoid.bisection_semigroup": _bisections,
    "schemas.dump_json": _dump,
}
