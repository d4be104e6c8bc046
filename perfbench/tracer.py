"""Outside-in span tracer for ftik's layers.

The tracer wraps public functions and methods of the ``ftik`` modules from
outside the package.  ``from .diagram import sublink`` binds the function
object into the importing module at import time, so every ftik module
namespace that holds an original is rebound, and so are dataclass
instances that hold one (``fintype.LAMBDA2.evaluate``).  Methods are
patched on their class.  Spans live in flat arrays with a parent link each;
a layer's self time is its span time minus the time of its child spans.
``restore()`` puts every original back.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array

# Layer name -> "module:attribute" targets.  Private helpers (``_contract_piece``,
# ``_first_bad_crossing``, ``LinkDiagram.assemble``, ``half_power``) are left
# unwrapped, so their time is self time of the public function that calls them.
LAYERS: dict[str, tuple[str, ...]] = {
    "diagram.sublink": ("diagram:sublink",),
    "diagram.canonical_key": ("diagram:LinkDiagram.canonical_key",),
    "diagram.parallel": ("diagram:parallel",),
    "diagram.switch_smooth": ("diagram:switch_crossing", "diagram:smooth_crossing"),
    "diagram.build": (
        "diagram:LinkDiagram.from_pd", "diagram:closed_braid", "diagram:with_framings",
        "diagram:disjoint_union", "diagram:mirror", "diagram:SurgeryPresentation.__post_init__",
    ),
    "skein.bracket": ("skein:kauffman_bracket",),
    "skein.jones": ("skein:jones",),
    "skein.conway": ("skein:conway",),
    "series.expand": ("series:laurent_to_series",),
    "series.invert": ("series:TruncSeries.invert",),
    "series.compose": ("series:compose_exp_minus_one",),
    "series.arith": (
        "series:TruncSeries.__add__", "series:TruncSeries.__sub__",
        "series:TruncSeries.__neg__", "series:TruncSeries.__mul__",
    ),
    "invariants.X": ("invariants:normalized_jones_series",),
    "invariants.alt_sum": (
        "invariants:sublink_alternating_series", "invariants:sublink_alternating_series_naive",
    ),
    "invariants.phi": ("invariants:jones_sublink_weight",),
    "invariants.surgery": (
        "invariants:casson_invariant", "invariants:ohtsuki_lambda2",
        "invariants:psi2_knot_invariant",
    ),
    "fintype.difference_sum": ("fintype:difference_sum",),
    "cli": ("cli:main",),
}

# Pseudo-layer for the tracer's own key computations: it is subtracted from
# the enclosing span's self time and reported nowhere.
_KEY_LAYER = "trace.key"


def _ftik_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ftik" or name.startswith("ftik."))]


class Tracer:
    def __init__(self):
        self.names = list(LAYERS) + [_KEY_LAYER]
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.layer = array("B")
        self.stack: list[int] = []
        self.keys: dict[str, set] = {"skein.bracket": set(), "invariants.X": set()}
        self._undo: list = []

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, layer_name: str, before=None):
        layer_id = self.names.index(layer_name)
        starts, ends, parents, layers, stack = (
            self.starts, self.ends, self.parents, self.layer, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(parents)
            parents.append(stack[-1] if stack else -1)
            layers.append(layer_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        import ftik.cli  # noqa: F401  (every ftik module must be loaded)
        from ftik.diagram import LinkDiagram

        key_of = self._wrap(LinkDiagram.canonical_key, _KEY_LAYER)
        key_hooks = {
            "skein.bracket": lambda a, k: self.keys["skein.bracket"].add(key_of(a[0])),
            "invariants.X": lambda a, k: self.keys["invariants.X"].add(
                (key_of(a[0]), a[1] if len(a) > 1 else k["order"])),
        }
        modules = _ftik_modules()
        by_name = {m.__name__: m for m in modules}
        replacements: dict[int, object] = {}
        for layer_name, targets in LAYERS.items():
            for target in targets:
                mod_name, attr = target.split(":")
                owner = by_name[f"ftik.{mod_name}"]
                *path, attr = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                hook = key_hooks.get(layer_name)
                if path:
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, layer_name, hook))
                    else:
                        new = self._wrap(raw, layer_name, hook)
                    self._set(owner, attr, raw, new)
                else:
                    raw = getattr(owner, attr)
                    replacements[id(raw)] = (raw, self._wrap(raw, layer_name, hook))
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self._set(module, name, value, replacements[id(value)][1])
                elif dataclasses.is_dataclass(value) and not isinstance(value, type):
                    for f in dataclasses.fields(value):
                        held = getattr(value, f.name)
                        hit = replacements.get(id(held))
                        if hit is not None and hit[0] is held:
                            self._set(value, f.name, held, hit[1], frozen=True)

    def _set(self, owner, attr, old, new, frozen: bool = False) -> None:
        setter = object.__setattr__ if frozen else setattr
        setter(owner, attr, new)
        self._undo.append((setter, owner, attr, old))

    def restore(self) -> None:
        while self._undo:
            setter, owner, attr, old = self._undo.pop()
            setter(owner, attr, old)

    # -- report -----------------------------------------------------------

    def report(self) -> dict[str, float]:
        """Per-layer ``calls`` and ``self_s``, the Conway node count and the
        distinct-key ratios, computed from the recorded spans."""
        n = len(self.parents)
        child_time = [0.0] * n
        starts, ends, parents, layer = self.starts, self.ends, self.parents, self.layer
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            lid = layer[i]
            calls[lid] += 1
            self_s[lid] += ends[i] - starts[i] - child_time[i]
        out: dict[str, float] = {}
        for lid, name in enumerate(self.names[:-1]):
            out[f"{name}.calls"] = calls[lid]
            out[f"{name}.self_s"] = self_s[lid]
        conway = self.names.index("skein.conway")
        switch_smooth = self.names.index("diagram.switch_smooth")
        # Switch/smooth calls are made directly by conway's resolution tree,
        # so their parent span is the conway span; each conway call adds 1.
        out["skein.conway.nodes"] = calls[conway] + sum(
            1 for i in range(n)
            if layer[i] == switch_smooth and parents[i] >= 0 and layer[parents[i]] == conway)
        for name, keys in self.keys.items():
            total = out[f"{name}.calls"]
            out[f"{name}.distinct_ratio"] = len(keys) / total if total else 0.0
        out["trace.spans"] = n
        return out
