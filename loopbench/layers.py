"""Outside-in layer trace for the loopcalc benchmark.

The trace changes no library file.  It wraps public functions from here,
and because the library's modules import functions by name, it rebinds a
function under every name that holds it in any loaded ``loopcalc`` module
(``require_valid_loop`` is held by ``loops``, ``stars`` and ``closed``;
patching only the defining module would miss most calls).  Methods are
wrapped on their class.  ``Tracer.uninstall`` puts every original back.

Each wrapped call is a span.  A layer's self time is its spans' time minus
the time of the spans nested inside them; spans are folded into per-layer
totals as they close rather than stored, because the word kernel alone is
entered hundreds of thousands of times a round.
"""

from __future__ import annotations

import sys
from time import perf_counter

#: layer -> wrapped names, as ``(module, attribute)``; a dotted attribute
#: names a method on a class of that module.
LAYERS = {
    "loops.validate": [("loops", "require_valid_loop")],
    "loops.encode": [("loops", "encoded_word")],
    "loops.splice": [("loops", "graft"), ("loops", "subloop")],
    "loops.moves": [("loops", "apply_move")],
    "words.canonical": [("words", "canonical")],
    "stars.expand": [("stars", "expand_to_gates")],
    "stars.evaluate": [("stars", "star_form"), ("stars", "star_bracket"), ("stars", "star_cobracket")],
    "stars.aggregate": [("stars", "aggregate")],
    "gates.evaluate": [("gates", "form"), ("gates", "bracket"), ("gates", "cobracket")],
    "gates.splice": [("gates", "graft_at"), ("gates", "split_at")],
    "gates.omega": [
        ("gates", name) for name in ("form_omega", "bracket_omega", "cobracket_omega", "mu", "flip_check")
    ],
    "algebra.add": [("algebra", "FormalSum.__add__"), ("algebra", "FormalSum.__sub__")],
    "closed.normalize": [("closed", "ClosedNormalizer.normalize")],
    "closed.normalizer_init": [("closed", "ClosedNormalizer.__init__")],
    "fuzz.oracle": [("fuzz", "oracle_failures")],
    "fuzz.identities": [("fuzz", "identity_failures")],
    "fuzz.omega_independence": [("fuzz", "omega_independence_failures")],
    "fuzz.moves": [("fuzz", "move_invariance_failures")],
    "fuzz.shadows": [("fuzz", "shadow_failures")],
    "fuzz.evenness": [("fuzz", "evenness_failures")],
}

#: The skew gate operations call the oriented ones internally; those calls
#: stay in ``gates.evaluate`` so ``gates.omega`` counts only direct callers.
SKIP_UNDER = {"gates.omega": "gates.evaluate"}

SPLICE_LAYERS = {"loops.splice", "gates.splice"}
EVALUATE_LAYERS = {"stars.evaluate", "gates.evaluate"}
LOOP_LAYERS = {"loops.validate", "loops.encode"}

#: Words kept from the traced round for the raw-kernel timing.
CAPTURE_WORDS = 20_000


def _terms(value) -> int:
    """Nonzero terms of a value: a formal sum's support, or 1 for a
    nonzero integer form."""
    return int(value != 0) if isinstance(value, int) else len(value)


class LayerStats:
    __slots__ = ("calls", "self_s", "attempted", "kept", "units", "distinct")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.attempted = 0  # terms tried (splices, or per-star terms)
        self.kept = 0  # nonzero terms in the results
        self.units = 0  # letters or crossings handled
        self.distinct: dict = {}  # distinct inputs, kept alive so ids stay unique


class Tracer:
    def __init__(self):
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.stack: list[list] = []  # open spans: [layer, seconds of nested spans]
        self.splices = 0
        self.words: list[tuple[int, ...]] = []
        self.patches: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("loopcalc.")]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                module = sys.modules[f"loopcalc.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    self._patch(cls, method, self._wrap(layer, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer, original)
                for holder in modules:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, name, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self.patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()

    def reset(self) -> None:
        self.stats = {layer: LayerStats() for layer in LAYERS}

    # -- spans ----------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        tracer = self
        skip = SKIP_UNDER.get(layer)
        splice = layer in SPLICE_LAYERS
        evaluate = layer in EVALUATE_LAYERS
        by_loop = layer in LOOP_LAYERS
        canonical = layer == "words.canonical"

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if skip is not None and stack and stack[-1][0] == skip:
                return fn(*args, **kwargs)
            stats = tracer.stats[layer]
            if by_loop:
                stats.distinct[id(args[1])] = args[1]
            elif canonical:
                stats.units += len(args[0])
                if len(tracer.words) < CAPTURE_WORDS:
                    tracer.words.append(tuple(args[0]))
            elif layer == "closed.normalize":
                stats.distinct[args[1]] = None
            elif splice:
                tracer.splices += 1
            splices_before = tracer.splices
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
            if evaluate and not isinstance(result, int):
                stats.attempted += tracer.splices - splices_before
                stats.kept += _terms(result)
            elif layer == "stars.aggregate":
                stats.attempted += sum(_terms(v) for _, v in result.per_star)
                stats.kept += _terms(result.total)
            elif layer == "stars.expand":
                stats.units += sum(len(cs) for cs in result.crossings.values())
            return result

        wrapper.__wrapped__ = fn
        wrapper.loopbench_layer = layer
        return wrapper

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers of everything traced since the last reset."""
        out: dict[str, float] = {}
        for layer, st in self.stats.items():
            out[f"{layer}.self_s"] = st.self_s
            out[f"{layer}.calls"] = st.calls
            if layer in LOOP_LAYERS:
                out[f"{layer}.calls_per_loop"] = st.calls / max(len(st.distinct), 1)
            if layer in EVALUATE_LAYERS or layer == "stars.aggregate":
                out[f"{layer}.kept_ratio"] = st.kept / max(st.attempted, 1)
        out["words.canonical.letters"] = self.stats["words.canonical"].units
        out["stars.expand.crossings"] = self.stats["stars.expand"].units
        normalize = self.stats["closed.normalize"]
        out["closed.normalize.distinct_ratio"] = len(normalize.distinct) / max(normalize.calls, 1)
        return out


def leftover_wrappers() -> list[str]:
    """Names in loaded ``loopcalc`` modules, or on their classes, that still
    hold a trace wrapper."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("loopcalc."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "loopbench_layer"):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                for method, inner in vars(value).items():
                    if hasattr(inner, "loopbench_layer"):
                        found.append(f"{name}.{attr}.{method}")
    return found
