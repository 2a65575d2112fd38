"""Per-layer tracing for the benchmark's traced run.

The program itself carries no instrumentation, so every layer is measured
from outside: the public functions of each ``superder`` module are wrapped
where the calling module binds them (the package imports names with
``from .x import y``, so ``annihilator.kernel_basis`` and
``two_local.kernel_basis`` are separate bindings of one function).  Every
call through a wrapper is a span with a parent link; a layer's self time
is the sum over its spans of duration minus the time covered by child
spans.  Spans of the coarse layers (at most a few dozen per job) are kept
in memory and written out when the run ends; the fine-grained layers
(bracket, apply, parse, format) run millions of times per run, so their
spans are folded into per-layer totals as they close.

The wrappers can be switched off and on between jobs (``disable`` puts the
original functions back), so one worker can alternate traced and untraced
rounds and measure the tracing overhead on the same machine at the same
time, with the caches evolving exactly as in an untraced run.

``bracket_terms`` is never wrapped: its counts come from deltas of the
public ``lru_cache`` statistics, which costs nothing per call.
"""

import json
import time

# Layer name -> (module, attribute) pairs naming the public function.  Every
# superder module binding the same function object gets the wrapper.
FUNCTION_LAYERS = {
    "expr.parse": [("expr", "parse_element"), ("expr", "parse_derivation")],
    "expr.format_element": [("expr", "format_element")],
    "algebra.bracket": [("algebra", "bracket")],
    "linalg.kernel_basis": [("linalg", "kernel_basis")],
    "annihilator.annihilator_basis": [("annihilator", "annihilator_basis")],
    "annihilator.evaluation_matrix": [("annihilator", "evaluation_matrix")],
    "two_local.globalize": [("two_local", "globalize")],
    "two_local.checked_query": [("two_local", "checked_query")],
    "lemmas.jacobi_sweep": [("lemmas", "jacobi_sweep")],
}
# Layer name -> (module, class, method).
METHOD_LAYERS = {
    "derivations.apply": ("derivations", "SuperDerivation", "apply"),
    "two_local.certificate_to_json": ("two_local", "Certificate", "to_json"),
}
ORACLE_LAYER = "two_local.oracle_query"
JOB_LAYER = "cli.run_command"
# Layers whose spans are stored individually (few per job).
STORED_LAYERS = frozenset((
    JOB_LAYER, "annihilator.annihilator_basis", "annihilator.evaluation_matrix",
    "linalg.kernel_basis", "two_local.globalize", "lemmas.jacobi_sweep",
    "two_local.certificate_to_json",
))
MODULES = ("algebra", "annihilator", "cli", "derivations", "expr", "lemmas",
           "linalg", "two_local")


class Tracer:
    """Span stack, per-layer totals and the stored coarse spans."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []          # open spans: [layer, start, child_s, span_id]
        self.calls = {}
        self.self_s = {}
        self.spans = []          # stored: (id, parent_id, layer, job, start, end)
        self.next_id = 1
        self.job = -1
        self.job_tag = None
        self.tag_kernel_s = {}
        self.cells = 0
        self.nnz = 0
        self.elements_built = 0
        self.triples = 0
        self.patches = []        # (owner, attribute, original, wrapped)
        self.missing = []        # layer boundaries the package no longer has

    def _open(self, layer):
        span = [layer, self.clock(), 0.0, self.next_id]
        self.next_id += 1
        self.stack.append(span)
        return span

    def _close(self, span):
        end = self.clock()
        self.stack.pop()
        layer, start, child, span_id = span
        duration = end - start
        own = duration - child
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.self_s[layer] = self.self_s.get(layer, 0.0) + own
        parent_id = 0
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        if layer in STORED_LAYERS:
            self.spans.append((span_id, parent_id, layer, self.job, start, end))
        return own

    def wrap(self, layer, fn):
        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def run_job(self, index, tag, fn, *args):
        """Run one job as the root span of its own trace."""
        self.job = index
        self.job_tag = tag
        span = self._open(JOB_LAYER)
        try:
            return fn(*args)
        finally:
            self._close(span)

    # -- layer-specific hooks ----------------------------------------------

    def _kernel_wrapper(self, fn):
        def traced(m, *args, **kwargs):
            rows, cols = m.shape
            self.cells += rows * cols
            self.nnz += len(m.entries)
            span = self._open("linalg.kernel_basis")
            try:
                return fn(m, *args, **kwargs)
            finally:
                own = self._close(span)
                self.tag_kernel_s[self.job_tag] = self.tag_kernel_s.get(self.job_tag, 0.0) + own
        return traced

    def _jacobi_wrapper(self, fn):
        inner = self.wrap("lemmas.jacobi_sweep", fn)

        def traced(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.triples += result[1]
            return result
        return traced

    def _oracle_factory(self, factory, oracle_cls):
        def traced(*args, **kwargs):
            oracle = factory(*args, **kwargs)
            return oracle_cls(oracle.family, self.wrap(ORACLE_LAYER, oracle.query))
        return traced

    def _counting_init(self, init):
        def counted(obj, *args, **kwargs):
            self.elements_built += 1
            init(obj, *args, **kwargs)
        return counted

    def _patch(self, owner, attr, wrapped):
        self.patches.append((owner, attr, getattr(owner, attr), wrapped))

    def install(self, package):
        """Prepare wrappers for every layer boundary of ``superder``; they
        take effect on ``enable``.  A boundary the package no longer has is
        listed in ``missing`` and its metrics read zero."""
        mods = {name: getattr(package, name) for name in MODULES}
        special = {"linalg.kernel_basis": self._kernel_wrapper,
                   "lemmas.jacobi_sweep": self._jacobi_wrapper}
        for layer, targets in FUNCTION_LAYERS.items():
            for home, attr in targets:
                original = getattr(mods[home], attr, None)
                if original is None:
                    self.missing.append("%s.%s" % (home, attr))
                    continue
                make = special.get(layer, lambda fn, layer=layer: self.wrap(layer, fn))
                wrapped = make(original)
                for mod in mods.values():
                    if getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapped)
        for layer, (home, cls_name, attr) in METHOD_LAYERS.items():
            cls = getattr(mods[home], cls_name, None)
            if getattr(cls, attr, None) is None:
                self.missing.append("%s.%s.%s" % (home, cls_name, attr))
                continue
            self._patch(cls, attr, self.wrap(layer, getattr(cls, attr)))
        two_local, cli = mods["two_local"], mods["cli"]
        for attr in ("make_honest_oracle", "make_adversarial_oracle"):
            if getattr(cli, attr, None) is None:
                self.missing.append("cli." + attr)
                continue
            self._patch(cli, attr, self._oracle_factory(getattr(cli, attr),
                                                        two_local.TwoLocalOracle))
        element = mods["algebra"].Element
        self._patch(element, "__init__", self._counting_init(element.__init__))

    def enable(self):
        for owner, attr, _, wrapped in self.patches:
            setattr(owner, attr, wrapped)

    def disable(self):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def write_spans(self, path, origin):
        """Write the stored spans; times are microseconds after ``origin``."""
        layers = sorted({span[2] for span in self.spans})
        index = {name: i for i, name in enumerate(layers)}
        rows = [[sid, parent, index[layer], job, round((start - origin) * 1e6),
                 round((end - origin) * 1e6)]
                for sid, parent, layer, job, start, end in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": layers,
                       "fields": ["id", "parent", "layer", "job", "start_us", "end_us"],
                       "spans": rows}, fh, separators=(",", ":"))
