"""Span tracing of realword from outside the package.

Each traced layer is one public function or method.  `Tracer.install`
replaces it, in every namespace its callers look it up in, by a wrapper
that opens a span (name, start, end, parent) around the call; `restore`
puts the originals back.  Spans of coarse layers are kept as records.
Spans of hot leaves (``match_prefix`` alone runs about a million times a
round) are folded into a count and a summed time under their nearest kept
ancestor, so memory stays bounded however often a leaf runs.

Per layer the tracer keeps calls, total time, self time (span duration
minus the time covered by child spans) and, where a layer can fail to
produce a useful result, hits.
"""

from __future__ import annotations

import time

from realword import (britton, machine, predicates, presentations, reduction,
                      slp, words)

_found = lambda result: result is not None

# (layer name, namespaces the callers look it up in, kept as a record, hit test)
LAYERS = (
    ("presentations.wp_semidecide", [(presentations, "wp_semidecide")], True, None),
    ("presentations.verify_certificate",
     [(presentations, "verify_certificate")], True, None),
    ("presentations.presentation_from_json",
     [(presentations, "presentation_from_json")], True, None),
    ("presentations.RelatorSchema.match_prefix",
     [(presentations.RelatorSchema, "match_prefix")], False, _found),
    ("presentations.LetterTemplate.instantiate_id",
     [(presentations.LetterTemplate, "instantiate_id")], False, None),
    ("predicates.Pred.eval", [(predicates.Pred, "eval")], False, None),
    ("predicates.solve_unknown", [(presentations, "solve_unknown")], False, None),
    ("rationals.enumerate_vectors", [(presentations, "enumerate_vectors")], False, None),
    ("words.parse_word", [(words, "parse_word"), (presentations, "parse_word")],
     False, None),
    ("words.format_word", [(words, "format_word"), (presentations, "format_word")],
     False, None),
    ("words.concat", [(words, "concat"), (presentations, "concat"),
                      (britton, "concat")], False, None),
    ("words.free_reduce", [(words, "free_reduce"), (presentations, "free_reduce"),
                           (britton, "free_reduce"), (reduction, "free_reduce")],
     False, None),
    ("words.nielsen_decompose", [(words, "nielsen_decompose"),
                                 (reduction, "nielsen_decompose")], False, None),
    ("slp.replay", [(slp, "replay")], False, _found),
    ("slp.PathEnumerator.exact", [(slp.PathEnumerator, "exact")], False, None),
    ("reduction.UHandle.member_within", [(reduction.UHandle, "member_within")],
     True, None),
    ("machine.run", [(machine, "run"), (reduction, "run")], True, None),
    ("machine.step", [(machine, "step")], False, None),
    ("britton.hnn_is_identity", [(britton, "hnn_is_identity"),
                                 (reduction, "hnn_is_identity")], True, None),
    ("britton.britton_reduce", [(britton, "britton_reduce")], True, None),
)

# layers whose hits are reported as a hit ratio
HIT_LAYERS = tuple(name for name, _, _, hit in LAYERS if hit is not None)

# the benchmark's own span around each timed call; its self time is the
# part of a call no traced layer covers
CALL_SPAN = "bench.call"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, hits]
        self.spans: list[tuple] = []  # (id, name, parent id, start, end)
        self.leaves: dict[tuple, list] = {}  # (parent id, name) -> [calls, total_s]
        self._stack: list[list] = []  # open frames: [start, child_s, span id]
        self._next_id = [0]
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, keep: bool, hit=None):
        """`fn` inside a span called `name`."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, spans, leaves, next_id = self._stack, self.spans, self.leaves, self._next_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else 0
            if keep:
                next_id[0] += 1
                sid = next_id[0]
            else:
                sid = parent
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep:
                    spans.append((sid, name, parent, frame[0], end))
                else:
                    agg = leaves.get((parent, name))
                    if agg is None:
                        leaves[(parent, name)] = [1, dur]
                    else:
                        agg[0] += 1
                        agg[1] += dur
            if hit is not None and hit(result):
                stats[3] += 1
            return result

        return traced

    def install(self):
        for name, sites, keep, hit in LAYERS:
            owner, attr = sites[0]
            wrapped = self.wrap(name, owner.__dict__[attr], keep, hit)
            for owner, attr in sites:
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapped)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls and self_s per layer, plus the hit ratios."""
        out = {}
        for name in (CALL_SPAN,) + tuple(n for n, _, _, _ in LAYERS):
            calls, _, self_s, hits = self.stats.get(name, (0, 0.0, 0.0, 0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
            if name in HIT_LAYERS:
                out[f"{name}.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
        return out

    def dump(self) -> dict:
        """Kept spans and folded leaves, for writing out at the end of a run."""
        return {
            "spans": [{"id": s, "name": n, "parent": p, "start": a, "end": b}
                      for s, n, p, a, b in self.spans],
            "leaves": [{"parent": p, "name": n, "calls": c, "total_s": t}
                       for (p, n), (c, t) in self.leaves.items()],
        }
