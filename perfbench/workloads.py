"""The benchmark's workloads: seeded inputs, timed calls, reference checks.

Every workload is a list of rounds.  A round is a fixed, balanced slice of
inputs (the same number per presentation or per program), so runs of any
length measure the same mix.  Each round item is one timed call into the
public API.  Each outcome is checked against a reference that does not
share the code under test: the closed-form oracles of `sample_groups` on
the word-problem side, and the closed-form halting sets of the reference
programs (written out below) on the halting side.  The check also renders
one line per decided input; the lines of the pinned corpus (seed 7) are
hashed into the workload's digest.

Imports of realword happen in `setup`, so that the set-up time measured in
a fresh interpreter includes them.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from types import SimpleNamespace

WP_NAMES = ("circle", "torus", "sl2", "rationals-a", "rationals-b")
PROGRAM_NAMES = ("sign", "poly3", "square", "recip", "halt", "double")

# fuels fixed as in the CLI and the acceptance checks
REFUTE_FUEL = 1500
PROVE_FUEL = 100_000
HALT_FUEL = 10_000

# the halting sets of programs.py in closed form; simulation is not consulted
HALTS = {
    "sign": lambda r: r >= 1,
    "poly3": lambda r: r >= 1 or r < -1,
    "square": lambda r: r * r >= 4,
    "recip": lambda r: 0 < r <= 2,
    "double": lambda r: 2 * r >= 3,
    "halt": lambda r: True,
}

# the input grid check 8 draws from: numerators -12..12, denominators 1..6
GRID = tuple((n, d) for n in range(-12, 13) for d in range(1, 7))


# the realword modules and the objects a workload builds once
State = SimpleNamespace


def _modules() -> dict:
    from realword import presentations, programs, reduction, sample_groups, words
    return dict(presentations=presentations, programs=programs,
                reduction=reduction, sample_groups=sample_groups, words=words)


def _rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _nonzero(rng: random.Random) -> Fraction:
    x = _rat(rng)
    while x == 0:
        x = _rat(rng)
    return x


def _unit_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    # rational points of the unit circle: ((1 - t^2), 2t) / (1 + t^2)
    t = _rat(rng)
    return (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)


class Workload:
    name = ""
    rounds_pooled = 1  # distinct rounds generated before timing; runs cycle them
    trace_rounds = 1  # rounds timed in a traced run, so its counts are exact
    golden_rounds = 1  # rounds of the pinned seed hashed into the digest

    def setup(self) -> State:
        raise NotImplementedError

    def rounds(self, st: State, seed: int, count: int) -> list[list]:
        raise NotImplementedError

    def golden(self, st: State, seed: int) -> list:
        """The calls of the pinned corpus."""
        return [item for rnd in self.rounds(st, seed, self.golden_rounds)
                for item in rnd]

    def call(self, st: State, item):
        raise NotImplementedError

    def inputs(self, item) -> int:
        """Inputs one call decides."""
        return 1

    def check(self, st: State, item, out) -> tuple[int, list[str]]:
        """Wrong outcomes among the call's inputs, and one line per input."""
        raise NotImplementedError


# -- word-problem side ---------------------------------------------------------

class _WordProblem(Workload):
    def setup(self) -> State:
        m = _modules()
        pres = {n: m["sample_groups"].BUILTIN_PRESENTATIONS[n]() for n in WP_NAMES}
        return State(pres=pres, oracles=m["sample_groups"].ORACLES, **m)

    def _letter(self, st: State, name: str, rng: random.Random):
        GenSym = st.words.GenSym
        exp = rng.choice((1, -1))
        if name in ("torus", "rationals-a"):
            return GenSym("x", (_rat(rng),)), exp
        if name == "rationals-b":
            return GenSym("x", (Fraction(rng.randint(-5, 5)),
                                Fraction(rng.randint(1, 5)))), exp
        if name == "circle":
            r, s = _rat(rng), _rat(rng)
            while r == 0 and s == 0:
                r, s = _rat(rng), _rat(rng)
            return GenSym("x", (r, s)), exp
        if rng.random() < 0.7:  # sl2: translations and the rotation
            return GenSym("x", (_rat(rng),)), exp
        return GenSym("y"), exp

    def rounds(self, st: State, seed: int, count: int) -> list[list]:
        rng = random.Random(f"{self.name}/{seed}")
        return [[item for name in WP_NAMES
                 for item in self.items(st, name, rng)] for _ in range(count)]


class WpRefute(_WordProblem):
    """Oracle-refuted words; every call spends its whole node budget."""

    name = "wp-refute"
    rounds_pooled = 60
    trace_rounds = 4

    def items(self, st: State, name: str, rng: random.Random) -> list:
        words = st.words
        while True:
            w = words.free_reduce(words.Word.from_letters(
                [self._letter(st, name, rng) for _ in range(rng.randint(1, 4))]))
            if len(w) and not st.oracles[name](w):
                return [(name, w)]

    def call(self, st: State, item):
        name, w = item
        return st.presentations.wp_semidecide(st.pres[name], w, REFUTE_FUEL)

    def check(self, st: State, item, cert) -> tuple[int, list[str]]:
        name, w = item
        verdict = "UNKNOWN" if cert is None else json.dumps(cert.to_json())
        line = f"{name}\t{st.words.format_word(w)}\t{verdict}"
        return (0 if cert is None else 1), [line]


def _core(name: str, rng: random.Random) -> tuple[str, tuple]:
    """The label of one of the presentation's relator schemas, and
    parameters that schema admits."""
    if name == "circle":
        if rng.random() < 0.5:
            r, s = _nonzero(rng), _rat(rng)
            lam = abs(_nonzero(rng))
            return "same-ray", (r, s, lam * r, lam * s)
        (r, s), (a, b) = _unit_pair(rng), _unit_pair(rng)
        return "complex-mul", (r, s, a, b, r * a - s * b, r * b + s * a)
    if name == "torus":
        if rng.random() < 0.4:
            return "shift", (_rat(rng),)
        return "sum", (_rat(rng), _rat(rng))
    if name == "sl2":
        a, b = _nonzero(rng), _nonzero(rng)
        return rng.choice((
            ("translation-sum", (a, b)),
            ("scaling-product", (a, 1 / a, b, 1 / b, a * b, 1 / (a * b))),
            ("v-squared", ()),
            ("scaled-translation", (a, 1 / a, b)),
        ))
    if name == "rationals-a":
        return "sum", (_rat(rng), _rat(rng))
    ri = lambda lo, hi: Fraction(rng.randint(lo, hi))
    if rng.random() < 0.5:
        return "fraction-sum", (ri(-6, 6), ri(1, 6), ri(-6, 6), ri(1, 6))
    return "rescale", (ri(-6, 6), ri(1, 6), Fraction(rng.choice((-3, -2, -1, 1, 2, 3))))


class WpProve(_WordProblem):
    """Trivial words built from relator instances, proved from text and replayed."""

    name = "wp-prove"
    per_presentation = 4
    rounds_pooled = 100
    trace_rounds = 50
    golden_rounds = 5

    def setup(self) -> State:
        st = super().setup()
        to_json = st.presentations.presentation_to_json
        st.texts = {n: json.dumps(to_json(p)) for n, p in st.pres.items()}
        return st

    def _conjugated(self, st: State, name: str, rng: random.Random):
        words = st.words
        label, params = _core(name, rng)
        schema = next(s for s in st.pres[name].relators if s.label == label)
        core = schema.instantiate(params)
        if len(words.free_reduce(core)) != len(core):
            return None  # the instance collapses; its parameters are not visible
        c = words.Word.from_letters(
            [self._letter(st, name, rng) for _ in range(rng.randint(0, 2))])
        w = words.concat(c, core, words.invert(c))
        return w if len(w) == 2 * len(c) + len(core) else None

    def items(self, st: State, name: str, rng: random.Random) -> list:
        words = st.words
        out = []
        while len(out) < self.per_presentation:
            w = self._conjugated(st, name, rng)
            if w is None:
                continue
            if rng.random() < 0.3:
                w2 = self._conjugated(st, name, rng)
                if w2 is not None and len(words.concat(w, w2)) == len(w) + len(w2):
                    w = words.concat(w, w2)
            # the oracle's verdict rides along; the check fails a word it calls
            # non-trivial however the search and replay went
            out.append((name, words.format_word(w), st.oracles[name](w)))
        return out

    def call(self, st: State, item):
        # `realword wp` then `realword verify`: each loads the presentation and
        # parses the word; the certificate crosses over as JSON text
        name, text, _ = item
        P = st.presentations
        p = P.presentation_from_json(json.loads(st.texts[name]))
        w = st.words.parse_word(text)
        cert = P.wp_semidecide(p, w, PROVE_FUEL)
        if cert is None:
            return None
        blob = json.dumps(cert.to_json(), indent=2)
        p2 = P.presentation_from_json(json.loads(st.texts[name]))
        w2 = st.words.parse_word(text)
        replayed = P.Certificate.from_json(json.loads(blob))
        return blob, replayed, P.verify_certificate(p2, w2, replayed)

    def check(self, st: State, item, out) -> tuple[int, list[str]]:
        name, text, trivial = item
        if out is None:
            return 1, [f"{name}\t{text}\tUNKNOWN"]
        blob, replayed, verified = out
        same = json.dumps(replayed.to_json(), indent=2) == blob
        ok = trivial and verified and same
        return (0 if ok else 1), [f"{name}\t{text}\t{'VERIFIED' if ok else 'REJECTED'}\t{blob}"]


# -- halting side --------------------------------------------------------------

class _Halting(Workload):
    def setup(self) -> State:
        m = _modules()
        progs = {n: m["programs"].ALL_PROGRAMS[n]() for n in PROGRAM_NAMES}
        return State(progs=progs, **m)

    def _decks(self, seed: int):
        """Per program, the input grid dealt without replacement and
        reshuffled when spent, so that every run covers the grid evenly.
        Each deck interleaves the halting and the other inputs so that
        every stretch of it holds the grid's share of halting inputs."""
        rng = random.Random(f"{self.name}/{seed}")
        decks = {name: [] for name in PROGRAM_NAMES}

        def shuffled(name: str) -> list:
            yes = [g for g in GRID if HALTS[name](Fraction(*g))]
            no = [g for g in GRID if not HALTS[name](Fraction(*g))]
            rng.shuffle(yes)
            rng.shuffle(no)
            total, share = len(GRID), len(yes)
            deck, taken = [], 0
            for k in range(1, total + 1):
                if (taken < (k * share + total // 2) // total and yes) or not no:
                    deck.append(yes.pop())
                    taken += 1
                else:
                    deck.append(no.pop())
            return deck[::-1]

        def deal(name: str):
            if not decks[name]:
                decks[name] = shuffled(name)
            n, d = decks[name].pop()
            return (Fraction(n, d),)

        return deal

    def _line(self, st: State, name: str, vec, rec: dict) -> tuple[int, str]:
        r = vec[0]
        halts = HALTS[name](r)
        ok = (rec["input"] == vec
              and rec["simulated"] == ("halt" if halts else "inconclusive")
              and rec["group"] == ("member" if halts else "not-within-fuel")
              and rec["agree"] and rec["conclusive"] == halts)
        fmt = st.words.format_word
        line = "\t".join((name, str(r), rec["simulated"], rec["group"],
                          str(rec["agree"]), str(rec["conclusive"]),
                          fmt(rec["query"]), fmt(rec["commutator"])))
        return (0 if ok else 1), line


class HaltingBatch(_Halting):
    """One check_reduction call per program over a batch of inputs."""

    name = "halting-batch"
    rounds_pooled = 20
    trace_rounds = 2

    def rounds(self, st: State, seed: int, count: int, batch: int = 12) -> list[list]:
        deal = self._decks(seed)
        # one round is one item: the six calls of check 8, at a smaller batch
        return [[tuple((name, [deal(name) for _ in range(batch)])
                       for name in PROGRAM_NAMES)] for _ in range(count)]

    def golden(self, st: State, seed: int) -> list:
        return self.rounds(st, seed, 1, batch=4)[0]

    def inputs(self, item) -> int:
        return sum(len(vecs) for _, vecs in item)

    def call(self, st: State, item):
        check = st.reduction.check_reduction
        return [check(st.progs[name], vecs, HALT_FUEL) for name, vecs in item]

    def check(self, st: State, item, out) -> tuple[int, list[str]]:
        bad, lines = 0, []
        for (name, vecs), report in zip(item, out):
            if len(report) != len(vecs):
                bad += len(vecs)
                continue
            for vec, rec in zip(vecs, report):
                b, line = self._line(st, name, vec, rec)
                bad += b
                lines.append(line)
        return bad, lines


class ReduceOneshot(_Halting):
    """`realword reduce`: a fresh program and one input per call."""

    name = "reduce-oneshot"
    per_program = 2
    rounds_pooled = len(GRID)  # two full passes over every program's deck
    trace_rounds = 6
    golden_rounds = 2

    def rounds(self, st: State, seed: int, count: int) -> list[list]:
        deal = self._decks(seed)
        return [[(name, deal(name)) for _ in range(self.per_program)
                 for name in PROGRAM_NAMES] for _ in range(count)]

    def call(self, st: State, item):
        name, vec = item
        prog = st.programs.ALL_PROGRAMS[name]()
        query, comm = st.reduction.reduce_halting(prog, vec)
        report = st.reduction.check_reduction(prog, [vec], HALT_FUEL)[0]
        fmt = st.words.format_word
        return report, fmt(query), fmt(comm)

    def check(self, st: State, item, out) -> tuple[int, list[str]]:
        name, vec = item
        report, query, comm = out
        bad, line = self._line(st, name, vec, report)
        fmt = st.words.format_word
        if (query, comm) != (fmt(report["query"]), fmt(report["commutator"])):
            bad = 1
        return bad, [line]


WORKLOADS = {w.name: w for w in (WpRefute(), WpProve(), HaltingBatch(), ReduceOneshot())}
