"""Command-line front end.

Subcommands: run, paths, wp, verify, hnn-reduce, reduce, figure1, examples,
selftest.  Exit codes: 0 on success or agreement, 1 on disagreement, failed
verification or an unproved word, 2 on usage errors.  All randomized
behavior derives from --seed, and fixed (inputs, seed, fuel) give
byte-identical reports; on the subcommands that print records (run,
paths, hnn-reduce, reduce, figure1, examples) --format jsonl emits them
line-delimited for diffing in CI.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .britton import bs12_structure, britton_reduce, halfline_structure, hnn_is_identity
from .machine import parse_program, run
from .presentations import (Certificate, presentation_from_json, verify_certificate,
                            wp_semidecide)
from .programs import ALL_PROGRAMS
from .rationals import format_vec, parse_vec
from .reduction import build_W, check_reduction
from .sample_groups import BUILTIN_PRESENTATIONS, ORACLES
from .selftest import ALL_CHECKS, positive_sample, row_cases, row_holds
from .slp import PathEnumerator
from .words import format_word, parse_word


def _load_program(spec: str):
    if spec in ALL_PROGRAMS:
        return ALL_PROGRAMS[spec]()
    with open(spec) as fh:
        return parse_program(fh.read())


MAX_JSON_DEPTH = 200  # lists and objects nested in a presentation or certificate file

# decimal digits of one integer the CLI reads or prints, in place of
# CPython's 4,300: a run's `mul` or `div` result of `machine.MAX_BITS` bits
# has up to 30,103 digits, and the rest leaves room for about 33,000 `add`
# steps past such a value.  Decimal conversion is quadratic, and 40,000
# digits convert in a few hundredths of a second.
MAX_DIGITS = 40_000


def _json_depth(doc) -> int:
    """How deeply lists and objects nest in a parsed JSON document."""
    deepest = 0
    stack = [(doc, 1)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, dict):
            node = node.values()
        elif not isinstance(node, list):
            continue
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in node)
    return deepest


def _load_json(path: str, convert):
    """`convert` applied to the JSON document in file `path`.

    Nesting deeper than `MAX_JSON_DEPTH`, or too deep for the parser or for
    `convert`, is a usage error.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
            if _json_depth(doc) <= MAX_JSON_DEPTH:
                return convert(doc)
        except RecursionError:
            pass
    raise ValueError(f"{path}: JSON nested too deeply")


def _load_presentation_arg(spec: str):
    if spec in BUILTIN_PRESENTATIONS:
        return BUILTIN_PRESENTATIONS[spec]()
    return _load_json(spec, presentation_from_json)


def _fuel(text: str) -> int:
    """argparse type of every --fuel and count option: a natural number."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def _emit(records, fmt: str):
    if fmt == "jsonl":
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
    else:
        for rec in records:
            print("  ".join(f"{k}={v}" for k, v in rec.items()))


def cmd_run(args) -> int:
    prog = _load_program(args.program)
    vec = parse_vec(args.input)
    res = run(prog, vec, args.fuel)
    rec = {"status": res.status, "steps": res.steps}
    if res.output is not None:
        rec["output"] = format_vec(res.trimmed_output)
    _emit([rec], args.format)
    return 0


def cmd_paths(args) -> int:
    prog = _load_program(args.program)
    en = PathEnumerator(prog)
    records = []
    n = 0
    while len(records) < args.count and n <= args.max_index:
        path = en.path(n)
        if path is not None:
            records.append({"index": n, "d": path.d, "D": path.D,
                            "guards": path.guard_string,
                            "ops": " ".join(op[0] for op in path.ops)})
        n += 1
    _emit(records, args.format)
    return 0


def cmd_wp(args) -> int:
    p = _load_presentation_arg(args.presentation)
    w = parse_word(args.word)
    cert = wp_semidecide(p, w, args.fuel)
    if cert is None:
        print("UNKNOWN")
        return 1
    with open(args.cert_out, "w") as fh:
        json.dump(cert.to_json(), fh, indent=2)
    print(f"PROVED n={len(cert.entries)} certificate={args.cert_out}")
    return 0


def cmd_verify(args) -> int:
    p = _load_presentation_arg(args.presentation)
    w = parse_word(args.word)
    cert = _load_json(args.cert, Certificate.from_json)
    ok = verify_certificate(p, w, cert)
    print("VERIFIED" if ok else "REJECTED")
    return 0 if ok else 1


_STRUCTURES = {"bs12": bs12_structure, "halfline": halfline_structure}


def cmd_hnn_reduce(args) -> int:
    h = _STRUCTURES[args.structure]()
    w = parse_word(args.word)
    reduced = britton_reduce(h, w)
    identity = hnn_is_identity(h, reduced)  # a reduced word has no pinch left
    _emit([{"reduced": format_word(reduced), "identity": identity}], args.format)
    return 0


def cmd_reduce(args) -> int:
    prog = _load_program(args.program)
    vec = parse_vec(args.input)
    report = check_reduction(prog, [vec], args.fuel)[0]
    _emit([{"query": format_word(report["query"]),
            "commutator": format_word(report["commutator"]),
            "simulated": report["simulated"],
            "group": report["group"],
            "agree": report["agree"]}], args.format)
    return 0 if report["agree"] else 1


def cmd_figure1(args) -> int:
    rng = random.Random(args.seed)
    kinds = {"copy": "copy", "const": "assign", "add": "add", "neg": "neg",
             "mul": "mul", "inv": "inv", "geq": "geq", "lt": "lt"}
    if args.row not in kinds:
        print(f"unknown row {args.row!r}; choose from {sorted(kinds)}", file=sys.stderr)
        return 2
    kind = kinds[args.row]
    bad = 0
    done = 0
    while done < args.samples:
        D, cases = row_cases(rng)
        op = next(c for c in cases if c[0] == kind)
        spec = build_W(op, 0, D)
        vec = positive_sample(spec, rng)
        done += 1
        if not row_holds(spec, vec):
            bad += 1
    _emit([{"row": args.row, "samples": done, "failures": bad}], args.format)
    return 0 if bad == 0 else 1


def cmd_examples(args) -> int:
    oracle = ORACLES[args.group]
    w = parse_word(args.word)
    verdict = oracle(w)
    _emit([{"group": args.group, "word": format_word(w), "identity": verdict}],
          args.format)
    return 0


def cmd_selftest(args) -> int:
    checks = ALL_CHECKS
    if args.only:
        checks = [c for c in ALL_CHECKS if args.only in c.__name__]
        if not checks:
            print(f"no check matches {args.only!r}", file=sys.stderr)
            return 2
    ok = True
    for check in checks:
        result = check(args.seed)
        ok = ok and result.passed
        print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="realword", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "jsonl"), default="text")

    p = sub.add_parser("run", help="simulate a machine program")
    p.add_argument("program", help="assembly file or builtin name")
    p.add_argument("--input", default="", help="comma-separated rationals")
    p.add_argument("--fuel", type=_fuel, default=1000)
    common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("paths", help="enumerate straight-line halting paths")
    p.add_argument("program")
    p.add_argument("--count", type=_fuel, default=20)
    p.add_argument("--max-index", type=_fuel, default=100_000)
    common(p)
    p.set_defaults(fn=cmd_paths)

    p = sub.add_parser("wp", help="search a triviality certificate")
    p.add_argument("presentation", help="JSON file or builtin name")
    p.add_argument("--word", required=True)
    p.add_argument("--fuel", type=_fuel, default=100_000)
    p.add_argument("--cert-out", default="certificate.json")
    p.set_defaults(fn=cmd_wp)

    p = sub.add_parser("verify", help="replay a certificate")
    p.add_argument("presentation")
    p.add_argument("--word", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("hnn-reduce", help="pinch-eliminate in a builtin extension")
    p.add_argument("--structure", choices=sorted(_STRUCTURES), default="bs12")
    p.add_argument("--word", required=True)
    common(p)
    p.set_defaults(fn=cmd_hnn_reduce)

    p = sub.add_parser("reduce", help="halting query vs group membership")
    p.add_argument("program")
    p.add_argument("--input", default="")
    p.add_argument("--fuel", type=_fuel, default=10_000)
    common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("figure1", help="operation-table coherence suite")
    p.add_argument("--row", required=True)
    p.add_argument("--samples", type=_fuel, default=100)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_figure1)

    p = sub.add_parser("examples", help="query a builtin group oracle")
    p.add_argument("group", choices=sorted(ORACLES))
    p.add_argument("--word", required=True)
    common(p)
    p.set_defaults(fn=cmd_examples)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--only", help="substring of a single check to run")
    p.set_defaults(fn=cmd_selftest)

    return ap


def _join_input(argv: list[str]) -> list[str]:
    """Rewrite `--input <value>` as `--input=<value>`.

    argparse takes a separate value such as `-1,2` or `-2/3` for an option
    and rejects it; the joined form passes any value through.
    """
    out: list[str] = []
    k = 0
    while k < len(argv):
        if argv[k] == "--input" and k + 1 < len(argv):
            out.append("--input=" + argv[k + 1])
            k += 2
        else:
            out.append(argv[k])
            k += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_join_input(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # a literal over the bound is a usage error with CPython's message, which
    # names the bound; the caller's own limit comes back on return
    limit = None
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
