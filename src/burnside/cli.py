"""Command-line interface: catalog, lattice, marks, member, exponent,
verify-main-theorem.

Each subcommand builds one payload: ``--json`` prints it in an envelope,
and the text output is rendered from that same payload. Output is
deterministic: JSON payloads use sorted keys and the canonical class
order, so running a subcommand twice on the same input is
byte-identical. Exit codes: 0 success, 1 domain error (bad spec, cap
exceeded), memory exhausted or closed output pipe, 2 usage error, 3 when
verify-main-theorem finds at least one disagreement row, 130 on interrupt.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain
from typing import Sequence

from . import __version__
from .burnside_ring import (
    CongruenceViolation,
    GhostVector,
    dress_membership,
    marks_membership,
    table_of_marks,
)
from .catalog import build_group, parse_group_spec, standard_catalog
from .exponent import _certified, closed_form_exponent, verify_main_theorem
from .lattice import (
    DEFAULT_ENUMERATION_CAP,
    SubgroupFamily,
    SubgroupLattice,
    enumerate_subgroups,
)

ENUM_CAP_ENV = "BURNSIDE_ENUM_CAP"


def _enumeration_cap() -> int:
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{ENUM_CAP_ENV} must be positive, got {cap}")
    return cap


def _lattice_for(spec_text: str) -> SubgroupLattice:
    cap = _enumeration_cap()
    # the parser checks the order its literals name; a perm spec's order is
    # known only after its closure, which stops at the enumeration cap
    spec = parse_group_spec(spec_text, cap=cap)
    group = build_group(spec, cap=cap)
    return enumerate_subgroups(group, cap=cap)


def _emit(args: argparse.Namespace, command: str, group_spec: str | None, payload, text) -> None:
    """Print the payload: as the JSON envelope under ``--json``, else as the
    lines that ``text(payload)`` renders from it."""
    if args.json:
        import json  # imported here: only --json output needs it, not start-up

        envelope = {
            "command": command,
            "group_spec": group_spec,
            "payload": payload,
            "tool_version": __version__,
        }
        print(json.dumps(envelope, sort_keys=True, indent=2))
    else:
        for line in text(payload):
            print(line)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


# the JSON keys of a CongruenceViolation's fields, in field order, and the
# text line rendered from them
_VIOLATION_KEYS = ("u_class", "v_class", "index", "sum", "residue")
_VIOLATION_TEXT = (
    "U class {u_class}, V class {v_class}, index {index}, sum {sum}, residue {residue}"
)


def _violation(v: CongruenceViolation) -> dict:
    return dict(zip(_VIOLATION_KEYS, v))


def cmd_catalog(args: argparse.Namespace) -> int:
    payload = [
        {"spec": s.text(), "order": s.order(), "abelian": s.is_abelian()}
        for s in standard_catalog(args.max_order)
    ]

    def text(specs):
        for s in specs:
            abelian = "abelian" if s["abelian"] else "nonabelian"
            yield f"{s['spec']:<16} order {s['order']:>4}  {abelian}"

    _emit(args, "catalog", None, payload, text)
    return 0


def cmd_lattice(args: argparse.Namespace) -> int:
    lattice = _lattice_for(args.group)
    rows = [
        {
            "index": c.class_index,
            "order": c.order,
            "size": len(c.members),
            "normal": c.is_normal,
            "cyclic": c.is_cyclic,
            "elementary_abelian": c.is_elementary_abelian,
        }
        for c in lattice.classes
    ]

    def text(p):
        subgroups = sum(r["size"] for r in p["classes"])
        yield f"{p['group']}: {subgroups} subgroups in {len(p['classes'])} classes"
        for r in p["classes"]:
            yield (
                f"class {r['index']:>3}: order {r['order']:>4}, size {r['size']:>3}, "
                f"normal={_yes(r['normal'])}, cyclic={_yes(r['cyclic'])}, "
                f"elementary-abelian={_yes(r['elementary_abelian'])}"
            )

    _emit(args, "lattice", args.group, {"group": lattice.group.name, "classes": rows}, text)
    return 0


def cmd_marks(args: argparse.Namespace) -> int:
    lattice = _lattice_for(args.group)
    payload = {
        "group": lattice.group.name,
        "class_orders": [c.order for c in lattice.classes],
        "matrix": table_of_marks(lattice).entries,
    }

    def text(p):
        # each distinct mark is formatted once, padded to the widest
        cell = {v: str(v) for v in set(chain.from_iterable(p["matrix"]))}
        width = max(map(len, cell.values()))
        cell = {v: s.rjust(width) for v, s in cell.items()}
        for row in p["matrix"]:
            yield " ".join(map(cell.__getitem__, row))

    _emit(args, "marks", args.group, payload, text)
    return 0


def _parse_vector(text: str, lattice: SubgroupLattice) -> GhostVector:
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"vector must be comma-separated integers, got {text!r}") from None
    return GhostVector(lattice, values)


def cmd_member(args: argparse.Namespace) -> int:
    lattice = _lattice_for(args.group)
    vector = _parse_vector(args.vector, lattice)
    certificate = dress_membership(lattice, vector)
    is_member, coefficients = marks_membership(lattice, vector)
    violations = certificate.violations
    payload = {
        "vector": list(vector.values),
        "dress": {
            "holds": certificate.holds,
            "first_violation": _violation(violations[0]) if violations else None,
        },
        "marks": {"is_member": is_member, "coefficients": [str(c) for c in coefficients]},
        "agree": certificate.holds == is_member,
    }

    def text(p):
        verdict = {True: "member", False: "not a member"}
        yield f"vector: {','.join(map(str, p['vector']))}"
        yield f"congruence test: {verdict[p['dress']['holds']]}"
        yield f"marks test: {verdict[p['marks']['is_member']]}"
        yield "coefficients: " + ", ".join(p["marks"]["coefficients"])
        if p["dress"]["first_violation"] is not None:
            first = _VIOLATION_TEXT.format(**p["dress"]["first_violation"])
            yield f"first violated congruence: {first}"

    _emit(args, "member", args.group, payload, text)
    return 0


def cmd_exponent(args: argparse.Namespace) -> int:
    lattice = _lattice_for(args.group)
    family = SubgroupFamily(args.family)
    result, witnesses = _certified(lattice, family)
    closed = None
    if family is SubgroupFamily.ELEMENTARY_ABELIAN:
        try:
            value, case = closed_form_exponent(lattice.group)
            closed = {"value": value, "case": case, "agrees": value == result.exponent}
        except ValueError:
            pass
    payload = {
        "family": args.family,
        "exponent": result.exponent,
        "method": result.method,
        "family_classes": sorted(result.family_classes),
        "closed_form": closed,
    }
    if args.certify:
        payload["certificate"] = [
            {"divisor": w.divisor, "violation": _violation(w.violation)}
            for w in witnesses
        ]

    def text(p):
        yield f"group: {lattice.group.name}"
        yield f"family: {p['family']}"
        yield f"e = {p['exponent']}"
        if p["closed_form"] is not None:
            c = p["closed_form"]
            yield f"closed form: {c['value']} (case {c['case']}), agrees: {_yes(c['agrees'])}"
        for w in p.get("certificate", ()):
            yield f"d = {w['divisor']}: violates {_VIOLATION_TEXT.format(**w['violation'])}"

    _emit(args, "exponent", args.group, payload, text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_main_theorem(args.max_order, enumeration_cap=_enumeration_cap())
    payload = {
        "max_order": report.max_order,
        "all_agree": report.all_agree,
        "rows": [{**r._asdict(), "agree": r.agree} for r in report.rows],
    }

    def text(p):
        yield f"{'group':<16} {'order':>5} {'brute':>6} {'closed':>6} {'case':>4} agree"
        for r in p["rows"]:
            yield (
                f"{r['spec']:<16} {r['order']:>5} {r['brute_force']:>6} {r['closed_form']:>6} "
                f"{r['case']:>4} {'yes' if r['agree'] else 'NO'}"
            )
        bad = sum(not r["agree"] for r in p["rows"])
        yield f"disagreements: {bad}" if bad else "all rows agree"

    _emit(args, "verify-main-theorem", None, payload, text)
    return 3 if report.disagreements() else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burnside",
        description=(
            "Burnside rings of finite groups: subgroup lattices, tables of "
            "marks, membership tests, and Artin exponents."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the built-in catalog groups")
    p.add_argument("--max-order", type=int, default=64)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("lattice", help="subgroup class census of a group")
    p.add_argument("group", help="group spec, e.g. C(2^3), Q8, C4xC2, perm:<file>")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("marks", help="table of marks in canonical class order")
    p.add_argument("group")
    p.set_defaults(func=cmd_marks)

    p = sub.add_parser("member", help="test a ghost vector for membership")
    p.add_argument("group")
    p.add_argument("--vector", required=True, help="comma-separated integers, one per class")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("exponent", help="Artin exponent for a subgroup family")
    p.add_argument("group")
    p.add_argument("--family", choices=sorted(f.value for f in SubgroupFamily), default="ea")
    p.add_argument("--certify", action="store_true", help="print per-divisor violations")
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser(
        "verify-main-theorem",
        help="compare brute-force exponents against the closed forms over the catalog",
    )
    p.add_argument("--max-order", type=int, default=16)
    p.set_defaults(func=cmd_verify)

    # added last, so every subcommand's usage ends in [--json]
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # the frames that held the memory are unwound, so printing can work
        print("error: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    """Console entry point. A closed output pipe (``burnside ... | head``)
    exits 1 and an interrupt exits 130, both without a traceback."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # Interpreter shutdown flushes stdout again; point it at /dev/null
        # so that flush cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    except KeyboardInterrupt:
        code = 130
    sys.exit(code)


if __name__ == "__main__":
    main()
