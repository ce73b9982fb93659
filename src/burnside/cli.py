"""Command-line interface: catalog, lattice, marks, member, exponent,
verify-main-theorem.

Output is deterministic: JSON payloads use sorted keys and the canonical
class order, so running a subcommand twice on the same input is
byte-identical. Exit codes: 0 success, 1 domain error (bad spec, cap
exceeded), memory exhausted or closed output pipe, 2 usage error, 3 when
verify-main-theorem finds at least one disagreement row, 130 on interrupt.
"""

from __future__ import annotations

import argparse
import os
import sys
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
from .exponent import (
    artin_exponent,
    closed_form_exponent,
    divisor_witnesses,
    verify_main_theorem,
)
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


def _emit_json(command: str, group_spec: str | None, payload) -> None:
    import json  # imported here: only --json output needs it, not start-up

    envelope = {
        "command": command,
        "group_spec": group_spec,
        "payload": payload,
        "tool_version": __version__,
    }
    print(json.dumps(envelope, sort_keys=True, indent=2))


def _violation_payload(v: CongruenceViolation) -> dict:
    return {
        "u_class": v.u_class,
        "v_class": v.v_class,
        "index": v.index,
        "sum": v.lhs_sum,
        "residue": v.residue,
    }


def _violation_text(v: CongruenceViolation) -> str:
    return (
        f"U class {v.u_class}, V class {v.v_class}, index {v.index}, "
        f"sum {v.lhs_sum}, residue {v.residue}"
    )


def cmd_catalog(args: argparse.Namespace) -> int:
    specs = standard_catalog(args.max_order)
    if args.json:
        payload = [
            {
                "spec": s.text(),
                "order": s.order(),
                "abelian": s.is_abelian(),
            }
            for s in specs
        ]
        _emit_json("catalog", None, payload)
    else:
        for s in specs:
            abelian = "abelian" if s.is_abelian() else "nonabelian"
            print(f"{s.text():<16} order {s.order():>4}  {abelian}")
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
    if args.json:
        _emit_json("lattice", args.group, {"group": lattice.group.name, "classes": rows})
    else:
        print(
            f"{lattice.group.name}: {len(lattice.all_subgroups)} subgroups "
            f"in {lattice.class_count} classes"
        )
        for r in rows:
            print(
                f"class {r['index']:>3}: order {r['order']:>4}, size {r['size']:>3}, "
                f"normal={'yes' if r['normal'] else 'no'}, "
                f"cyclic={'yes' if r['cyclic'] else 'no'}, "
                f"elementary-abelian={'yes' if r['elementary_abelian'] else 'no'}"
            )
    return 0


def cmd_marks(args: argparse.Namespace) -> int:
    lattice = _lattice_for(args.group)
    entries = table_of_marks(lattice).entries
    if args.json:
        payload = {
            "group": lattice.group.name,
            "class_orders": [c.order for c in lattice.classes],
            "matrix": [list(row) for row in entries],
        }
        _emit_json("marks", args.group, payload)
    else:
        width = max(len(str(v)) for row in entries for v in row)
        for row in entries:
            print(" ".join(f"{v:>{width}}" for v in row))
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
    first = certificate.violations[0] if certificate.violations else None
    if args.json:
        payload = {
            "vector": list(vector.values),
            "dress": {
                "holds": certificate.holds,
                "first_violation": None if first is None else _violation_payload(first),
            },
            "marks": {
                "is_member": is_member,
                "coefficients": [str(c) for c in coefficients],
            },
            "agree": certificate.holds == is_member,
        }
        _emit_json("member", args.group, payload)
    else:
        print(f"vector: {','.join(str(v) for v in vector.values)}")
        verdict = "member" if certificate.holds else "not a member"
        print(f"congruence test: {verdict}")
        print(f"marks test: {'member' if is_member else 'not a member'}")
        print("coefficients: " + ", ".join(str(c) for c in coefficients))
        if first is not None:
            print(f"first violated congruence: {_violation_text(first)}")
    return 0


def cmd_exponent(args: argparse.Namespace) -> int:
    lattice = _lattice_for(args.group)
    family = SubgroupFamily(args.family)
    result = artin_exponent(lattice, family)
    group = lattice.group
    closed: tuple[int, str] | None
    try:
        closed = closed_form_exponent(group)
    except ValueError:
        closed = None
    show_closed = closed is not None and family is SubgroupFamily.ELEMENTARY_ABELIAN
    if args.json:
        payload = {
            "family": args.family,
            "exponent": result.exponent,
            "method": result.method,
            "family_classes": sorted(result.family_classes),
            "closed_form": (
                {
                    "value": closed[0],
                    "case": closed[1],
                    "agrees": closed[0] == result.exponent,
                }
                if show_closed
                else None
            ),
        }
        if args.certify:
            payload["certificate"] = [
                {"divisor": w.divisor, "violation": _violation_payload(w.violation)}
                for w in divisor_witnesses(lattice, result)
            ]
        _emit_json("exponent", args.group, payload)
    else:
        print(f"group: {group.name}")
        print(f"family: {args.family}")
        print(f"e = {result.exponent}")
        if show_closed:
            agrees = "yes" if closed[0] == result.exponent else "no"
            print(f"closed form: {closed[0]} (case {closed[1]}), agrees: {agrees}")
        if args.certify:
            for w in divisor_witnesses(lattice, result):
                print(f"d = {w.divisor}: violates {_violation_text(w.violation)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_main_theorem(args.max_order, enumeration_cap=_enumeration_cap())
    if args.json:
        payload = {
            "max_order": report.max_order,
            "all_agree": report.all_agree,
            "rows": [
                {
                    "spec": r.spec,
                    "order": r.order,
                    "brute_force": r.brute_force,
                    "closed_form": r.closed_form,
                    "case": r.case,
                    "agree": r.agree,
                }
                for r in report.rows
            ],
        }
        _emit_json("verify-main-theorem", None, payload)
    else:
        print(f"{'group':<16} {'order':>5} {'brute':>6} {'closed':>6} {'case':>4} agree")
        for r in report.rows:
            print(
                f"{r.spec:<16} {r.order:>5} {r.brute_force:>6} {r.closed_form:>6} "
                f"{r.case:>4} {'yes' if r.agree else 'NO'}"
            )
        bad = report.disagreements()
        if bad:
            print(f"disagreements: {len(bad)}")
        else:
            print("all rows agree")
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
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("lattice", help="subgroup class census of a group")
    p.add_argument("group", help="group spec, e.g. C(2^3), Q8, C4xC2, perm:<file>")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("marks", help="table of marks in canonical class order")
    p.add_argument("group")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_marks)

    p = sub.add_parser("member", help="test a ghost vector for membership")
    p.add_argument("group")
    p.add_argument("--vector", required=True, help="comma-separated integers, one per class")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("exponent", help="Artin exponent for a subgroup family")
    p.add_argument("group")
    p.add_argument("--family", choices=sorted(f.value for f in SubgroupFamily), default="ea")
    p.add_argument("--certify", action="store_true", help="print per-divisor violations")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser(
        "verify-main-theorem",
        help="compare brute-force exponents against the closed forms over the catalog",
    )
    p.add_argument("--max-order", type=int, default=16)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

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
