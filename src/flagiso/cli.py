"""Command-line front end.

Descriptors are quoted strings in the grammar ``gen: <order>``,
``orth: half=<order>; middle=<empty|d|inf>``, ``symp: ...`` with orders built
from ``seq[d1,d2,...]``, ``omega(d)``, ``omegastar(d)`` joined by ``+``.
Finite varieties are ``TYPE:AMBIENT:d1,d2,...`` literals or the
``--type/--ambient/--dims`` flags.  ``--json`` switches any subcommand to a
stable JSON object on stdout.

Exit codes: 0 success (including a NotIsomorphic verdict), 1 validation or
syntax error, 2 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys

from . import generate as G
from . import selftest as st
from . import witness as W
from .counting import brute_force_count, dimension, point_count, poincare_polynomial
from .decide import decide_finite, decide_ind
from .descriptors import (
    FiniteFlagVariety,
    descriptor_to_json,
    dual,
    finite_flag_variety,
    is_self_dual,
    parse_descriptor,
    pic_rank,
    render_descriptor,
    truncate_to_variety,
)
from .errors import ResourceLimitError, ValidationError
from .linalg import QQ, PrimeField
from .orders import INF, normalize, parse_order, render_order


def integer(text: str) -> int:
    """An ASCII decimal integer (``int`` alone also reads digits such as ``٣``)."""
    if not re.fullmatch(r"-?[0-9]+", text.strip()):
        raise ValidationError(f"{text!r} is not an integer")
    try:
        return int(text)
    except ValueError:  # beyond sys.get_int_max_str_digits()
        raise ValidationError(f"integer has too many digits ({len(text.strip())})") from None


def integer_list(text: str) -> list:
    return [integer(x) for x in text.split(",") if x.strip()]


def _parse_variety(text: str) -> FiniteFlagVariety:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(
            f"finite variety literal must look like A:6:1,3 (got {text!r})"
        )
    t, ambient, dims = parts
    return finite_flag_variety(t.strip().upper(), integer(ambient), integer_list(dims))


def _variety_from_flags(args) -> FiniteFlagVariety:
    return finite_flag_variety(args.type.upper(), args.ambient, integer_list(args.dims))


def _variety_json(v: FiniteFlagVariety) -> dict:
    return {"lie_type": v.lie_type, "ambient": v.ambient_dim, "dims": list(v.dims)}


def _pic_value(value):
    return "inf" if value is INF else value


def _emit(args, payload: dict, text: str) -> int:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)
    return 0


def _cmd_decide(args) -> int:
    x = parse_descriptor(args.left)
    y = parse_descriptor(args.right)
    swapped = render_descriptor(x) > render_descriptor(y)
    if swapped:
        x, y = y, x
    res = decide_ind(x, y)
    payload = {
        "command": "decide",
        "left": render_descriptor(x),
        "right": render_descriptor(y),
        "swapped": swapped,
        **res.to_json(),
    }
    text = f"{res.verdict.value} ({res.reason.value}): {res.detail}"
    return _emit(args, payload, text)


def _cmd_decide_finite(args) -> int:
    x = _parse_variety(args.left)
    y = _parse_variety(args.right)
    swapped = repr(x) > repr(y)
    if swapped:
        x, y = y, x
    res = decide_finite(x, y)
    payload = {
        "command": "decide-finite",
        "left": _variety_json(x),
        "right": _variety_json(y),
        "swapped": swapped,
        **res.to_json(),
    }
    text = f"{res.verdict.value} ({res.reason.value}): {res.detail}"
    return _emit(args, payload, text)


def _cmd_normalize(args) -> int:
    result = render_order(normalize(parse_order(args.order)))
    return _emit(
        args,
        {"command": "normalize", "input": args.order.strip(), "normal_form": result},
        result,
    )


def _cmd_dual(args) -> int:
    d = parse_descriptor(args.descriptor)
    out = dual(d)
    note = "self-dual; unchanged" if is_self_dual(d) else ""
    payload = {
        "command": "dual",
        "input": render_descriptor(d),
        "dual": render_descriptor(out),
        "self_dual": is_self_dual(d),
        "descriptor": descriptor_to_json(out),
    }
    text = render_descriptor(out) + (f"  ({note})" if note else "")
    return _emit(args, payload, text)


def _cmd_points(args) -> int:
    v = _variety_from_flags(args)
    if args.brute_force:
        count = brute_force_count(v, args.q)
    else:
        count = point_count(v, args.q)
    payload = {
        "command": "points",
        "variety": _variety_json(v),
        "q": args.q,
        "count": count,
        "brute_force": bool(args.brute_force),
    }
    return _emit(args, payload, str(count))


def _cmd_poincare(args) -> int:
    v = _variety_from_flags(args)
    poly = poincare_polynomial(v)
    payload = {
        "command": "poincare",
        "variety": _variety_json(v),
        "coefficients": list(poly.coefficients),
        "polynomial": poly.render(),
    }
    return _emit(args, payload, poly.render())


def _cmd_dim(args) -> int:
    v = _variety_from_flags(args)
    value = dimension(v)
    payload = {"command": "dim", "variety": _variety_json(v), "dimension": value}
    return _emit(args, payload, str(value))


def _cmd_pic_rank(args) -> int:
    d = parse_descriptor(args.descriptor)
    value = pic_rank(d)
    payload = {
        "command": "pic-rank",
        "descriptor": render_descriptor(d),
        "pic_rank": _pic_value(value),
    }
    return _emit(args, payload, str(_pic_value(value)))


def _cmd_truncate(args) -> int:
    d = parse_descriptor(args.descriptor)
    v = truncate_to_variety(d, args.width)
    payload = {
        "command": "truncate",
        "descriptor": render_descriptor(d),
        "width": args.width,
        "variety": _variety_json(v),
    }
    text = f"{v.lie_type}:{v.ambient_dim}:{','.join(map(str, v.dims))}"
    return _emit(args, payload, text)


def _field_from_args(args):
    if args.prime is None:
        return QQ
    return PrimeField(args.prime)


def _cmd_witness_rebase(args) -> int:
    rng = random.Random(args.seed)
    field = _field_from_args(args)
    chain, e, e2, form = G.random_rebase_instance(rng, field, isotropic=args.isotropic)
    transcript = []
    try:
        alpha = W.rebase_automorphism(chain, e, e2, form)
        transcript.append(W.transcript_entry("construction-and-verification", True))
        ok = True
    except W.WitnessError as exc:
        transcript.append(W.transcript_entry("construction-and-verification", False, str(exc)))
        alpha = None
        ok = False
    payload = {
        "command": "witness-rebase",
        "seed": args.seed,
        "field": W.field_to_json(field),
        "isotropic": bool(args.isotropic),
        "chain": W.point_to_json(chain),
        "basis_e": W.matrix_to_json(e),
        "basis_e2": W.matrix_to_json(e2),
        "automorphism": None if alpha is None else W.matrix_to_json(alpha),
        "transcript": transcript,
        "ok": ok,
    }
    if form is not None:
        payload["form"] = W.matrix_to_json(form)
    text = (
        "rebase automorphism constructed and verified "
        f"(ambient {chain.ambient_dim}, {'isotropic' if args.isotropic else 'general'}, "
        f"field {W.field_to_json(field)})"
        if ok
        else "rebase failed: " + transcript[-1]["detail"]
    )
    if not args.json:
        print(text)
        return 0 if ok else 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if ok else 1


def _cmd_witness_bd(args) -> int:
    n = args.n
    field = PrimeField((2 if args.all else 5) if args.prime is None else args.prime)
    transcript = []
    if args.all:
        sample = list(W.enumerate_bd_sources(n, field))
        sample_kind = f"all {len(sample)} isotropic subspaces"
    else:
        rng = random.Random(args.seed)
        sample = [W.random_bd_source(rng, n, field) for _ in range(args.samples)]
        sample_kind = f"{len(sample)} seeded random subspaces"
    # members are canonical row spaces, so equal subspaces have equal tuples
    sources = {m.subspaces for m in sample}
    images = {W.bd_phi(n, m).subspaces for m in sample}
    detail = f"{len(images)} distinct Lagrangians from {len(sample)} sources"
    if len(sources) != len(sample):
        detail += f" ({len(sources)} distinct)"
    transcript.append(
        W.transcript_entry("lagrangian-lift", len(images) == len(sources), detail)
    )
    square = W.bd_square_check(n, sample)
    transcript.append(
        W.transcript_entry(
            "exhaustion-square",
            square.ok,
            f"{square.checked} squares checked, {len(square.failures)} failures",
        )
    )
    ok = all(t["pass"] for t in transcript)
    payload = {
        "command": "witness-bd",
        "n": n,
        "field": W.field_to_json(field),
        "sample": sample_kind,
        "sources": len(sample),
        "distinct_images": len(images),
        "square_failures": len(square.failures),
        "transcript": transcript,
        "ok": ok,
    }
    text = (
        f"n={n} over {W.field_to_json(field)}: {sample_kind}; "
        f"{len(images)} distinct Lagrangian lifts; exhaustion square "
        f"{'commutes' if square.ok else 'FAILS'} on {square.checked} points"
    )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)
    return 0 if ok else 1


def _cmd_selftest(args) -> int:
    results = st.run_all(args.only)
    lock_ok, lock_detail = True, "skipped"
    if not args.skip_lockfile:
        lock_ok, lock_detail = st.check_lockfile(args.lockfile)
    if args.json:
        payload = {
            "command": "selftest",
            "criteria": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "seconds": round(r.seconds, 3),
                    "limit": r.limit,
                    "detail": r.detail,
                }
                for r in results
            ],
            "lockfile": {"ok": lock_ok, "detail": lock_detail},
            "ok": all(r.passed for r in results) and lock_ok,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in results:
            print(r.line())
        print(("[PASS] " if lock_ok else "[FAIL] ") + "derived-value lockfile: " + lock_detail)
        total = sum(r.passed for r in results)
        print(f"{total}/{len(results)} criteria passed")
    return 0 if all(r.passed for r in results) and lock_ok else 1


def _add_variety_flags(sub):
    sub.add_argument("--type", required=True, choices=["A", "B", "C", "D", "a", "b", "c", "d"])
    sub.add_argument("--ambient", required=True, type=integer)
    sub.add_argument("--dims", required=True, help="comma-separated, e.g. 1,3")


class _Parser(argparse.ArgumentParser):
    # keep exit code 2 reserved for resource bounds
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flagiso",
        description="Isomorphism decisions, point counts, and witnesses for "
        "flag varieties and ind-varieties of generalized flags.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON object")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", parents=[common], help="decide isomorphism of two ind-variety descriptors")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("decide-finite", parents=[common], help="decide isomorphism of two finite flag varieties")
    p.add_argument("left", help="e.g. A:6:1,3")
    p.add_argument("right", help="e.g. A:6:3,5")
    p.set_defaults(fn=_cmd_decide_finite)

    p = sub.add_parser("normalize", parents=[common], help="normal form of an order expression")
    p.add_argument("order")
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("dual", parents=[common], help="dual of a descriptor")
    p.add_argument("descriptor")
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("points", parents=[common], help="number of F_q points of a finite flag variety")
    _add_variety_flags(p)
    p.add_argument("--q", required=True, type=integer)
    p.add_argument("--brute-force", action="store_true", help="use the enumeration oracle")
    p.set_defaults(fn=_cmd_points)

    p = sub.add_parser("poincare", parents=[common], help="Poincare polynomial of a finite flag variety")
    _add_variety_flags(p)
    p.set_defaults(fn=_cmd_poincare)

    p = sub.add_parser("dim", parents=[common], help="dimension of a finite flag variety")
    _add_variety_flags(p)
    p.set_defaults(fn=_cmd_dim)

    p = sub.add_parser("pic-rank", parents=[common], help="Picard rank of a descriptor")
    p.add_argument("descriptor")
    p.set_defaults(fn=_cmd_pic_rank)

    p = sub.add_parser("truncate", parents=[common], help="finite flag variety sampled at a width")
    p.add_argument("descriptor")
    p.add_argument("--width", required=True, type=integer)
    p.set_defaults(fn=_cmd_truncate)

    p = sub.add_parser(
        "witness-rebase",
        parents=[common],
        help="construct and verify a chain-stabilizing base change on a seeded instance",
    )
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--prime", type=integer, default=None, help="work over F_p instead of Q")
    p.add_argument("--isotropic", action="store_true")
    p.set_defaults(fn=_cmd_witness_rebase)

    p = sub.add_parser(
        "witness-bd",
        parents=[common],
        help="run the odd/even maximal orthogonal isomorphism and its exhaustion square",
    )
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--prime", type=integer, default=None)
    p.add_argument("--all", action="store_true", help="exhaust every source point")
    p.add_argument("--samples", type=integer, default=25)
    p.add_argument("--seed", type=integer, default=0)
    p.set_defaults(fn=_cmd_witness_bd)

    p = sub.add_parser("selftest", parents=[common], help="run the acceptance suite")
    p.add_argument("--lockfile", default="derived_values.json")
    p.add_argument("--skip-lockfile", action="store_true")
    p.add_argument(
        "--only", type=integer_list, default=[], help="comma-separated criterion numbers"
    )
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the interpreter's
        # final flush does not fail again (the pattern of the signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ResourceLimitError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
