"""Command-line front end.

Each invocation is one query: a verb plus expression arguments.  Output is
canonical text by default, or a flat JSON record under --json so that
downstream tools never need an expression parser.  All numeric I/O is exact;
no decimal forms are accepted or produced.

Exit codes: 0 success, 1 failed oracle check, 2 bad usage or expression
syntax/validation error, 3 domain error (zero object where a generator is
needed, twist outside the oracle's cyclic subgroup, and the like).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .bundles import BundleObject, Indecomposable, hom_dim
from .expr import ParseError, parse_object, print_canonical
from .jordan import ProductObject, phi_transport, product_tensor
from .kring import closed_form_S, krull_dim_class, summand_closure, tannakian_label
from .picard import LineBundleClass

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3

_VERBS = {
    "normalize": (1, "canonical normal form of an expression"),
    "tensor": (2, "tensor product of two objects"),
    "dual": (1, "dual object"),
    "rank": (1, "total rank"),
    "det": (1, "determinant line bundle class"),
    "hom": (2, "dimension of the Hom space"),
    "gamma": (1, "dimension of the space of global sections"),
    "jh": (1, "Jordan-Holder factors (semisimplification)"),
    "classify": (1, "finite / semifinite / unipotent flags"),
    "summands": (1, "indecomposable summands of tensor powers"),
    "closedform": (1, "closed form of the summand closure, if known"),
    "group": (1, "Tannakian group label of a single indecomposable"),
    "ringdim": (1, "Krull dimension class of the generated subring"),
    "oracle-check": (2, "compare the tensor against the linear-algebra oracle"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a structured JSON record")
    common.add_argument("--file", metavar="PATH", help="read expressions from PATH, one per line")
    common.add_argument(
        "--max-power", type=int, default=8, metavar="N",
        help="tensor power cutoff for summand enumeration (default 8)",
    )
    common.add_argument(
        "--modulus", type=int, metavar="M",
        help="torsion order for the oracle-check transport",
    )
    parser = argparse.ArgumentParser(
        prog="ellbundle",
        description="Exact calculator for degree-0 vector bundles on an elliptic curve.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    for verb, (_, help_text) in _VERBS.items():
        verb_parser = sub.add_parser(verb, parents=[common], help=help_text)
        verb_parser.add_argument("exprs", nargs="*", metavar="EXPR")
    return parser


def _collect_expressions(args: argparse.Namespace) -> list[str]:
    arity, _ = _VERBS[args.verb]
    if args.file is not None:
        if args.exprs:
            raise _UsageError("give expressions either as arguments or via --file, not both")
        with open(args.file, encoding="utf-8") as handle:
            texts = [line.strip() for line in handle]
        texts = [line for line in texts if line]
    else:
        texts = list(args.exprs)
    if len(texts) != arity:
        raise _UsageError(f"verb {args.verb!r} takes {arity} expression(s), got {len(texts)}")
    return texts


class _UsageError(Exception):
    pass


def _twist_record(twist: LineBundleClass) -> dict:
    return {
        "t1": str(twist.t1),
        "t2": str(twist.t2),
        "free": {name: exp for name, exp in twist.free},
    }


def _summand_records(obj: BundleObject) -> list[dict]:
    return [
        {"rank": ind.rank, "multiplicity": mult, "twist": _twist_record(ind.twist)}
        for ind, mult in obj.summands
    ]


def _class_records(classes) -> list[dict]:
    ordered = sorted(classes, key=lambda ind: ind.sort_key())
    return [{"rank": ind.rank, "twist": _twist_record(ind.twist)} for ind in ordered]


def _product_records(prod: ProductObject) -> list[dict]:
    return [
        {"char": char, "block": block, "multiplicity": mult}
        for (char, block), mult in prod.components
    ]


def _single_class(obj: BundleObject) -> Indecomposable:
    classes = obj.classes()
    if len(classes) != 1:
        raise ValueError(
            f"expected a single indecomposable class, got {len(classes)}"
        )
    return next(iter(classes))


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _dispatch(verb: str, texts: list[str], args: argparse.Namespace) -> tuple[int, dict, str]:
    """Run a verb; returns (exit code, json record, plain text)."""
    objects = [parse_object(text) for text in texts]
    record: dict = {"verb": verb, "inputs": texts}

    if verb in ("normalize", "dual", "jh", "tensor"):
        if verb == "normalize":
            result = objects[0]
        elif verb == "dual":
            result = objects[0].dual()
        elif verb == "jh":
            result = objects[0].jh_factors()
        else:
            result = objects[0] * objects[1]
        text = print_canonical(result)
        record.update({"text": text, "summands": _summand_records(result)})
        return EXIT_OK, record, text

    if verb == "rank":
        value = objects[0].rank()
    elif verb == "gamma":
        value = objects[0].gamma_dim()
    elif verb == "hom":
        value = hom_dim(objects[0], objects[1])
    elif verb == "ringdim":
        value = krull_dim_class(objects[0])
    else:
        value = None
    if value is not None:
        record["value"] = value
        return EXIT_OK, record, str(value)

    if verb == "det":
        det = objects[0].det()
        record.update({"text": str(det), "line_class": _twist_record(det)})
        return EXIT_OK, record, str(det)

    if verb == "classify":
        obj = objects[0]
        flags = {
            "finite": obj.is_finite,
            "semifinite": obj.is_semifinite,
            "unipotent": obj.is_unipotent,
        }
        record.update(flags)
        text = " ".join(f"{name}={_bool(flag)}" for name, flag in flags.items())
        return EXIT_OK, record, text

    if verb == "summands":
        if args.max_power < 1:
            raise _UsageError("--max-power must be at least 1")
        closure = summand_closure(objects[0], args.max_power)
        ordered = sorted(closure.classes, key=lambda ind: ind.sort_key())
        record.update(
            {
                "classes": _class_records(closure.classes),
                "stabilized": closure.stabilized,
                "max_power": args.max_power,
            }
        )
        lines = [str(ind) for ind in ordered]
        lines.append(f"stabilized: {_bool(closure.stabilized)}")
        return EXIT_OK, record, "\n".join(lines)

    if verb == "closedform":
        form = closed_form_S(_single_class(objects[0]))
        if form is None:
            record["supported"] = False
            return EXIT_OK, record, "UNSUPPORTED"
        record.update(
            {
                "supported": True,
                "kind": form.kind,
                "order": form.order,
                "twist": _twist_record(form.twist),
                "description": form.description(),
            }
        )
        return EXIT_OK, record, form.description()

    if verb == "group":
        label = tannakian_label(_single_class(objects[0]))
        record.update({"label": str(label), "kind": label.kind, "param": label.param})
        return EXIT_OK, record, str(label)

    if verb == "oracle-check":
        if args.modulus is None:
            raise _UsageError("oracle-check requires --modulus")
        if args.modulus < 1:
            raise _UsageError("--modulus must be at least 1")
        modulus = args.modulus
        lhs = phi_transport(objects[0] * objects[1], modulus)
        rhs = product_tensor(
            phi_transport(objects[0], modulus), phi_transport(objects[1], modulus)
        )
        ok = lhs == rhs
        record.update(
            {
                "ok": ok,
                "modulus": modulus,
                "components": _product_records(lhs),
                "text": str(lhs),
            }
        )
        if ok:
            return EXIT_OK, record, f"ok: {lhs}"
        record["mismatch"] = str(rhs)
        text = f"MISMATCH:\n  transported product:  {lhs}\n  product of transports: {rhs}"
        return EXIT_CHECK_FAILED, record, text

    raise AssertionError(f"unhandled verb {verb!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        texts = _collect_expressions(args)
        code, record, text = _dispatch(args.verb, texts, args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError) as exc:  # unreadable --file
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(json.dumps(record, sort_keys=True) if args.json else text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
