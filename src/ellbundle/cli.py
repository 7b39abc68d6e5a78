"""Command-line front end.

Each invocation is one query: a verb plus expression arguments.  Output is
canonical text by default, or a flat JSON record under --json so that
downstream tools never need an expression parser.  All numeric I/O is exact;
no decimal forms are accepted or produced.

Exit codes: 0 success, 1 failed oracle check, 2 bad usage or expression
syntax/validation error, 3 domain error (zero object where a generator is
needed, twist outside the oracle's cyclic subgroup, and the like), an
expression nested deeper than the recursion limit, a result with more
digits than Python converts to text, or output that cannot be written (a
closed pipe, a full device).

argparse defines the grammar, the help and every usage error, but a process
builds its parser only for help and for an argv that ``_fast_args`` does not
take: a verb, one run of expressions and that verb's own options.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .bundles import BundleObject, Indecomposable, hom_dim
from .expr import ParseError, digit_limit_message, parse_object, print_canonical
from .picard import LineBundleClass

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3

Result = tuple[int, dict, str]  # (exit code, record fields, plain text)


# verb -> (option, metavar, default, help) of its one integer option.
_INT_OPTIONS = {
    "summands": ("--max-power", "N", 8, "tensor power cutoff for summand enumeration (default 8)"),
    "oracle-check": ("--modulus", "M", None, "torsion order for the oracle-check transport"),
}


def _build_parser():
    import argparse
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a structured JSON record")
    common.add_argument("--file", metavar="PATH", help="read expressions from PATH, one per line")
    parser = argparse.ArgumentParser(
        prog="ellbundle",
        description="Exact calculator for degree-0 vector bundles on an elliptic curve.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    for verb, (_, help_text, _) in _VERBS.items():
        verb_parser = sub.add_parser(verb, parents=[common], help=help_text)
        verb_parser.add_argument("exprs", nargs="*", metavar="EXPR")
    for verb, (option, metavar, default, help_text) in _INT_OPTIONS.items():
        sub.choices[verb].add_argument(
            option, type=int, default=default, metavar=metavar, help=help_text
        )
    return parser


def _fast_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """What ``_build_parser().parse_args(argv)`` gives a well-formed query.

    Takes a verb, then one run of arguments that do not start with '-', with
    the verb's options before or after it: ``--json``, ``--file PATH`` and
    its integer option with ASCII digits.  No option value may start with
    '-'.  Returns None for any other argv, which argparse then parses.
    """
    if not argv or argv[0] not in _VERBS:
        return None
    args = SimpleNamespace(verb=argv[0], json=False, file=None, exprs=[])
    option, _, default, _ = _INT_OPTIONS.get(argv[0], ("", None, None, None))
    dest = option[2:].replace("-", "_")  # the attribute argparse names after it
    if option:
        setattr(args, dest, default)
    tokens = iter(argv[1:])
    run_ended = False
    for token in tokens:
        if not token.startswith("-"):
            if run_ended:  # a second run of expressions, which argparse refuses
                return None
            args.exprs.append(token)
            continue
        run_ended = bool(args.exprs)
        if token == "--json":
            args.json = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if token == "--file":
            args.file = value
        elif token == option and value.isascii() and value.isdigit():
            setattr(args, dest, int(value))
        else:
            return None
    return args


def _collect_expressions(args: SimpleNamespace) -> list[str]:
    arity = _VERBS[args.verb][0]
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


def _single_class(obj: BundleObject) -> Indecomposable:
    classes = obj.classes()
    if len(classes) != 1:
        raise ValueError(f"expected a single indecomposable class, got {len(classes)}")
    return next(iter(classes))


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _object(obj: BundleObject) -> Result:
    text = print_canonical(obj)
    return EXIT_OK, {"text": text, "summands": _summand_records(obj)}, text


def _value(value: int) -> Result:
    return EXIT_OK, {"value": value}, str(value)


def _det(objects: list[BundleObject], args: SimpleNamespace) -> Result:
    det = objects[0].det()
    return EXIT_OK, {"text": str(det), "line_class": _twist_record(det)}, str(det)


def _classify(objects: list[BundleObject], args: SimpleNamespace) -> Result:
    obj = objects[0]
    flags = {
        "finite": obj.is_finite, "semifinite": obj.is_semifinite, "unipotent": obj.is_unipotent
    }
    return EXIT_OK, flags, " ".join(f"{name}={_bool(flag)}" for name, flag in flags.items())


def _summands(objects: list[BundleObject], args: SimpleNamespace) -> Result:
    from .kring import summand_closure
    if args.max_power < 1:
        raise _UsageError("--max-power must be at least 1")
    closure = summand_closure(objects[0], args.max_power)
    ordered = sorted(closure.classes, key=Indecomposable.sort_key)
    fields = {
        "classes": [{"rank": ind.rank, "twist": _twist_record(ind.twist)} for ind in ordered],
        "stabilized": closure.stabilized,
        "max_power": args.max_power,
    }
    lines = [str(ind) for ind in ordered] + [f"stabilized: {_bool(closure.stabilized)}"]
    return EXIT_OK, fields, "\n".join(lines)


def _closedform(objects: list[BundleObject], args: SimpleNamespace) -> Result:
    from .kring import closed_form_S
    form = closed_form_S(_single_class(objects[0]))
    if form is None:
        return EXIT_OK, {"supported": False}, "UNSUPPORTED"
    fields = {
        "supported": True,
        "kind": form.kind,
        "order": form.order,
        "twist": _twist_record(form.twist),
        "description": form.description(),
    }
    return EXIT_OK, fields, form.description()


def _group(objects: list[BundleObject], args: SimpleNamespace) -> Result:
    from .kring import tannakian_label
    label = tannakian_label(_single_class(objects[0]))
    return EXIT_OK, {"label": str(label), **vars(label)}, str(label)


def _ringdim(objects: list[BundleObject], args: SimpleNamespace) -> Result:
    from .kring import krull_dim_class
    return _value(krull_dim_class(objects[0]))


def _oracle_check(objects: list[BundleObject], args: SimpleNamespace) -> Result:
    from .jordan import phi_transport, product_tensor
    if args.modulus is None:
        raise _UsageError("oracle-check requires --modulus")
    if args.modulus < 1:
        raise _UsageError("--modulus must be at least 1")
    modulus = args.modulus
    lhs = phi_transport(objects[0] * objects[1], modulus)
    rhs = product_tensor(phi_transport(objects[0], modulus), phi_transport(objects[1], modulus))
    ok = lhs == rhs
    components = [{"char": c, "block": b, "multiplicity": m} for (c, b), m in lhs.components]
    fields = {"ok": ok, "modulus": modulus, "components": components, "text": str(lhs)}
    if ok:
        return EXIT_OK, fields, f"ok: {lhs}"
    fields["mismatch"] = str(rhs)
    text = f"MISMATCH:\n  transported product:  {lhs}\n  product of transports: {rhs}"
    return EXIT_CHECK_FAILED, fields, text


# verb -> (arity, help, handler); a handler maps the parsed objects and the
# options to a Result.  Handlers import kring and jordan themselves, and main
# imports json only under --json, so a process loads only what its verb needs.
_VERBS = {
    "normalize": (1, "canonical normal form of an expression", lambda o, a: _object(o[0])),
    "tensor": (2, "tensor product of two objects", lambda o, a: _object(o[0] * o[1])),
    "dual": (1, "dual object", lambda o, a: _object(o[0].dual())),
    "rank": (1, "total rank", lambda o, a: _value(o[0].rank())),
    "det": (1, "determinant line bundle class", _det),
    "hom": (2, "dimension of the Hom space", lambda o, a: _value(hom_dim(o[0], o[1]))),
    "gamma": (1, "dimension of the space of global sections",
              lambda o, a: _value(o[0].gamma_dim())),
    "jh": (1, "Jordan-Holder factors (semisimplification)",
           lambda o, a: _object(o[0].jh_factors())),
    "classify": (1, "finite / semifinite / unipotent flags", _classify),
    "summands": (1, "indecomposable summands of tensor powers", _summands),
    "closedform": (1, "closed form of the summand closure, if known", _closedform),
    "group": (1, "Tannakian group label of a single indecomposable", _group),
    "ringdim": (1, "Krull dimension class of the generated subring", _ringdim),
    "oracle-check": (2, "compare the tensor against the linear-algebra oracle", _oracle_check),
}


def _dispatch(verb: str, texts: list[str], args: SimpleNamespace) -> Result:
    """Run a verb; returns (exit code, json record, plain text)."""
    objects = [parse_object(text) for text in texts]
    code, fields, text = _VERBS[verb][2](objects, args)
    return code, {"verb": verb, "inputs": texts, **fields}, text


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv) or SimpleNamespace(**vars(_build_parser().parse_args(argv)))
    try:
        texts = _collect_expressions(args)
        code, record, text = _dispatch(args.verb, texts, args)
        if args.json:
            import json
        output = json.dumps(record, sort_keys=True) if args.json else text
    except (_UsageError, OSError, UnicodeDecodeError) as exc:  # the last two: unreadable --file
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:  # parser and evaluator recurse once per nesting level
        limit = sys.getrecursionlimit()
        print(f"error: expression nested too deeply (recursion limit {limit})", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, ArithmeticError) as exc:
        message = str(exc)
        if "set_int_max_str_digits" in message:  # Python's int-to-text limit, hit by a result
            message = digit_limit_message()
        print(f"error: {message}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        print(output)
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe or a full device
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        # The flush at exit retries the unwritten output: send it to os.devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    raise SystemExit(main())
