"""Command-line front end.

Each invocation is one query: a verb plus expression arguments.  Output is
canonical text by default, or a flat JSON record under --json so that
downstream tools never need an expression parser.  All numeric I/O is exact;
no decimal forms are accepted or produced.

Exit codes: 0 success, 1 failed oracle check and nothing else, 2 bad usage
or expression syntax/validation error, 3 domain error (zero object where a
generator is needed, twist outside the oracle's cyclic subgroup, and the
like), an expression nested deeper than the recursion limit, a result with
more digits than Python converts to text, or an answer that cannot be
written (a closed pipe, a full device).  An error line that cannot be
written keeps its own code.

argparse defines the grammar, the help and every usage error, but a process
builds its parser only for help and for an argv that ``_fast_args`` does not
take: a verb, one run of expressions and that verb's own options.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence
from io import TextIOBase
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


def _build_parser():
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):  # argparse's own write drops its OSError
            code = _write(EXIT_OK, self.format_help()[:-1], file or sys.stdout)
            if code:
                raise SystemExit(code)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a structured JSON record")
    common.add_argument("--file", metavar="PATH", help="read expressions from PATH, one per line")
    parser = Parser(
        prog="ellbundle",
        description="Exact calculator for degree-0 vector bundles on an elliptic curve.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    for verb, (_, help_text, _, *int_option) in _VERBS.items():
        verb_parser = sub.add_parser(verb, parents=[common], help=help_text)
        verb_parser.add_argument("exprs", nargs="*", metavar="EXPR")
        for option, metavar, default, text in int_option:
            verb_parser.add_argument(option, type=int, default=default, metavar=metavar, help=text)
    return parser


def _dest(option: str) -> str:
    """The attribute argparse names after an option."""
    return option[2:].replace("-", "_")


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
    option = None  # the verb's integer option, if it has one
    for option, _, default, _ in _VERBS[argv[0]][3:]:
        setattr(args, _dest(option), default)
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
            setattr(args, _dest(option), int(value))
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


# verb -> (arity, help, handler[, int option]); a handler maps the parsed
# objects and the options to a Result.  The optional entry is the verb's one
# integer option as (option, metavar, default, help); a default of None makes
# it required.  Handlers import kring and jordan themselves, and json is
# imported only under --json, so a process loads only what its verb needs.
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
    "summands": (1, "indecomposable summands of tensor powers", _summands,
                 ("--max-power", "N", 8, "tensor power cutoff for summand enumeration (default 8)")),
    "closedform": (1, "closed form of the summand closure, if known", _closedform),
    "group": (1, "Tannakian group label of a single indecomposable", _group),
    "ringdim": (1, "Krull dimension class of the generated subring", _ringdim),
    "oracle-check": (2, "compare the tensor against the linear-algebra oracle", _oracle_check,
                     ("--modulus", "M", None, "torsion order for the oracle-check transport")),
}


def _answer(args: SimpleNamespace) -> tuple[int, str, TextIOBase]:
    """Run a query: (exit code, text, the stream it goes to)."""
    try:
        texts = _collect_expressions(args)
        objects = [parse_object(text) for text in texts]
        for option, _, _, _ in _VERBS[args.verb][3:]:  # after parsing: a bad expression wins
            value = getattr(args, _dest(option))
            if value is None:
                raise _UsageError(f"{args.verb} requires {option}")
            if value < 1:
                raise _UsageError(f"{option} must be at least 1")
        code, fields, text = _VERBS[args.verb][2](objects, args)
        if args.json:
            import json
            text = json.dumps({"verb": args.verb, "inputs": texts, **fields}, sort_keys=True)
        return code, text, sys.stdout
    except (_UsageError, OSError, UnicodeDecodeError) as exc:  # the last two: unreadable --file
        return EXIT_PARSE, f"usage error: {exc}", sys.stderr
    except ParseError as exc:
        return EXIT_PARSE, f"parse error: {exc}", sys.stderr
    except RecursionError:  # parser and evaluator recurse once per nesting level
        limit = sys.getrecursionlimit()
        return EXIT_DOMAIN, f"error: expression nested too deeply (recursion limit {limit})", sys.stderr
    except (ValueError, ArithmeticError) as exc:
        message = str(exc)
        if "set_int_max_str_digits" in message:  # Python's int-to-text limit, hit by a result
            message = digit_limit_message()
        return EXIT_DOMAIN, f"error: {message}", sys.stderr


def _write(code: int, text: str, stream: TextIOBase) -> int:
    """Write a line of text and return the exit code: a lost answer is one
    line on stderr and exit 3, and a lost error line keeps its own code."""
    while True:
        try:
            print(text, file=stream, flush=True)
            return code
        except OSError as exc:  # a closed pipe or a full device
            # The flush at exit retries the unwritten text: send it to os.devnull.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
            if stream is sys.stderr:
                return code
            code, text, stream = EXIT_DOMAIN, f"error: cannot write output: {exc}", sys.stderr


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv) or SimpleNamespace(**vars(_build_parser().parse_args(argv)))
    return _write(*_answer(args))


if __name__ == "__main__":
    raise SystemExit(main())
