"""Command-line front end.

Subcommands: ``bracket`` (graded bracket of two elements), ``jacobi``
(identity sweep over a window), ``defect`` (Leibniz defect of a derivation
expression), ``annihilate`` (window annihilator basis), ``globalize``
(oracle globalization with certificate output), ``lemma`` (named built-in
verification suites).

Exit codes: 0 for success or a passing verdict, 1 for a mathematical
failure (violations found, failed certificate, defective oracle), 2 for
usage, parse or config-file errors and for window bounds over their caps
(``MAX_JACOBI_BOUND``, ``MAX_ANNIHILATE_BOUND``, ``MAX_GLOBALIZE_BOUND``),
and 141 (128 + SIGPIPE, as a shell reports it) when the reader of stdout
closes it before the output is written.  A JSON config file may supply default algebra, bound, and seed;
the SUPERDER_SEED environment variable overrides the config seed and an
explicit --seed flag beats both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .algebra import AlgebraFamily, bracket
from .annihilator import GradedWindow, annihilator_basis
from .derivations import leibniz_defect
from .expr import (
    MAX_DIGITS,
    format_derivation,
    format_element,
    fraction_json,
    parse_derivation,
    parse_element,
    parse_integer,
    parse_rational,
)
from .lemmas import LEMMA_NAMES, jacobi_sweep, run_lemma
from .two_local import (
    ADVERSARIAL_KINDS,
    OracleDefectError,
    TestSet,
    globalize,
    make_adversarial_oracle,
    make_honest_oracle,
)

ENV_SEED = "SUPERDER_SEED"
EXIT_CLOSED_OUTPUT = 141
ALGEBRA_TAGS = tuple(family.value for family in AlgebraFamily)

# Largest accepted window bounds.  The Jacobi sweep is cubic in its bound,
# an annihilator solve about quadratic, and globalize queries the oracle
# once per test basis vector and solves in the mask window on every query,
# so a larger bound exits 2 before any window is built.
MAX_JACOBI_BOUND = 16
MAX_ANNIHILATE_BOUND = 128
MAX_GLOBALIZE_BOUND = 64


def _config_int(text: str) -> int:
    """A JSON integer of the config file, held to the grammar's digit cap so
    that an over-long number is an error about the file."""
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise ValueError("config file holds an integer of more than %d digits"
                         % MAX_DIGITS)
    return int(text)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh, parse_int=_config_int)
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    return config


def _capped(bound: Fraction, cap: int, what: str) -> Fraction:
    if bound > cap:
        raise ValueError("%s must be at most %d, got %s" % (what, cap, bound))
    return bound


def _resolve_bound(args, config: dict, fallback: Fraction, cap: int) -> Fraction:
    """The flag's bound, else the config's, else the fallback, at most ``cap``."""
    if args.bound is not None:
        bound = parse_rational(args.bound)
    elif "bound" in config:
        bound = parse_rational(str(config["bound"]))
    else:
        bound = fallback
    return _capped(bound, cap, "the window bound")


def _resolve_seed(args, config: dict) -> int:
    text = args.seed if args.seed is not None else os.environ.get(ENV_SEED)
    if text is not None:
        return parse_integer(text)
    seed = config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError("config seed must be a JSON integer, got %r" % (seed,))
    return seed


def _emit(payload: dict, as_json: bool, text: str) -> None:
    print(json.dumps(payload, indent=2) if as_json else text)


def _cmd_bracket(args, family: AlgebraFamily, config: dict) -> int:
    x, y = (parse_element(e, family) for e in (args.x, args.y))
    value = bracket(x, y)
    _emit({"algebra": family.value, "x": format_element(x),
           "y": format_element(y), "result": format_element(value)},
          args.as_json, format_element(value))
    return 0


def _cmd_jacobi(args, family: AlgebraFamily, config: dict) -> int:
    bound = _resolve_bound(args, config, Fraction(3), MAX_JACOBI_BOUND)
    violations, triples = jacobi_sweep(family, bound)
    verdict = "pass" if violations == 0 else "fail"
    _emit({"algebra": family.value, "bound": fraction_json(bound),
           "triples": triples, "violations": violations, "verdict": verdict},
          args.as_json, "%d violations / %d triples" % (violations, triples))
    return 0 if violations == 0 else 1


def _cmd_defect(args, family: AlgebraFamily, config: dict) -> int:
    d = parse_derivation(args.derivation, family)
    x, y = (parse_element(e, family) for e in (args.x, args.y))
    value = leibniz_defect(d, x, y)
    _emit({"algebra": family.value, "derivation": format_derivation(d),
           "x": format_element(x), "y": format_element(y),
           "defect": format_element(value), "zero": value.is_zero},
          args.as_json, format_element(value))
    return 0 if value.is_zero else 1


def _cmd_annihilate(args, family: AlgebraFamily, config: dict) -> int:
    target = parse_element(args.target, family)
    largest = max((abs(bv.index) for bv in target.support()), default=Fraction(0))
    bound = _resolve_bound(args, config, 2 * largest + 2, MAX_ANNIHILATE_BOUND)
    space = annihilator_basis(target, GradedWindow(bound))
    rendered = [format_derivation(b) for b in space.basis]
    _emit({"algebra": family.value, "target": format_element(target),
           "bound": fraction_json(bound), "dimension": space.dimension,
           "basis": rendered},
          args.as_json, "\n".join(["dimension %d" % space.dimension, *rendered]))
    return 0


def _build_oracle(spec: str, family: AlgebraFamily, seed: int,
                  mask_bound: Fraction):
    head, sep, body = spec.partition(":")
    if head == "honest" and sep:
        d = parse_derivation(body, family)
        return make_honest_oracle(d, GradedWindow(mask_bound), seed)
    if head == "adversarial" and sep:
        return make_adversarial_oracle(body, family)
    raise ValueError(
        "oracle spec must be 'honest:<derivation>' or 'adversarial:<kind>', "
        "got %r" % spec)


def _cmd_globalize(args, family: AlgebraFamily, config: dict) -> int:
    seed = _resolve_seed(args, config)
    bound = _resolve_bound(args, config, Fraction(3), MAX_GLOBALIZE_BOUND)
    mask_bound = _capped(parse_rational(args.mask_bound), MAX_GLOBALIZE_BOUND,
                         "the mask bound")
    oracle = _build_oracle(args.oracle, family, seed, mask_bound)
    test_set = TestSet(GradedWindow(bound), parse_integer(args.random), seed)
    certificate = globalize(oracle, test_set)
    print(certificate.to_json())
    return 0 if certificate.verdict == "pass" else 1


def _cmd_lemma(args, family: AlgebraFamily, config: dict) -> int:
    report = run_lemma(args.name)
    lines = []
    for case in report["cases"]:
        bits = " ".join("%s=%s" % (k, v) for k, v in case.items() if k != "pass")
        lines.append("%s: %s -> %s" % (report["name"], bits, "ok" if case["pass"] else "FAIL"))
    lines.append("verdict: %s" % report["verdict"])
    _emit(report, args.as_json, "\n".join(lines))
    return 0 if report["verdict"] == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algebra", choices=ALGEBRA_TAGS, default=None,
                        help="algebra family (default: config file, then vir)")
    common.add_argument("--json", dest="as_json", action="store_true",
                        help="emit JSON instead of plain text")
    common.add_argument("--config", metavar="PATH", default=None,
                        help="JSON config file with default algebra, bound, seed")

    parser = argparse.ArgumentParser(
        prog="superder",
        description="Exact computations with superderivations of the super "
                    "Virasoro and super W(2,2) algebras.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("bracket", parents=[common],
                       help="graded bracket of two elements")
    p.add_argument("x", help="element expression, e.g. 'G[1]' or '2*L[0] + C'")
    p.add_argument("y")
    p.set_defaults(handler=_cmd_bracket)

    p = sub.add_parser("jacobi", parents=[common],
                       help="sweep the graded Jacobi identity over a window")
    p.add_argument("--bound", default=None,
                   help="index window bound (default 3, at most %d)"
                        % MAX_JACOBI_BOUND)
    p.set_defaults(handler=_cmd_jacobi)

    p = sub.add_parser("defect", parents=[common],
                       help="Leibniz defect of a derivation at an element pair")
    p.add_argument("derivation",
                   help="derivation expression, e.g. 'ad(L[1])' or 'ad(I[2]) + 3*D'")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(handler=_cmd_defect)

    p = sub.add_parser("annihilate", parents=[common],
                       help="window annihilator of an element")
    p.add_argument("target")
    p.add_argument("--bound", default=None,
                   help="window bound (default: 2*max|index| + 2; at most %d)"
                        % MAX_ANNIHILATE_BOUND)
    p.set_defaults(handler=_cmd_annihilate)

    p = sub.add_parser("globalize", parents=[common],
                       help="globalize a 2-local oracle and print its certificate")
    p.add_argument("--oracle", required=True,
                   help="'honest:<derivation>' or 'adversarial:<kind>' with "
                        "kind one of: %s" % ", ".join(ADVERSARIAL_KINDS))
    p.add_argument("--bound", default=None,
                   help="test basis window bound (default 3, at most %d)"
                        % MAX_GLOBALIZE_BOUND)
    p.add_argument("--random", default="20", metavar="N",
                   help="number of seeded random test elements (default 20)")
    p.add_argument("--seed", default=None,
                   help="seed (default: SUPERDER_SEED, then config, then 0)")
    p.add_argument("--mask-bound", default="4",
                   help="honest-oracle mask window bound (default 4, at most %d; "
                        "0 disables)" % MAX_GLOBALIZE_BOUND)
    p.set_defaults(handler=_cmd_globalize)

    p = sub.add_parser("lemma", parents=[common],
                       help="run a named verification suite")
    p.add_argument("name", choices=LEMMA_NAMES)
    p.set_defaults(handler=_cmd_lemma)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser every ``run_command`` of this process shares, built on the
    first call; ``parse_args`` keeps no state between command lines."""
    return build_parser()


def _print_error(exc: BaseException, as_json: bool) -> None:
    info = {"type": type(exc).__name__, "message": str(exc)}
    # Parse, kind and sector errors carry their input position in the message.
    position = getattr(exc, "position", None)
    if position is not None:
        info["position"] = position
    if as_json:
        print(json.dumps({"error": info}, indent=2))
    else:
        print("error: %s: %s" % (info["type"], info["message"]), file=sys.stderr)


def run_command(argv=None) -> int:
    """Run one command line and return its exit code."""
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Whoever reads stdout (``| head``) has gone; there is no one to tell.
        return EXIT_CLOSED_OUTPUT


def _run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    as_json = getattr(args, "as_json", False)
    try:
        config = _load_config(args.config)
        family = AlgebraFamily.from_tag(args.algebra or config.get("algebra", "vir"))
        return args.handler(args, family, config)
    except BrokenPipeError:
        raise
    except OracleDefectError as exc:
        _print_error(exc, as_json)
        return 1
    except (ValueError, OSError) as exc:
        _print_error(exc, as_json)
        return 2


def main() -> None:
    code = run_command()
    if code == EXIT_CLOSED_OUTPUT:
        # Python flushes stdout once more at exit; send that to devnull so the
        # closed pipe is not reported a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
