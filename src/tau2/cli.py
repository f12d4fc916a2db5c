"""Command-line front end.

Subcommands:

    analyze <presentation>                structural report
    experiment <config>                   seeded estimates as CSV
    encode <presentation> <equations>     emit the integer constraint system
    odot <presentation> <a> <b> --window T   window check of the ring encoding

odot's a and b are words in the equation grammar with no unknowns, such as
a1, a2*a3^-1 or [a1,a2]*a3.

Exit codes are stable: 0 success, 1 usage/parse error, 2 precondition
failure, 3 budget exceeded, 4 internal invariant violation.  All output is
deterministic given the inputs and seed; no timestamps are ever emitted
(pass --version-header for an identifying first line).
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import __version__
from .core import (
    int_fields,
    invariant_report,
    load_presentation,
    read_input_file,
    records,
)
from .dioph import (
    box_solve,
    encode_system,
    format_system,
    parse_element,
    parse_equations,
    ring_window_report,
)
from .errors import InternalInvariantError, ParseError, Tau2Error
from .randmodel import (
    DEFAULT_ENUM_BUDGET,
    POLYCYCLIC_PROPERTIES,
    TAU2_PROPERTIES,
    PolycyclicModelParams,
    Tau2ModelParams,
    _check_space,
    _check_trials,
    exact_fraction,
    montecarlo,
    wilson_interval,
)
from .structure import format_structure_report, structure_report

EXIT_OK = 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); a usage error exits 1
        raise Tau2Error(message)


def _int_option(text: str) -> int:
    """The value of an integer option, read by ``int_fields``: a numeral over
    Python's digit limit is refused by one short line that names the limit,
    where argparse's own ``type=int`` would echo the whole value."""
    try:
        (value,) = int_fields((text,), "must be an integer")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on the first ``main`` call.

    ``parse_args`` leaves the parser unchanged, so every call can share it.
    """
    parser = _Parser(prog="tau2", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=_int_option, default=None, help="override config/experiment seed")
    parser.add_argument(
        "--threads", type=_int_option, default=1, help="accepted for compatibility (>= 1); trials run serially"
    )
    parser.add_argument("--out", default=None, help="write output to a file instead of stdout")
    parser.add_argument(
        "--version-header",
        action="store_true",
        help="prefix output with a '# tau2 <version>' line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="structural report for a presentation file")
    p_an.add_argument("presentation")
    p_an.set_defaults(run=cmd_analyze)

    p_ex = sub.add_parser("experiment", help="run a seeded experiment config, emit CSV")
    p_ex.add_argument("config")
    p_ex.set_defaults(run=cmd_experiment)

    p_en = sub.add_parser("encode", help="encode group equations as an integer system")
    p_en.add_argument("presentation")
    p_en.add_argument("equations")
    p_en.add_argument("--box", type=_int_option, default=None, help="also enumerate solutions in [-B, B]")
    p_en.set_defaults(run=cmd_encode)

    p_od = sub.add_parser("odot", help="verify the ring encoding on a window")
    p_od.add_argument("presentation")
    p_od.add_argument("a", help="first base element, e.g. a1")
    p_od.add_argument("b", help="second base element, e.g. a2")
    p_od.add_argument("--window", type=_int_option, default=5)
    p_od.set_defaults(run=cmd_odot)
    return parser


def _emit(args, *chunks: str):
    """Write the version header, if asked, then each chunk, to --out or stdout."""
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        if args.version_header:
            fh.write(f"# tau2 {__version__}\n")
        fh.writelines(chunks)


def cmd_analyze(args) -> int:
    p = load_presentation(args.presentation)
    _emit(args, format_structure_report(structure_report(p), invariant_report(p)))
    return EXIT_OK


# -- experiment configs ---------------------------------------------------------
#
#   model = tau2 | polycyclic | nilpotent
#   n = 3
#   m = 2              (tau2 only)
#   s = inf inf inf    (polycyclic models; optional, default all inf)
#   ell = 1 2 3
#   properties = center_is_C regular
#   trials = 10000
#   seed = 7
#   mode = mc | exact | auto     (default mc; exact/auto are tau2-only)
#
# Any other key, and a key the model does not read, is a parse error, so a
# misspelt key never silently falls back to its default.

_CONFIG_KEYS = ("model", "n", "m", "s", "ell", "properties", "trials", "seed", "mode")


def _parse_config(text: str) -> dict:
    fields: dict[str, tuple[str, int]] = {}
    for lineno, line in records(text):
        key, eq, val = line.partition("=")
        if not eq:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key = key.strip()
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", lineno)
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown key {key!r}", lineno)
        fields[key] = (val.strip(), lineno)

    def field(key: str, default: str | None = None) -> tuple[str, int | None]:
        """(value, line) of a key; a missing key gives its default and no line."""
        if key in fields:
            return fields[key]
        if default is None:
            raise ParseError(f"config must set {key}")
        return default, None

    def integer(key: str, default: str | None = None) -> tuple[int, int | None]:
        val, line = field(key, default)
        return int_fields((val,), f"{key} must be an integer", line)[0], line

    def split_list(s: str) -> list[str]:
        return s.replace(",", " ").split()

    cfg: dict = {}
    model, line = field("model", "tau2")
    if model not in ("tau2", "polycyclic", "nilpotent"):
        raise ParseError(f"unknown model {model!r}", line)
    unread = "s" if model == "tau2" else "m"
    if unread in fields:
        raise ParseError(f"key {unread!r} does not apply to model {model}", fields[unread][1])
    cfg["model"] = model
    cfg["n"], _ = integer("n")
    if model == "tau2":
        cfg["m"], _ = integer("m")
    else:
        s_text, line = field("s", "")
        if s_text:
            entries = split_list(s_text)
            if len(entries) != cfg["n"]:
                raise ParseError(f"s must list {cfg['n']} entries", line)
            finite = iter(int_fields((e for e in entries if e != "inf"), "s entries must be integers or inf", line))
            cfg["s"] = tuple(None if e == "inf" else next(finite) for e in entries)
        else:
            cfg["s"] = None  # all infinite, built once n is within budget
    ell_text, line = field("ell")
    cfg["ell"] = int_fields(split_list(ell_text), "ell entries must be integers", line)
    if not cfg["ell"]:
        raise ParseError("ell list must not be empty", line)
    props_text, line = field("properties")
    cfg["properties"] = split_list(props_text)
    if not cfg["properties"]:
        raise ParseError("properties list must not be empty", line)
    registry = TAU2_PROPERTIES if model == "tau2" else POLYCYCLIC_PROPERTIES
    for prop in cfg["properties"]:
        if prop not in registry:
            raise ParseError(f"unknown property {prop!r} for model {model}", line)
    cfg["trials"], line = integer("trials")
    if cfg["trials"] < 1:
        raise ParseError("trials must be >= 1", line)
    cfg["seed"], _ = integer("seed", "0")
    mode, line = field("mode", "mc")
    if mode not in ("mc", "exact", "auto"):
        raise ParseError(f"unknown mode {mode!r}", line)
    if mode in ("exact", "auto") and model != "tau2":
        raise ParseError("exact enumeration is only supported for the tau2 model", line)
    cfg["mode"] = mode
    return cfg


def _csv_row(prop: str, ell: int, mode: str, hits: int, total: int, seed: int) -> str:
    frac = Fraction(hits, total)
    low, high = wilson_interval(hits, total)
    return (
        f"{prop},{ell},{mode},{total},{hits},{hits / total!r},"
        f"{frac.numerator}/{frac.denominator},{low!r},{high!r},{seed}"
    )


def cmd_experiment(args) -> int:
    """One exact or Monte Carlo pass per ell counts every listed property;
    rows come out property-major, then by ell.  Every ell's parameters and
    budget are checked before the first pass runs."""
    cfg = _parse_config(read_input_file(args.config, "config"))
    seed = args.seed if args.seed is not None else cfg["seed"]
    props = cfg["properties"]
    plans = []
    for ell in cfg["ell"]:
        if cfg["model"] == "tau2":
            params = Tau2ModelParams(cfg["n"], cfg["m"], ell)
            mode = cfg["mode"]
            if mode == "auto":
                size = params.sample_space_size
                mode = "exact" if size is not None and size <= DEFAULT_ENUM_BUDGET else "mc"
        else:
            params = PolycyclicModelParams(cfg["n"], cfg["s"], ell, cfg["model"])
            mode = "mc"
        if mode == "exact":
            _check_space(params, DEFAULT_ENUM_BUDGET)
        else:
            _check_trials(cfg["trials"])
        plans.append((ell, mode, params))
    passes = []
    for ell, mode, params in plans:
        if mode == "exact":
            hits, total = exact_fraction(props, params)
        else:
            hits, total = montecarlo(props, params, cfg["trials"], seed)
        passes.append((ell, mode, hits, total))
    rows = ["property,ell,mode,trials,successes,estimate,fraction,ci_low,ci_high,seed"]
    for k, prop in enumerate(props):
        rows += [_csv_row(prop, ell, mode, hits[k], total, seed) for ell, mode, hits, total in passes]
    _emit(args, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_encode(args) -> int:
    p = load_presentation(args.presentation)
    system = encode_system(p, parse_equations(p, read_input_file(args.equations, "equations")))
    if args.box is None:
        _emit(args, format_system(system))
        return EXIT_OK
    # The count comes first, so the solution lines are held until it is known.
    lines = [
        "# solution: " + " ".join(f"{v}={sol[v]}" for v in system.variables) + "\n"
        for sol in box_solve(system, args.box)
    ]
    _emit(args, format_system(system), f"# solutions in box [-{args.box}, {args.box}]: {len(lines)}\n", *lines)
    return EXIT_OK


def _base_element(p, text: str):
    """An odot base read by ``parse_element``; a refusal quotes the word,
    cut to its first 40 characters."""
    try:
        return parse_element(p, text)
    except ParseError as exc:
        shown = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
        raise ParseError(f"base {shown}: {exc}") from None


def cmd_odot(args) -> int:
    p = load_presentation(args.presentation)
    a = _base_element(p, args.a)
    b = _base_element(p, args.b)
    failures = ring_window_report(a, b, args.window)
    lines = []
    for f in failures:
        lines.append(f"FAIL t1={f.t1} t2={f.t2}: {f.reason}")
    points = (2 * args.window + 1) ** 2
    if failures:
        lines.append(f"FAIL {len(failures)}/{points} window points")
        _emit(args, "\n".join(lines) + "\n")
        raise InternalInvariantError("ring window verification failed")
    lines.append(f"PASS {points}/{points} window points (window {args.window})")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.threads < 1:
            raise Tau2Error(f"--threads must be >= 1, got {args.threads}")
        return args.run(args)
    except Tau2Error as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # --out; input files are read by core.read_input_file
        print(f"error: {exc}", file=sys.stderr)
        return Tau2Error.exit_code


if __name__ == "__main__":
    sys.exit(main())
