"""Command line interface.

Exit codes, uniformly: 0 for a positive verdict (valid, certified,
exported), 1 for a well-formed refusal (hypotheses fail, certification
refused, no paths to list), 2 for malformed input or parameters (bad
JSON, even m, non-allowable --path, wrong slope arity, unreadable input,
an empty or unwritable --out, an unwritable stdout, over-limit PD
exports, and argparse's own usage errors), 3 for an internal fault of
platsurf itself, reported on one stderr line.  A closed stdout, as in
``platsurf paths d.json | head -1``, ends the command by SIGPIPE (shell
status 141) where the platform has it.

``main`` alone reads the diagram file and writes the result, to
``--out`` or stdout; each ``cmd_*`` only computes, returning its
document and exit code.  So every command but ``paths``, which streams
its listing, writes nothing until it has finished.  Submodules load on
first use: each ``cmd_*`` imports what it calls, so ``platsurf
validate`` never loads the certificate, surface, surgery, topology or
export modules.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from .errors import PlatError

# for annotations only: typing is not imported at run time
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Sequence

    from .diagram import PlatDiagram

    # a command's document for --out or stdout, and its exit code
    Result = tuple[str | bytes, int]

# --mode choices and the certificate modes they name
# (certificates.MODE_THEOREM1, MODE_RELAXED and MODE_COMPOSITE)
_MODES = {
    "theorem1": "theorem1",
    "relaxed": "relaxed_remark1",
    "composite": "composite_remark3",
}


def _load(path: str) -> PlatDiagram:
    from .diagram import diagram_from_json

    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise PlatError(f"cannot read {path}: {e}") from e
    return diagram_from_json(text)


def _parse_path(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as e:
        raise PlatError(f"bad path {text!r}: expected comma-separated ints") from e


def _emit(data: str | bytes, out: str | None) -> None:
    binary = isinstance(data, bytes)
    if out is None:
        (sys.stdout.buffer if binary else sys.stdout).write(data)
        return
    try:
        with open(out, "wb" if binary else "w") as f:
            f.write(data)
    except OSError as e:
        raise PlatError(f"cannot write {out}: {e}") from e


def _count_text(n: int, m: int) -> str:
    """The exact allowable-path count, however many digits it has.

    The interpreter refuses to convert ints past 4300 digits to text; the
    limit is lifted for this one conversion only, so parsing keeps it.
    """
    from .paths import count_allowable

    count = count_allowable(n, m)
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without the limit
        return str(count)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(count)
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_validate(args: argparse.Namespace, d: PlatDiagram) -> Result:
    from .diagram import RELAXED, STRICT, _indented_json, check_hypotheses

    report = check_hypotheses(d, RELAXED if args.relaxed else STRICT)
    return _indented_json(report.to_dict()) + "\n", 0 if report.passed else 1


def cmd_paths(args: argparse.Namespace, d: PlatDiagram) -> Result:
    if args.count:
        return _count_text(d.n, d.m) + "\n", 0
    if d.n <= 2:
        print(
            "no allowable paths: n <= 2 is the 2-bridge case, which the "
            "certified statements exclude",
            file=sys.stderr,
        )
        return "", 1
    from .paths import iter_allowable

    for p in iter_allowable(d):  # streamed: the count grows exponentially in m
        print(",".join(str(a) for a in p.entries))
    return "", 0


def cmd_certify(args: argparse.Namespace, d: PlatDiagram) -> Result:
    from .certificates import certificate_json, certify

    path = None if args.path is None else _parse_path(args.path)
    cert = certify(d, path, _MODES[args.mode])
    return certificate_json(cert), 0 if cert.certified else 1


def cmd_surgery(args: argparse.Namespace, d: PlatDiagram) -> Result:
    from .surgery import certify_haken, haken_certificate_json, parse_slopes

    cert = certify_haken(d, parse_slopes(args.slopes))
    return haken_certificate_json(cert), 0 if cert.certified else 1


def cmd_export(args: argparse.Namespace, d: PlatDiagram) -> Result:
    if args.format == "json":
        from .diagram import diagram_to_json

        return diagram_to_json(d), 0
    from .export import to_braid_word, to_pd_code

    code = to_braid_word(d) if args.format == "braid" else to_pd_code(d)
    return code.text() + "\n", 0


def cmd_render(args: argparse.Namespace, d: PlatDiagram) -> Result:
    from .render import render

    path = None if args.path is None else _parse_path(args.path)
    return render(d, path, args.format), 0


def cmd_random(args: argparse.Namespace, _: None) -> Result:
    from .diagram import diagram_to_json, random_diagram

    d = random_diagram(
        args.n,
        args.m,
        max_twist=args.max_twist,
        seed=args.seed,
        require_parity=args.require_parity,
    )
    return diagram_to_json(d), 0


def cmd_info(args: argparse.Namespace, d: PlatDiagram) -> Result:
    from .topology import build_topology

    t = build_topology(d)
    lines = [
        f"n: {d.n} ({2 * d.n} strands)",
        f"m: {d.m} rows",
        f"components: {t.component_count}",
        f"twist crossings: {d.twist_crossing_count}",
        f"allowable paths: {_count_text(d.n, d.m)}",
        f"tubed surface genus: {(d.m + 1) // 2}",
    ]
    return "\n".join(lines) + "\n", 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platsurf",
        description="plat diagrams, allowable paths, and surface certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the hypotheses of a diagram")
    p.add_argument("file")
    p.add_argument("--relaxed", action="store_true", help="lower the end bound to 2")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("paths", help="list or count allowable paths")
    p.add_argument("file")
    p.add_argument("--count", action="store_true", help="print the count only")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("certify", help="emit a certificate for a diagram")
    p.add_argument("file")
    p.add_argument("--mode", choices=sorted(_MODES), default="theorem1")
    p.add_argument("--path", help="comma-separated entries, e.g. 1,2,1")
    p.add_argument("--out", help="write the certificate here instead of stdout")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("surgery", help="certify surgeries along a slope tuple")
    p.add_argument("file")
    p.add_argument(
        "--slopes", required=True, help="one slope per component, e.g. 3/1,5/2"
    )
    p.add_argument("--out", help="write the certificate here instead of stdout")
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("export", help="braid word, PD code, or canonical JSON")
    p.add_argument("file")
    p.add_argument("--format", choices=("braid", "pd", "json"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("render", help="draw the diagram")
    p.add_argument("file")
    p.add_argument("--path", help="overlay this allowable path")
    p.add_argument("--format", choices=("svg", "ascii"), default="svg")
    p.add_argument("--out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("random", help="generate a random strict-valid diagram")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-twist", type=int, default=5)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--require-parity",
        action="store_true",
        help="force the slope-coverage parity condition",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("info", help="summary of a diagram")
    p.add_argument("file")
    p.set_defaults(func=cmd_info)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        d = _load(args.file) if "file" in args else None  # every command but random
        output, code = args.func(args, d)
        _emit(output, getattr(args, "out", None))
        sys.stdout.flush()  # a buffered write fails here, not at exit
        return code
    except PlatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # every file platsurf opens reports its own faults as PlatError
        print(f"error: cannot write stdout: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a fault of platsurf itself must not read as a refusal
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    # Python ignores SIGPIPE, so a closed stdout would surface as a
    # BrokenPipeError, an internal fault; the default action ends the process
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = main(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:
        # main reported the failed write, whose bytes are still buffered;
        # the flush at exit would report them again, so it goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
