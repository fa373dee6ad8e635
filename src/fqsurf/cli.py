"""Command-line front end for the tessellation pipeline.

Every subcommand reads and writes versioned JSON documents so that a
pipeline composed through files gives the same bytes as one composed in
process.  Exit status 0 means success, 1 a domain failure (a verdict of
RuledOut, a coloring contradiction, failed validation or certification),
and 2 a usage or I/O problem.  All output is deterministic; the FQ_SEED
environment variable is deliberately ignored since nothing here is
randomized.
"""

import argparse
import json
import sys

from .surface_complex import (
    canonical_json,
    complex_from_dict,
    complex_to_dict,
    dual_graph,
    validate,
)
from .loops import loop_report_to_dict, trace_geodesic_loops
from .tessellation import (
    build_block_tessellation,
    build_rect_tessellation,
    face_count,
    subdivide_four,
    subdivide_two,
    subdivision_map_to_dict,
)
from .coloring import (
    EdgeColoring,
    coloring_from_dict,
    coloring_to_dict,
    solve_good_coloring,
    witness_to_dict,
)
from .lattice import build_certificate, decide, verdict_to_dict


def _read_json(path):
    """Parse a JSON file; text that is not UTF-8 or nests deeper than the
    recursion limit is malformed JSON too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        good = exc.object[:exc.start].decode("utf-8", "replace")
        raise json.JSONDecodeError(f"invalid UTF-8 ({exc.reason})", good, len(good)) from None
    except RecursionError:
        raise json.JSONDecodeError("nesting deeper than the recursion limit", "", 0) from None


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_complex(path):
    return complex_from_dict(_read_json(path))


def _parse_q(text):
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--q expects comma-separated integers, got {text!r}")
    return entries


def _parse_grid(text):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"--rect expects AxB, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"--rect expects AxB with integers, got {text!r}")
    return a, b


def _cmd_faces(args):
    print(face_count(args.p, args.genus))
    return 0


def _cmd_tessellate(args):
    if args.rect is None:
        cx = build_block_tessellation(args.p, args.genus)
    else:
        a, b = _parse_grid(args.rect)
        needed = face_count(args.p, args.genus)
        if a * b != needed:
            raise ValueError(f"a {a}x{b} grid has {a * b} faces; "
                             f"genus {args.genus} needs {needed}")
        cx = build_rect_tessellation(args.p, a, b)
    _write_text(args.output, canonical_json(complex_to_dict(cx)))
    return 0


def _cmd_validate(args):
    cx = _read_complex(args.input)
    report = validate(cx, expected_genus=args.genus)
    for finding in report.failures:
        print(f"{finding.tag}: {finding.detail}")
    if report.passed:
        print(f"valid (genus {report.genus})")
        return 0
    print(f"invalid ({len(report.failures)} findings)")
    return 1


def _cmd_loops(args):
    cx = _read_complex(args.input)
    if not cx.num_faces:
        raise ValueError("the complex has no faces")
    report = trace_geodesic_loops(cx)
    text = canonical_json(loop_report_to_dict(report))
    if args.report:
        _write_text(args.report, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_color(args):
    cx = _read_complex(args.input)
    mode = "exhaustive" if args.exhaustive else "propagate"
    result = solve_good_coloring(cx, mode)
    if isinstance(result, EdgeColoring):
        _write_text(args.output, canonical_json(coloring_to_dict(result)))
        return 0
    _write_text(args.output, canonical_json(witness_to_dict(result)))
    print("no good coloring: odd constraint cycle written", file=sys.stderr)
    return 1


def _sidecar_path(path):
    if path.endswith(".json"):
        return path[: -len(".json")] + ".subdiv.json"
    return path + ".subdiv.json"


def _cmd_subdivide(args):
    cx = _read_complex(args.input)
    op = subdivide_two if args.pieces == 2 else subdivide_four
    out, submap = op(cx, axis=args.axis)
    _write_text(args.output, canonical_json(complex_to_dict(out)))
    _write_text(
        _sidecar_path(args.output), canonical_json(subdivision_map_to_dict(submap))
    )
    return 0


def _cmd_certify(args):
    cx = _read_complex(args.input)
    report = validate(cx)
    if not report.passed:
        raise ValueError(f"the complex fails validation: {report.tags()}")
    coloring = coloring_from_dict(_read_json(args.coloring))
    q = _parse_q(args.q)
    cert = build_certificate(cx, coloring, q)
    _write_text(args.output, canonical_json(cert))
    if cert["ok"]:
        return 0
    print("certificate checks failed", file=sys.stderr)
    return 1


def _cmd_decide(args):
    q = _parse_q(args.q)
    verdict = decide(args.p, q, args.genus, certify=args.certify)
    text = canonical_json(verdict_to_dict(verdict))
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    if verdict.outcome in ("RuledOut", "InternalError"):
        return 1
    return 0


def _cmd_export(args):
    cx = _read_complex(args.input)
    if not cx.num_faces:
        raise ValueError("the complex has no faces")
    _write_text(args.dual, dual_graph(cx).to_dot())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fqsurf",
        description="Surface quotient tessellations: build, color, certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    faces = sub.add_parser("faces", help="face count for (p, genus)")
    faces.add_argument("--p", type=int, required=True)
    faces.add_argument("--genus", type=int, required=True)
    faces.set_defaults(func=_cmd_faces)

    tess = sub.add_parser("tessellate", help="build a tessellation")
    tess.add_argument("--p", type=int, required=True)
    tess.add_argument("--genus", type=int, required=True)
    tess.add_argument("--rect", help="AxB grid of notched squares instead of blocks")
    tess.add_argument("-o", "--output", required=True)
    tess.set_defaults(func=_cmd_tessellate)

    val = sub.add_parser("validate", help="check the surface axioms")
    val.add_argument("-i", "--input", required=True)
    val.add_argument("--genus", type=int, default=None)
    val.set_defaults(func=_cmd_validate)

    loops = sub.add_parser("loops", help="trace boundary geodesic loops")
    loops.add_argument("-i", "--input", required=True)
    loops.add_argument("--report", default=None)
    loops.set_defaults(func=_cmd_loops)

    color = sub.add_parser("color", help="find a good edge coloring")
    color.add_argument("-i", "--input", required=True)
    color.add_argument("-o", "--output", required=True)
    color.add_argument("--exhaustive", action="store_true")
    color.set_defaults(func=_cmd_color)

    subdiv = sub.add_parser("subdivide", help="cut every face into 2 or 4")
    subdiv.add_argument("--pieces", type=int, choices=(2, 4), required=True)
    subdiv.add_argument("--axis", type=int, default=None)
    subdiv.add_argument("-i", "--input", required=True)
    subdiv.add_argument("-o", "--output", required=True)
    subdiv.set_defaults(func=_cmd_subdivide)

    cert = sub.add_parser("certify", help="check the local group conditions")
    cert.add_argument("-i", "--input", required=True)
    cert.add_argument("--coloring", required=True)
    cert.add_argument("--q", required=True)
    cert.add_argument("-o", "--output", required=True)
    cert.set_defaults(func=_cmd_certify)

    dec = sub.add_parser("decide", help="existence verdict for (p, q, genus)")
    dec.add_argument("--p", type=int, required=True)
    dec.add_argument("--genus", type=int, required=True)
    dec.add_argument("--q", required=True)
    dec.add_argument("--certify", action="store_true")
    dec.add_argument("-o", "--output", default=None)
    dec.set_defaults(func=_cmd_decide)

    exp = sub.add_parser("export", help="export derived structures")
    exp.add_argument("-i", "--input", required=True)
    exp.add_argument("--dual", required=True, help="write the dual graph as DOT")
    exp.set_defaults(func=_cmd_export)

    return parser


_parser = None


def main(argv=None):
    """Run one command and return its exit code.  The parser is built on the
    first call, not at import, and reused: each parse fills a new namespace."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
