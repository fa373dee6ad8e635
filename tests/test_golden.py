"""Golden digests of canonical outputs.

Each case renders one output (canonical JSON, or DOT for the dual graph) and
compares its sha256 with a recorded digest, so a byte change in a builder,
a subdivision, the loop report, a solver, a certificate or a verdict shows
up here by name.  The digests were recorded before derived structures became
cached per complex; refactors must keep every one of them.

The subdivision sweep pins every cut axis (and the axis search) of a few
rectangular grids: the digest of the complex, map and loop report for each
axis that works, the exception class for each that does not.  It was
recorded before subdivision became a single orient-and-retype pass.

The rect colorings and the Smith transforms (D, U, V on a fixed list of
small matrices) were recorded before ``_smith`` bordered its matrix with
identities and before the coloring walked loop phases.  The Smith transform
documents were re-pinned once, when they lost the integer solutions they
used to carry; their D, U and V are unchanged.  The contradiction
witnesses were re-pinned once, when the phase walk began to close its own
witness: an odd loop's alternating relations, each with its lesser edge
first.  Those of rect-p8-1x2 and the torus, a single self-relation, did not
move.  The face orientation colors of every bipartite complex
in acceptance criterion 7's suite were recorded before the dual 2-coloring
became a parity system.

To print the current digests: ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from functools import cache

import pytest

from conftest import (
    assert_smith_transforms,
    make_crossing,
    make_tied_octagons,
    make_torus,
    make_twelve_gon,
)
from fqsurf.cli import main
from fqsurf.coloring import (
    assign_face_orientations,
    coloring_to_dict,
    solve_good_coloring,
    witness_to_dict,
)
from fqsurf.lattice import build_certificate, decide, verdict_to_dict
from fqsurf.loops import loop_report_to_dict, trace_geodesic_loops
from fqsurf.surface_complex import (
    CCW,
    CW,
    IntegerMatrix,
    canonical_json,
    complex_to_dict,
    dual_graph,
    snf_with_transforms,
)
from fqsurf.tessellation import (
    build_block_tessellation,
    build_rect_tessellation,
    derived_sequence,
    subdivide_four,
    subdivide_two,
    subdivision_map_to_dict,
)


@cache
def _block(p, g):
    return build_block_tessellation(p, g)


@cache
def _halved():
    return subdivide_two(build_rect_tessellation(8, 1, 2), axis=1)


@cache
def _quartered():
    return subdivide_four(build_rect_tessellation(12, 3, 3), axis=1)


def _certificate(cx, q):
    return canonical_json(build_certificate(cx, solve_good_coloring(cx), q))


def _verdict(p, q, g):
    return canonical_json(verdict_to_dict(decide(p, q, g, certify=True)))


def _cli_block_verdict():
    """Criterion 2: the p=6 block verdict written by ``fqsurf decide``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "verdict.json")
        argv = ["decide", "--p", "6", "--genus", "2", "--q", "2,3,2,3,2,3",
                "--certify", "-o", path]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        with open(path, encoding="utf-8") as fh:
            return fh.read()


CASES = {
    "complex/block-p6-g2": lambda: canonical_json(complex_to_dict(_block(6, 2))),
    "complex/block-p6-g17": lambda: canonical_json(complex_to_dict(_block(6, 17))),
    "complex/rect-p8-1x2": lambda: canonical_json(
        complex_to_dict(build_rect_tessellation(8, 1, 2))
    ),
    "complex/rect-p8-1x2-halved": lambda: canonical_json(complex_to_dict(_halved()[0])),
    "subdiv/rect-p8-1x2-halved": lambda: canonical_json(
        subdivision_map_to_dict(_halved()[1])
    ),
    "complex/rect-p12-3x3-quartered": lambda: canonical_json(
        complex_to_dict(_quartered()[0])
    ),
    "subdiv/rect-p12-3x3-quartered": lambda: canonical_json(
        subdivision_map_to_dict(_quartered()[1])
    ),
    "loops/block-p6-g2": lambda: canonical_json(
        loop_report_to_dict(trace_geodesic_loops(_block(6, 2)))
    ),
    "loops/rect-p12-3x3-quartered": lambda: canonical_json(
        loop_report_to_dict(trace_geodesic_loops(_quartered()[0]))
    ),
    "coloring/propagate-block-p6-g17": lambda: canonical_json(
        coloring_to_dict(solve_good_coloring(_block(6, 17), "propagate"))
    ),
    "coloring/exhaustive-block-p6-g2": lambda: canonical_json(
        coloring_to_dict(solve_good_coloring(_block(6, 2), "exhaustive"))
    ),
    "cert/criterion-2-block-p6-g2": _cli_block_verdict,
    "cert/criterion-3-halving": lambda: _certificate(
        _halved()[0], derived_sequence((3, 2, 9, 2, 3, 2, 9, 2), 2, 1)
    ),
    "cert/criterion-4-quartering": lambda: _certificate(
        _quartered()[0], derived_sequence((2,) * 12, 4, 1)
    ),
    "verdict/block-p6-g17": lambda: _verdict(6, (2, 3) * 3, 17),
    "verdict/subdiv2-p8-g16": lambda: _verdict(8, (3, 2, 9, 2, 3, 2, 9, 2), 16),
    "verdict/subdiv4-p12-g28": lambda: _verdict(12, (2,) * 12, 28),
    "verdict/ruled-out-p8-g2": lambda: _verdict(8, (2, 3, 4, 5, 6, 7, 8, 9), 2),
    "verdict/unknown-p6-g5": lambda: _verdict(6, (2, 3, 5, 7, 2, 3), 5),
    "dot/block-p6-g2": lambda: dual_graph(_block(6, 2)).to_dot(),
}

WITNESS_COMPLEXES = {
    "rect-p8-1x2": lambda: build_rect_tessellation(8, 1, 2),
    "rect-p8-3x2": lambda: build_rect_tessellation(8, 3, 2),
    "rect-p12-3x3": lambda: build_rect_tessellation(12, 3, 3),
    "twelve-gon": make_twelve_gon,
    "torus": make_torus,
    "tied-octagons": make_tied_octagons,
}


def _witness(make, mode):
    return canonical_json(witness_to_dict(solve_good_coloring(make(), mode)))


for _name, _make in WITNESS_COMPLEXES.items():
    CASES[f"witness/propagate-{_name}"] = lambda m=_make: _witness(m, "propagate")
    if _make().num_edges <= 22:
        CASES[f"witness/exhaustive-{_name}"] = lambda m=_make: _witness(m, "exhaustive")
for _p, _mode in [(8, "propagate"), (8, "exhaustive"), (16, "propagate")]:
    CASES[f"coloring/{_mode}-rect-p{_p}-2x2"] = lambda p=_p, mode=_mode: canonical_json(
        coloring_to_dict(solve_good_coloring(build_rect_tessellation(p, 2, 2), mode))
    )

ORIENTATION_COMPLEXES = {
    "block-p6-g2": lambda: _block(6, 2),
    "block-p6-g3": lambda: _block(6, 3),
    "block-p8-g3": lambda: _block(8, 3),
    "block-p10-g4": lambda: _block(10, 4),
    "rect-p8-1x2-halved": lambda: _halved()[0],
    "rect-p12-3x3-quartered": lambda: _quartered()[0],
    "crossing": make_crossing,
}


def _orientation(make):
    colors = assign_face_orientations(make()).colors
    return canonical_json(sorted(colors.items()))


for _name, _make in ORIENTATION_COMPLEXES.items():
    CASES[f"orientation/{_name}"] = lambda m=_make: _orientation(m)

# small matrices for Smith transforms: non-unit pivots, a divisibility
# fix-up, zero rows and columns, negative entries and empty shapes
MATRICES = {
    "diag-2-3": IntegerMatrix([[2, 0], [0, 3]]),
    "diag-4-6-zero": IntegerMatrix([[4, 0, 0], [0, 6, 0], [0, 0, 0]]),
    "nonunit-3x3": IntegerMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]),
    "zero-row-col": IntegerMatrix([[0, 0, 0, 0], [0, 4, 0, 6], [0, 0, 0, 0], [0, 6, 0, 9]]),
    "negative-2x2": IntegerMatrix([[-4, 6], [10, -15]]),
    "wide-2x4": IntegerMatrix([[3, 5, 7, 0], [6, -2, 4, 8]]),
    "tall-4x2": IntegerMatrix([[6, 4], [9, 6], [0, 12], [15, -10]]),
    "unimodular-3x3": IntegerMatrix([[2, 3, 1], [1, 2, 1], [1, 1, 1]]),
    "zero-2x3": IntegerMatrix([[0, 0, 0], [0, 0, 0]]),
    "dense-4x5": IntegerMatrix([[12, -18, 30, 6, 0], [8, 4, -16, 20, 2],
                                [-9, 27, 15, 3, 6], [14, 7, 21, -28, 35]]),
    "empty-0x3": IntegerMatrix([], 0, 3),
    "empty-3x0": IntegerMatrix([[], [], []], 3, 0),
}


def _transforms(m):
    d, u, v = snf_with_transforms(m)
    return canonical_json({"d": d.data, "u": u.data, "v": v.data})


for _name, _m in MATRICES.items():
    CASES[f"snf/{_name}"] = lambda m=_m: _transforms(m)

DIGESTS = {
    "cert/criterion-2-block-p6-g2": "1e2df631ad5258ade3f2a28de3cfb54565828c77c4f4546473ed754ab8c7df2d",
    "cert/criterion-3-halving": "324493b744d33a243076ef9150e8d9316c94c3edd87e0ae7978d737234888bbc",
    "cert/criterion-4-quartering": "986e3e2266ddb6ca187eebdeb3ab163e835bada8f7d29e98a843d9665ea0592e",
    "coloring/exhaustive-block-p6-g2": "6ae8e96229054c31f3a02a2f69ad6a6f4c6b2eb32b4ca4692269feeffb210b38",
    "coloring/exhaustive-rect-p8-2x2": "faa8017f261e3728d0071184be9ca87836bae81530b91b184593fd8599244185",
    "coloring/propagate-block-p6-g17": "15643f8ef6116710385e595f6aeb50048a30ee0b67bb1ff9a2f94c4f61670d5a",
    "coloring/propagate-rect-p16-2x2": "4a758eb14c95ac16b9eee6e204374c722f246d1796098b87819e61f3d9962b2a",
    "coloring/propagate-rect-p8-2x2": "1a313a7228b3935d7f9f08bc34b40b97e0df718aaa2b7bc968f224e89bcf315f",
    "complex/block-p6-g17": "6b916400f505470845c5f97e618a85eec3d343761368ef85612a8b60a25dae9b",
    "complex/block-p6-g2": "c468ae6e0880d174c3384f604802c1d09c8b2d033bf5db1a2c8c19b678d64216",
    "complex/rect-p12-3x3-quartered": "24125809c353ece6c7bf948500af93c889fd342da845683b999b76039ba3b60c",
    "complex/rect-p8-1x2": "4ce84e9c914cd689bab9ca0e2fd3e37c9a819a473e27eb5452693ab98a89d78f",
    "complex/rect-p8-1x2-halved": "9f21449868714e5a8521c491afd79bec179fa23e4241f5347fa7a8908e840fa9",
    "dot/block-p6-g2": "7a283f72c0c70d06d1a9f44ec1bc7ab1241fe1845856444d38e62cdb6fcd7a23",
    "loops/block-p6-g2": "66995a00ac61eebfbc92d9908739ee46bb0353526c004fcd4f1db4c1619c320a",
    "loops/rect-p12-3x3-quartered": "17f1648b9cdc20e9b78fdc06096cd470ef73a7373f4f86bd55e5e9eed10bf2db",
    "orientation/block-p10-g4": "6722383973d67b33e45fa036dcdbb274ccb40e8ab71e5c178bab744ee2351fd0",
    "orientation/block-p6-g2": "6722383973d67b33e45fa036dcdbb274ccb40e8ab71e5c178bab744ee2351fd0",
    "orientation/block-p6-g3": "8d741502bcfb365407301b1a18ec622a09b2c32bbde1e8b992baf668c558bd6b",
    "orientation/block-p8-g3": "6722383973d67b33e45fa036dcdbb274ccb40e8ab71e5c178bab744ee2351fd0",
    "orientation/crossing": "6867a3e4960a3cb6639b1e5fc59580d5a0e984747a6621300343deed5aead537",
    "orientation/rect-p12-3x3-quartered": "ada1458caa632453fcf2e3842ee8d61d16ae88cb3b77111a58fa0e14dc96044c",
    "orientation/rect-p8-1x2-halved": "6867a3e4960a3cb6639b1e5fc59580d5a0e984747a6621300343deed5aead537",
    "snf/dense-4x5": "8f1f4a71306ff58c530811447f2575c2476d6d104ad38811c32ea088759424ef",
    "snf/diag-2-3": "1a7b5846c41e3c7fa16c2a079b540e2a23bed9c323a00e1bca7c73408437b1e1",
    "snf/diag-4-6-zero": "db14ac426c169f186b701053584071f76b694747c44ba4b9f66c8e3fa2f09904",
    "snf/empty-0x3": "eb99f3e5ced045a04b27fb955b574d9c4fa988da166abe2346406c1e7bc3a100",
    "snf/empty-3x0": "0046d40a6a26049e2bf84744ebd38b3456bb18d54ac123133fb4741b7258e5f4",
    "snf/negative-2x2": "e4cd76ce6459cdef91777ab6e0498323ef0c412790a871d28641c22c829da080",
    "snf/nonunit-3x3": "ea776b3b630ca74d3fbb959214a231874556a6e8b13303ffc3ccdfa4dbc5cf56",
    "snf/tall-4x2": "0ca4ee736b24e4e4bd3ee752ca2110d638ea845774928a733870a49efc1ddb70",
    "snf/unimodular-3x3": "25a0aeef4e78414e95234596f29b1c30c77b4f3e3da8282ebe89f1bff8f7063a",
    "snf/wide-2x4": "ebbedfb1a8b5d363dcdae55d7bd71d369b4703f8750dd3dac6c645f7c01b00c3",
    "snf/zero-2x3": "b54076d301c118841f7cb8645384df94a6d622633ee355cd27b0930054331aac",
    "snf/zero-row-col": "fad838e2eaa33e4e09ffaab12a6aaf6be509d4c4f24d26691c65b373379aecda",
    "subdiv/rect-p12-3x3-quartered": "06d24d5a3c769aea0f2c96fbc4e53af719799b92dfa1e11b00706caed1312b25",
    "subdiv/rect-p8-1x2-halved": "1530c25c4226892f364384ca264316e4d5022de54244ba9c004f447799fda392",
    "verdict/block-p6-g17": "d5e7723abf84629a6ad95c5588c8f2c43e20d627e93e82c3b9851b62edd3ffeb",
    "verdict/ruled-out-p8-g2": "c5aa9e45ea06bf550620033c5b6446d5668194f684ef6251a62760ddc7be0f9d",
    "verdict/subdiv2-p8-g16": "29c13e1cee7731a8e30d98740e0c9a2a4e9a7acb93d071a6865a3f87e001c73e",
    "verdict/subdiv4-p12-g28": "630c4247e00ea23938dad6187ddcd153a32c315d9e892998f75fbb227077942b",
    "verdict/unknown-p6-g5": "1ac48bbc72a5805255a006a3c44b50be24f0bdf8efb117cc6063cca1e374e6ef",
    "witness/exhaustive-rect-p8-1x2": "2342f7277627f8e438d5dbf4e1f7da1e3cd0de80096e3bfd4a8260e48769458c",
    "witness/exhaustive-tied-octagons": "20e67605133f4115700e4c2564dda04bc552fee3b4388935df2fbf7fc8192d00",
    "witness/exhaustive-torus": "2342f7277627f8e438d5dbf4e1f7da1e3cd0de80096e3bfd4a8260e48769458c",
    "witness/exhaustive-twelve-gon": "5cc657e2658bf67ec56e3b1028ade48618ea684eadd2e260216863d5f3b4e6b4",
    "witness/propagate-rect-p12-3x3": "a9a88ecaaa9d75eaa172144f6bb4332e12568509d5989920cc5eb9b0b8d61d2f",
    "witness/propagate-rect-p8-1x2": "2342f7277627f8e438d5dbf4e1f7da1e3cd0de80096e3bfd4a8260e48769458c",
    "witness/propagate-rect-p8-3x2": "501306b5f0b4553cdea3d8d0e3572f8e8e78983e94ead80b9dc1540f37f87aab",
    "witness/propagate-tied-octagons": "20e67605133f4115700e4c2564dda04bc552fee3b4388935df2fbf7fc8192d00",
    "witness/propagate-torus": "2342f7277627f8e438d5dbf4e1f7da1e3cd0de80096e3bfd4a8260e48769458c",
    "witness/propagate-twelve-gon": "5cc657e2658bf67ec56e3b1028ade48618ea684eadd2e260216863d5f3b4e6b4",
}


SWEEP_RECTS = {
    "two": (subdivide_two, [(8, 1, 2), (8, 2, 2), (16, 1, 2)]),
    "four": (subdivide_four, [(12, 1, 3), (20, 1, 3)]),
}

SWEEP = {
    f"{kind}/rect-p{rect[0]}-{rect[1]}x{rect[2]}/axis-{axis or 'auto'}": (
        kind, rect, axis
    )
    for kind, (_op, rects) in SWEEP_RECTS.items()
    for rect in rects
    for axis in [*range(1, rect[0] + 1), None]
}


@cache
def _rect(p, a, b):
    return build_rect_tessellation(p, a, b)


def _sweep_outcome(kind, rect, axis):
    """Digest of complex, map and loop report, or the exception class name."""
    op = SWEEP_RECTS[kind][0]
    try:
        out, smap = op(_rect(*rect), axis=axis)
    except Exception as exc:  # the class is the pinned outcome
        return type(exc).__name__, None
    text = (
        canonical_json(complex_to_dict(out))
        + canonical_json(subdivision_map_to_dict(smap))
        + canonical_json(loop_report_to_dict(trace_geodesic_loops(out)))
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), out


SWEEP_PINS = {
    "four/rect-p12-1x3/axis-1": "c563d3c3947f9605abf15ef764b4cbf6b379b6469cb71aada0c1371655e5c2f3",
    "four/rect-p12-1x3/axis-10": "7ea02475474f7c7afe854ded2d1a9f8e71da997376727ed375670943245f9ede",
    "four/rect-p12-1x3/axis-11": "CutSystemFailure",
    "four/rect-p12-1x3/axis-12": "CutSystemFailure",
    "four/rect-p12-1x3/axis-2": "CutSystemFailure",
    "four/rect-p12-1x3/axis-3": "CutSystemFailure",
    "four/rect-p12-1x3/axis-4": "cf86af3f5e8fbc42c8b2733732d44f0b0358ec3550f11619da50728ffe92fa03",
    "four/rect-p12-1x3/axis-5": "CutSystemFailure",
    "four/rect-p12-1x3/axis-6": "CutSystemFailure",
    "four/rect-p12-1x3/axis-7": "6f8c77f848b3c5bd78879a9415b07cec9e5fc551a77e368c4d726d2c06cc6e9a",
    "four/rect-p12-1x3/axis-8": "CutSystemFailure",
    "four/rect-p12-1x3/axis-9": "CutSystemFailure",
    "four/rect-p12-1x3/axis-auto": "c563d3c3947f9605abf15ef764b4cbf6b379b6469cb71aada0c1371655e5c2f3",
    "four/rect-p20-1x3/axis-1": "aeeaf62845d13be966bee0491dab85816b979baa4e16702ef274c0f81d1f0014",
    "four/rect-p20-1x3/axis-10": "CutSystemFailure",
    "four/rect-p20-1x3/axis-11": "fdd02b241c495c89890800f5ca02b13494a498d70af75f7a03cc57c811dab41a",
    "four/rect-p20-1x3/axis-12": "CutSystemFailure",
    "four/rect-p20-1x3/axis-13": "CutSystemFailure",
    "four/rect-p20-1x3/axis-14": "CutSystemFailure",
    "four/rect-p20-1x3/axis-15": "CutSystemFailure",
    "four/rect-p20-1x3/axis-16": "fb072d9c9f53b26d75cdf4c62f99012f1847b99cd5653a2fc452a3f270590c1b",
    "four/rect-p20-1x3/axis-17": "CutSystemFailure",
    "four/rect-p20-1x3/axis-18": "CutSystemFailure",
    "four/rect-p20-1x3/axis-19": "CutSystemFailure",
    "four/rect-p20-1x3/axis-2": "CutSystemFailure",
    "four/rect-p20-1x3/axis-20": "CutSystemFailure",
    "four/rect-p20-1x3/axis-3": "CutSystemFailure",
    "four/rect-p20-1x3/axis-4": "CutSystemFailure",
    "four/rect-p20-1x3/axis-5": "CutSystemFailure",
    "four/rect-p20-1x3/axis-6": "11919535a5cc642a98a2e8182ade96cb7de8774303a7b248c3afed2c5a8a45aa",
    "four/rect-p20-1x3/axis-7": "CutSystemFailure",
    "four/rect-p20-1x3/axis-8": "CutSystemFailure",
    "four/rect-p20-1x3/axis-9": "CutSystemFailure",
    "four/rect-p20-1x3/axis-auto": "aeeaf62845d13be966bee0491dab85816b979baa4e16702ef274c0f81d1f0014",
    "two/rect-p16-1x2/axis-1": "1441404fa832f29ed1f184cbd9256211d7320f86d1d2c2707cef5d98b5af932b",
    "two/rect-p16-1x2/axis-10": "CutSystemFailure",
    "two/rect-p16-1x2/axis-11": "CutSystemFailure",
    "two/rect-p16-1x2/axis-12": "CutSystemFailure",
    "two/rect-p16-1x2/axis-13": "CutSystemFailure",
    "two/rect-p16-1x2/axis-14": "CutSystemFailure",
    "two/rect-p16-1x2/axis-15": "CutSystemFailure",
    "two/rect-p16-1x2/axis-16": "CutSystemFailure",
    "two/rect-p16-1x2/axis-2": "CutSystemFailure",
    "two/rect-p16-1x2/axis-3": "CutSystemFailure",
    "two/rect-p16-1x2/axis-4": "CutSystemFailure",
    "two/rect-p16-1x2/axis-5": "CutSystemFailure",
    "two/rect-p16-1x2/axis-6": "CutSystemFailure",
    "two/rect-p16-1x2/axis-7": "CutSystemFailure",
    "two/rect-p16-1x2/axis-8": "CutSystemFailure",
    "two/rect-p16-1x2/axis-9": "883318426fc737a4155e106ec84928fb9007fa979271654ae2bd37934b3de66b",
    "two/rect-p16-1x2/axis-auto": "1441404fa832f29ed1f184cbd9256211d7320f86d1d2c2707cef5d98b5af932b",
    "two/rect-p8-1x2/axis-1": "2a62bf061fc4c39892e4a17e6601d51a16cb06fe72eeb8cbe18b28b0592e38c1",
    "two/rect-p8-1x2/axis-2": "CutSystemFailure",
    "two/rect-p8-1x2/axis-3": "CutSystemFailure",
    "two/rect-p8-1x2/axis-4": "CutSystemFailure",
    "two/rect-p8-1x2/axis-5": "7b09f940f58cec19cbf53339647a639941d3d94d769a4c9a8e6ea3608495f2ee",
    "two/rect-p8-1x2/axis-6": "CutSystemFailure",
    "two/rect-p8-1x2/axis-7": "CutSystemFailure",
    "two/rect-p8-1x2/axis-8": "CutSystemFailure",
    "two/rect-p8-1x2/axis-auto": "2a62bf061fc4c39892e4a17e6601d51a16cb06fe72eeb8cbe18b28b0592e38c1",
    "two/rect-p8-2x2/axis-1": "99838749bbee16b8831ef4a5424b7bdc7148b58e6aea26d6a6a3b5d0e02b48dd",
    "two/rect-p8-2x2/axis-2": "CutSystemFailure",
    "two/rect-p8-2x2/axis-3": "79f172ece790522ae1cdd3b3a9ec6a3a943013ccf34f6f1722ec42e397525743",
    "two/rect-p8-2x2/axis-4": "CutSystemFailure",
    "two/rect-p8-2x2/axis-5": "3dcd9c5564e6e59874bfbb1b6ff05a832bddbf32a9861be16f81e503c6a30d1c",
    "two/rect-p8-2x2/axis-6": "CutSystemFailure",
    "two/rect-p8-2x2/axis-7": "93c7728dbeded7b9ecc4bde6a516734e31a1976ef242ec76163f1d04b2f0de9c",
    "two/rect-p8-2x2/axis-8": "CutSystemFailure",
    "two/rect-p8-2x2/axis-auto": "99838749bbee16b8831ef4a5424b7bdc7148b58e6aea26d6a6a3b5d0e02b48dd",
}


def _digest(name):
    return hashlib.sha256(CASES[name]().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert _digest(name) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_snf_transforms_are_unimodular(name):
    assert_smith_transforms(MATRICES[name])


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_subdivision_sweep(name):
    pin, out = _sweep_outcome(*SWEEP[name])
    assert pin == SWEEP_PINS[name]
    if out is not None:
        colors = assign_face_orientations(out).colors
        assert [f.chirality for f in out.faces] == [
            CCW if colors[f.id] == 0 else CW for f in out.faces
        ]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{_digest(name)}",')
    for name in sorted(SWEEP):
        print(f'    "{name}": "{_sweep_outcome(*SWEEP[name])[0]}",')
