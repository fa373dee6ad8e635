"""End-to-end acceptance suite.

Each test exercises one headline capability of the package and prints a
single ``criterion N`` line with its verdict and measured runtime, so a
verbose run doubles as a short report.  The time limits are part of the
contract: they are generous enough to pass comfortably on modest
hardware, and exist to catch accidental complexity blow-ups rather than
micro-regressions.
"""

import json
import random
import time

import pytest

from conftest import make_crossing, make_torus, make_twelve_gon, reference_components
from fqsurf.cli import main
from fqsurf.coloring import (
    EXHAUSTIVE_EDGE_LIMIT,
    EdgeColoring,
    assign_face_orientations,
    build_constraints,
    solve_good_coloring,
    verify_good_coloring,
)
from fqsurf.lattice import (
    assign_groups,
    build_certificate,
    build_link_graph,
    decide,
    symmetric_axes,
    symmetry_closure,
    verdict_to_dict,
    verify_link_conditions,
)
from fqsurf.loops import loops_generate_h1, trace_geodesic_loops
from fqsurf.surface_complex import (
    betti_numbers,
    canonical_json,
    dual_graph,
    validate,
)
from fqsurf.tessellation import (
    NonIntegralFaceCount,
    build_block_tessellation,
    build_rect_tessellation,
    derived_sequence,
    face_count,
    subdivide_four,
    subdivide_two,
)


class _Timed:
    """Times a criterion body and prints one pass/fail summary line."""

    def __init__(self, number, label, limit):
        self.number = number
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed < self.limit
        status = "PASS" if ok else "FAIL"
        print(
            f"criterion {self.number:2d}: {status}  "
            f"{elapsed:7.3f}s (limit {self.limit:g}s)  {self.label}"
        )
        if exc_type is None and elapsed >= self.limit:
            raise AssertionError(
                f"criterion {self.number} exceeded its time limit: "
                f"{elapsed:.3f}s >= {self.limit:g}s"
            )
        return False


def _builder_outputs():
    """Every tessellation the builders can produce with at most 36 faces."""
    outputs = [
        ("block 6/2", build_block_tessellation(6, 2)),
        ("block 6/3", build_block_tessellation(6, 3)),
        ("block 6/4", build_block_tessellation(6, 4)),
        ("block 8/3", build_block_tessellation(8, 3)),
        ("block 10/4", build_block_tessellation(10, 4)),
        ("rect 8 1x2", build_rect_tessellation(8, 1, 2)),
        ("rect 8 3x2", build_rect_tessellation(8, 3, 2)),
        ("rect 12 3x3", build_rect_tessellation(12, 3, 3)),
        ("hex 4", subdivide_two(build_rect_tessellation(8, 1, 2), axis=1)[0]),
        ("hex 36", subdivide_four(build_rect_tessellation(12, 3, 3), axis=1)[0]),
    ]
    return outputs


def _fixture_suite():
    """Builder outputs plus the hand-made fixtures with odd loops."""
    suite = [
        ("block 6/2", build_block_tessellation(6, 2)),
        ("block 6/3", build_block_tessellation(6, 3)),
        ("block 8/3", build_block_tessellation(8, 3)),
        ("block 10/4", build_block_tessellation(10, 4)),
        ("rect 8 1x2", build_rect_tessellation(8, 1, 2)),
        ("rect 8 3x2", build_rect_tessellation(8, 3, 2)),
        ("rect 12 3x3", build_rect_tessellation(12, 3, 3)),
        ("hex 4", subdivide_two(build_rect_tessellation(8, 1, 2), axis=1)[0]),
        ("hex 36", subdivide_four(build_rect_tessellation(12, 3, 3), axis=1)[0]),
        ("crossing", make_crossing()),
        ("twelve-gon", make_twelve_gon()),
        ("torus", make_torus()),
    ]
    return suite


def test_criterion_01_face_count_table():
    with _Timed(1, "face-count table 5<=p<=16, 2<=g<=12", 0.1):
        for p in range(5, 17):
            for g in range(2, 13):
                target = 8 * (g - 1)
                if target % (p - 4) == 0:
                    assert face_count(p, g) == target // (p - 4)
                else:
                    with pytest.raises(NonIntegralFaceCount):
                        face_count(p, g)


def test_criterion_02_block_instance(tmp_path):
    with _Timed(2, "p=6 block certificate via the command line", 1.0):
        out = tmp_path / "verdict.json"
        rc = main(
            [
                "decide",
                "--p", "6",
                "--genus", "2",
                "--q", "2,3,2,3,2,3",
                "--certify",
                "-o", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["outcome"] == "Exists"
        assert doc["method"] == "Block"

        cert = doc["certificate"]
        assert cert["ok"] is True
        assert len(cert["vertices"]) == 6
        for vertex in cert["vertices"]:
            assert vertex["product_ok"]
            assert vertex["intersection_ok"]
            assert vertex["index_ok"]
            assert vertex["link_ok"]
            assert sorted(vertex["link_sides"]) == [2, 3]

        # Independent route: rebuild the assignment and enumerate every
        # coset link from scratch.
        cx = build_block_tessellation(6, 2)
        assignment = assign_groups(cx, solve_good_coloring(cx), (2, 3, 2, 3, 2, 3))
        assert assignment.certified
        for v in range(cx.num_vertices):
            link = build_link_graph(assignment, v)
            assert link.simple and link.complete
            assert sorted(len(vs) for vs in link.side_vertices.values()) == [2, 3]


def test_criterion_03_halving_instance():
    with _Timed(3, "p=8 halving pipeline certificate", 1.0):
        q = (3, 2, 9, 2, 3, 2, 9, 2)
        assert face_count(8, 2) == 2

        rect = build_rect_tessellation(8, 1, 2)
        hexes, submap = subdivide_two(rect, axis=1)
        assert hexes.num_faces == 4
        assert all(len(f.sides) == 6 for f in hexes.faces)

        derived = derived_sequence(q, 2, submap.axis)
        assert derived == (3, 2, 9, 2, 3, 2)

        cert = build_certificate(hexes, solve_good_coloring(hexes), derived)
        assert cert["ok"] is True
        assert len(cert["vertices"]) == hexes.num_vertices == 6
        for vertex in cert["vertices"]:
            assert vertex["product_ok"]
            assert vertex["intersection_ok"]
            assert vertex["index_ok"]
            assert vertex["link_ok"]

        verdict = decide(8, q, 2, certify=True)
        assert verdict.outcome == "Exists"
        assert verdict.method == "Subdiv2"
        assert verdict.certificate["ok"] is True


def test_criterion_04_quartering_instance():
    with _Timed(4, "p=12 quartering pipeline certificate", 10.0):
        q = (2,) * 12
        assert face_count(12, 10) == 9

        rect = build_rect_tessellation(12, 3, 3)
        hexes, submap = subdivide_four(rect, axis=1)
        assert hexes.num_faces == 36

        derived = derived_sequence(q, 4, submap.axis)
        assert derived == (2,) * 6

        cert = build_certificate(hexes, solve_good_coloring(hexes), derived)
        assert cert["ok"] is True
        assert len(cert["vertices"]) == hexes.num_vertices
        for vertex in cert["vertices"]:
            assert vertex["product_ok"]
            assert vertex["intersection_ok"]
            assert vertex["index_ok"]
            assert vertex["link_ok"]

        verdict = decide(12, q, 10, certify=True)
        assert verdict.outcome == "Exists"
        assert verdict.method == "Subdiv4"
        assert verdict.certificate["ok"] is True


def test_criterion_05_symmetry_rule_outs():
    with _Timed(5, "random q without axes are ruled out", 1.0):
        rng = random.Random(1729)

        def sample_without_axis(p, pieces):
            while True:
                q = tuple(rng.randrange(2, 10) for _ in range(p))
                if not symmetric_axes(q, pieces):
                    return q

        for _ in range(200):
            verdict = decide(8, sample_without_axis(8, 2), 2)
            assert verdict.outcome == "RuledOut"
            assert verdict.method == "TwoSymmetry"

        for genus in (2, 10):  # one face and nine faces respectively
            for _ in range(100):
                verdict = decide(12, sample_without_axis(12, 4), genus)
                assert verdict.outcome == "RuledOut"
                assert verdict.method == "FourSymmetry"


def test_criterion_06_loops_generate_homology():
    with _Timed(6, "geodesic loops generate first homology", 5.0):
        for name, cx in _builder_outputs():
            assert cx.num_faces <= 36, name
            report = trace_geodesic_loops(cx)
            assert loops_generate_h1(cx, report.loops), name
            genus = validate(cx).genus
            assert betti_numbers(cx)[1] == 2 * genus, name


def test_criterion_07_orientation_equivalence():
    with _Timed(7, "bipartite dual iff all loops even", 1.0):
        suite = _fixture_suite()
        assert len(suite) >= 10
        odd_fixtures = 0
        for name, cx in suite:
            report = trace_geodesic_loops(cx)
            orientation = assign_face_orientations(cx)
            all_even = not report.odd_loops
            assert orientation.bipartite == all_even, name
            if orientation.bipartite:
                continue

            odd_fixtures += 1
            # Witness on the dual side: a closed walk of odd length.
            cycle = orientation.odd_cycle
            assert cycle and len(cycle) % 2 == 1, name
            adjacent = {frozenset((a, b)) for a, b, _ in dual_graph(cx).edges}
            for fa, fb in zip(cycle, cycle[1:] + cycle[:1]):
                assert frozenset((fa, fb)) in adjacent, name
            # Witness on the loop side: the odd loops themselves.
            assert report.odd_loops, name
            for loop_id in report.odd_loops:
                assert report.loops[loop_id].undirected_length % 2 == 1, name
        assert odd_fixtures >= 3


def test_criterion_08_coloring_oracle_agreement():
    with _Timed(8, "propagation agrees with exhaustive search", 60.0):
        small = [
            (name, cx)
            for name, cx in _fixture_suite()
            if cx.num_edges <= EXHAUSTIVE_EDGE_LIMIT
        ]
        assert len(small) >= 6
        counted = 0
        for name, cx in small:
            fast = solve_good_coloring(cx, mode="propagate")
            full = solve_good_coloring(cx, mode="exhaustive")
            assert isinstance(fast, EdgeColoring) == isinstance(full, EdgeColoring), name
            if not isinstance(fast, EdgeColoring):
                assert sum(c.parity for c in fast.cycle) % 2 == 1, name
                assert sum(c.parity for c in full.cycle) % 2 == 1, name
                continue

            for coloring in (fast, full):
                ok, violations = verify_good_coloring(cx, coloring)
                assert ok and not violations, name
            system = build_constraints(cx, trace_geodesic_loops(cx))
            assert full.solution_count == 2 ** len(reference_components(system)), name
            counted += 1
        assert counted >= 3


def test_criterion_09_link_oracle_cross_check():
    with _Timed(9, "two link verifiers agree, also on mutations", 2.0):
        instances = [
            (build_block_tessellation(6, 2), (2, 3) * 3),
            (build_block_tessellation(6, 3), (2, 3) * 3),
            (build_block_tessellation(8, 3), (2, 3) * 4),
            (build_block_tessellation(10, 4), (2, 3) * 5),
            (build_block_tessellation(12, 5), (2, 3) * 6),
        ]
        for cx, q in instances:
            coloring = solve_good_coloring(cx)
            assignment = assign_groups(cx, coloring, q)
            assert assignment.certified

            report = verify_link_conditions(assignment)
            links = {
                v: build_link_graph(assignment, v) for v in range(cx.num_vertices)
            }
            for v, check in report.checks.items():
                assert check.ok and links[v].ok

            mutated_colors = dict(coloring.colors)
            mutated_colors[0] ^= 1
            mutated = EdgeColoring(
                colors=mutated_colors,
                base_vertex=coloring.base_vertex,
                seed=coloring.seed,
                solution_count=None,
            )
            damaged = assign_groups(cx, mutated, q)
            checks = verify_link_conditions(damaged).checks
            direct = {v for v, c in checks.items() if not c.ok}
            by_graph = {
                v
                for v in range(cx.num_vertices)
                if not build_link_graph(damaged, v).ok
            }
            assert direct == by_graph
            assert direct


def test_criterion_10_reflection_closure():
    with _Timed(10, "reflection closures and their orbits", 0.1):
        assert symmetry_closure(8, [1, 3]) == ((1, 5), (2, 4, 6, 8), (3, 7))
        assert symmetry_closure(12, [1, 4, 5]) == (
            (1, 3, 5, 7, 9, 11), (2, 4, 6, 8, 10, 12)
        )


def test_criterion_11_deterministic_certificates(tmp_path):
    with _Timed(11, "repeat runs give byte-identical files", 30.0):
        block_files = []
        for run in range(2):
            path = tmp_path / f"block-{run}.json"
            rc = main(
                [
                    "decide",
                    "--p", "6",
                    "--genus", "2",
                    "--q", "2,3,2,3,2,3",
                    "--certify",
                    "-o", str(path),
                ]
            )
            assert rc == 0
            block_files.append(path.read_bytes())
        assert block_files[0] == block_files[1]

        def halving_bytes():
            hexes, submap = subdivide_two(build_rect_tessellation(8, 1, 2), axis=1)
            derived = derived_sequence((3, 2, 9, 2, 3, 2, 9, 2), 2, submap.axis)
            cert = build_certificate(hexes, solve_good_coloring(hexes), derived)
            return canonical_json(cert).encode("utf-8")

        def quartering_bytes():
            hexes, submap = subdivide_four(build_rect_tessellation(12, 3, 3), axis=1)
            derived = derived_sequence((2,) * 12, 4, submap.axis)
            cert = build_certificate(hexes, solve_good_coloring(hexes), derived)
            return canonical_json(cert).encode("utf-8")

        for run, payload in enumerate([halving_bytes(), halving_bytes()]):
            (tmp_path / f"halving-{run}.json").write_bytes(payload)
        assert (
            (tmp_path / "halving-0.json").read_bytes()
            == (tmp_path / "halving-1.json").read_bytes()
        )

        for run, payload in enumerate([quartering_bytes(), quartering_bytes()]):
            (tmp_path / f"quartering-{run}.json").write_bytes(payload)
        assert (
            (tmp_path / "quartering-0.json").read_bytes()
            == (tmp_path / "quartering-1.json").read_bytes()
        )

        for p, q, genus in [
            (8, (3, 2, 9, 2, 3, 2, 9, 2), 2),
            (12, (2,) * 12, 10),
        ]:
            first = canonical_json(verdict_to_dict(decide(p, q, genus, certify=True)))
            second = canonical_json(verdict_to_dict(decide(p, q, genus, certify=True)))
            assert first == second


def test_criterion_12_loops_generate_homology_at_256_faces():
    with _Timed(12, "geodesic loops generate first homology at F=256", 5.0):
        for name, cx in [
            ("block 6/65", build_block_tessellation(6, 65)),
            ("hex 256 halved",
             subdivide_two(build_rect_tessellation(8, 64, 2), axis=1)[0]),
            ("hex 256 quartered",
             subdivide_four(build_rect_tessellation(12, 8, 8), axis=1)[0]),
        ]:
            assert cx.num_faces == 256, name
            assert loops_generate_h1(cx, trace_geodesic_loops(cx).loops), name
            assert betti_numbers(cx) == (1, 130, 1), name


def test_criterion_13_thick_links():
    with _Timed(13, "thick block certificate, every coset link K_{30,42}", 1.0):
        verdict = decide(6, (30, 42) * 3, 17, certify=True)
        assert (verdict.outcome, verdict.method) == ("Exists", "Block")
        cert = verdict.certificate
        assert cert["ok"] is True
        assert len(cert["vertices"]) == 96
        for vertex in cert["vertices"]:
            assert vertex["link_ok"]
            assert sorted(vertex["link_sides"]) == [30, 42]


def test_criterion_14_loops_generate_homology_at_1024_faces():
    with _Timed(14, "geodesic loops generate first homology at F=1024", 10.0):
        for name, cx in [
            ("block 6/257", build_block_tessellation(6, 257)),
            ("hex 1024 halved",
             subdivide_two(build_rect_tessellation(8, 256, 2), axis=1)[0]),
            ("hex 1024 quartered",
             subdivide_four(build_rect_tessellation(12, 16, 16), axis=1)[0]),
        ]:
            assert cx.num_faces == 1024, name
            assert loops_generate_h1(cx, trace_geodesic_loops(cx).loops), name
            assert betti_numbers(cx) == (1, 514, 1), name


def test_criterion_15_block_certificate_at_4096_faces():
    with _Timed(15, "block certificate at F=4096", 5.0):
        verdict = decide(6, (2, 3) * 3, 1025, certify=True)
        assert (verdict.outcome, verdict.method) == ("Exists", "Block")
        assert verdict.certificate["ok"] is True
        assert face_count(6, 1025) == 4096


_SWEEP_MULTIPLIERS = (1, 2, 1, 3, 2, 1, 1, 5, 1, 2, 3, 1, 1, 2, 1, 1, 3, 1, 2, 1)


def _sweep_sequences(p):
    """Alternating multiples of d and e, plain, 2- and 4-symmetric about axis 1.

    Odd (1-based) positions take multiples of d and even ones multiples of
    e.  A fold maps each 0-based position to the multiplier it reads:
    reflecting k -> -k makes the sequence 2-symmetric about axis 1, and
    also reading k modulo p/2 makes it 4-symmetric.  The last sequence has
    no alternating decomposition.
    """
    half = p // 2
    folds = [lambda k: k, lambda k: min(k, -k % p)]
    if p % 4 == 0:
        folds.append(lambda k: min(k % half, -k % half))
    for d, e in ((2, 4), (6, 3), (3, 2)):
        for fold in folds:
            yield tuple(
                (d if k % 2 == 0 else e) * _SWEEP_MULTIPLIERS[fold(k)] for k in range(p)
            )
    yield tuple(2 + (k % 4 == 2) for k in range(p))


def test_criterion_16_certified_sweep_has_no_internal_error():
    with _Timed(16, "certified decide sweep, no InternalError", 10.0):
        reached = set()
        subdiv4_genera = set()
        for p in range(6, 21, 2):
            genera = [g for g in range(2, 14) if 8 * (g - 1) % (p - 4) == 0]
            if p == 12:
                genera += [16, 28]
            for g in genera:
                for q in _sweep_sequences(p):
                    verdict = decide(p, q, g, certify=True)
                    assert verdict.outcome != "InternalError", (p, q, g, verdict.reason)
                    reached.add((verdict.outcome, verdict.method))
                    if verdict.method == "Subdiv4":
                        subdiv4_genera.add((p, g))
        assert reached == {
            ("Exists", "Block"),
            ("Exists", "Subdiv2"),
            ("Exists", "Subdiv4"),
            ("RuledOut", "TwoSymmetry"),
            ("RuledOut", "FourSymmetry"),
            ("Unknown", None),
        }
        assert {(12, 10), (12, 16), (12, 28)} <= subdiv4_genera


def test_criterion_17_thicker_links():
    with _Timed(17, "thicker block certificate, every coset link K_{120,168}", 1.5):
        verdict = decide(6, (120, 168) * 3, 5, certify=True)
        assert (verdict.outcome, verdict.method) == ("Exists", "Block")
        cert = verdict.certificate
        assert cert["ok"] is True
        assert cert["vertices"]
        for vertex in cert["vertices"]:
            assert vertex["link_ok"]
            assert sorted(vertex["link_sides"]) == [120, 168]


def test_criterion_18_homology_at_4096_faces():
    cx = build_block_tessellation(6, 1025)
    loops = trace_geodesic_loops(cx).loops
    assert cx.num_faces == 4096
    with _Timed(18, "loops generate H1 and Betti numbers at F=4096", 1.0):
        assert loops_generate_h1(cx, loops)
        assert betti_numbers(cx) == (1, 2050, 1)
