"""End-to-end command coverage: files in, files out, exit codes."""

import importlib
import json
from pathlib import Path

import pytest

from fqsurf.cli import main
from fqsurf.coloring import solve_good_coloring
from fqsurf.lattice import build_certificate, decide, verdict_to_dict
from fqsurf.surface_complex import canonical_json, complex_to_dict
from fqsurf.tessellation import build_rect_tessellation, subdivide_two

from conftest import make_octagon, make_open_square


def write_complex(path, cx):
    path.write_text(canonical_json(complex_to_dict(cx)))
    return str(path)


def _drop(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _side_without_reversed(doc):
    del doc["faces"][0]["sides"][0]["reversed"]
    return doc


def _side_reversed(value):
    def edit(doc):
        doc["faces"][0]["sides"][0]["reversed"] = value
        return doc
    return edit


def _text_edge_type(doc):
    doc["edges"][0]["type"] = "1"
    return doc


def _face_short_a_side(doc):
    doc["faces"][0]["sides"].pop()
    return doc


def _replace(*path, value):
    """Set the entry at a key path to value."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc
    return edit


def test_console_script_entry_point_resolves():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, attr = scripts["fqsurf"].partition(":")
    target = getattr(importlib.import_module(module), attr)
    assert callable(target) and target is main


class TestFaces:
    def test_prints_the_count(self, capsys):
        assert main(["faces", "--p", "6", "--genus", "2"]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_non_integral_is_a_domain_failure(self, capsys):
        assert main(["faces", "--p", "7", "--genus", "2"]) == 1
        assert "error" in capsys.readouterr().err


class TestTessellate:
    def test_block_then_validate(self, tmp_path, capsys):
        out = str(tmp_path / "block.json")
        assert main(["tessellate", "--p", "6", "--genus", "2", "-o", out]) == 0
        assert main(["validate", "-i", out, "--genus", "2"]) == 0
        assert "valid (genus 2)" in capsys.readouterr().out

    def test_rect_grid(self, tmp_path):
        out = str(tmp_path / "rect.json")
        rc = main(
            ["tessellate", "--p", "8", "--genus", "2", "--rect", "1x2", "-o", out]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "rect.json").read_text())
        assert doc["format"] == "fq-complex/1"
        assert len(doc["faces"]) == 2

    def test_rect_genus_mismatch(self, tmp_path, capsys):
        out = str(tmp_path / "rect.json")
        rc = main(
            ["tessellate", "--p", "8", "--genus", "3", "--rect", "1x2", "-o", out]
        )
        assert rc == 1
        assert "genus" in capsys.readouterr().err

    def test_bad_grid_spec(self, tmp_path):
        out = str(tmp_path / "rect.json")
        assert (
            main(["tessellate", "--p", "8", "--genus", "2", "--rect", "one-by-two",
                  "-o", out])
            == 1
        )

    def test_non_integer_grid_spec(self, tmp_path, capsys):
        out = str(tmp_path / "rect.json")
        rc = main(["tessellate", "--p", "8", "--genus", "2", "--rect", "1xb",
                   "-o", out])
        assert rc == 1
        assert "--rect expects AxB with integers, got '1xb'" in capsys.readouterr().err

    def test_huge_grid_is_a_clean_mismatch(self, tmp_path, capsys):
        out = tmp_path / "rect.json"
        rc = main(["tessellate", "--p", "8", "--genus", "2", "--rect",
                   f"1x{10 ** 400}", "-o", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("faces; genus 2 needs 2\n")
        assert not out.exists()

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["tessellate", "--p", "12", "--genus", "10", "--rect", "3x3",
              "-o", str(a)])
        main(["tessellate", "--p", "12", "--genus", "10", "--rect", "3x3",
              "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestValidateCommand:
    def test_broken_complex_fails(self, tmp_path, capsys):
        path = write_complex(tmp_path / "open.json", make_open_square())
        assert main(["validate", "-i", path]) == 1
        out = capsys.readouterr().out
        assert "Closedness" in out
        assert "invalid" in out

    def test_open_complex_with_a_genus_has_one_finding(self, tmp_path, capsys):
        path = write_complex(tmp_path / "open.json", make_open_square())
        assert main(["validate", "-i", path, "--genus", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("Closedness: ")
        assert lines[1] == "invalid (1 findings)"

    def test_empty_complex_has_one_finding(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"format": "fq-complex/1", "p": 6, "edges": [], "faces": []}')
        assert main(["validate", "-i", str(path), "--genus", "1"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "Disconnected: the complex has no faces",
            "invalid (1 findings)",
        ]

    def test_missing_file_is_a_usage_error(self):
        assert main(["validate", "-i", "/nonexistent/complex.json"]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", "-i", str(bad)]) == 2

    def test_non_utf8_json_is_malformed(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{\n  "format": "caf\u00e9"\n}\n'.encode("latin-1"))
        assert main(["validate", "-i", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: malformed JSON: invalid UTF-8 (invalid "
                                "continuation byte): line 2 column 17 (char 18)\n")

    def test_overdeep_json_is_malformed(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        assert main(["validate", "-i", str(deep)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: malformed JSON: nesting deeper than the "
                                "recursion limit: line 1 column 1 (char 0)\n")

    def test_non_utf8_coloring_is_malformed(self, tmp_path, capsys, block_p6_g2):
        path = write_complex(tmp_path / "block.json", block_p6_g2)
        bad = tmp_path / "coloring.json"
        bad.write_bytes(b"\xff")
        argv = ["certify", "-i", path, "--coloring", str(bad), "--q", "2,3,2,3,2,3",
                "-o", str(tmp_path / "cert.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: malformed JSON: invalid UTF-8")
        assert not (tmp_path / "cert.json").exists()


class TestOpenComplex:
    @pytest.mark.parametrize(
        "command",
        [["loops"], ["color", "-o", "coloring.json"], ["export", "--dual", "dual.dot"]],
        ids=["loops", "color", "export"],
    )
    def test_fails_with_one_error_line(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        write_complex(tmp_path / "open.json", make_open_square())
        assert main([command[0], "-i", "open.json", *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "closed complex" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["open.json"]


class TestLoopsCommand:
    def test_stdout_report(self, tmp_path, capsys, block_p6_g2):
        path = write_complex(tmp_path / "block.json", block_p6_g2)
        assert main(["loops", "-i", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "fq-loops/1"
        assert len(doc["loops"]) == 6

    def test_report_file(self, tmp_path, capsys, block_p6_g2):
        path = write_complex(tmp_path / "block.json", block_p6_g2)
        report = tmp_path / "loops.json"
        assert main(["loops", "-i", path, "--report", str(report)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(report.read_text())["hypotheses_ok"] is True


class TestColorCommand:
    def test_solvable(self, tmp_path, block_p6_g2):
        path = write_complex(tmp_path / "block.json", block_p6_g2)
        out = tmp_path / "coloring.json"
        assert main(["color", "-i", path, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["satisfiable"] is True
        assert doc["solution_count"] is None

    def test_exhaustive_counts(self, tmp_path, block_p6_g2):
        path = write_complex(tmp_path / "block.json", block_p6_g2)
        out = tmp_path / "coloring.json"
        assert main(["color", "-i", path, "-o", str(out), "--exhaustive"]) == 0
        assert json.loads(out.read_text())["solution_count"] == 4

    def test_contradiction(self, tmp_path, capsys, rect_p8_1x2):
        path = write_complex(tmp_path / "rect.json", rect_p8_1x2)
        out = tmp_path / "witness.json"
        assert main(["color", "-i", path, "-o", str(out)]) == 1
        assert "no good coloring" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert doc["satisfiable"] is False
        assert doc["witness"]

    def test_vertex_of_degree_eight(self, tmp_path, capsys):
        path = write_complex(tmp_path / "octagon.json", make_octagon())
        out = tmp_path / "coloring.json"
        assert main(["color", "-i", path, "-o", str(out)]) == 1
        assert capsys.readouterr().err == "error: vertex 0 has degree 8, not 4\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--exhaustive"]], ids=["propagate", "exhaustive"])
    def test_empty_complex_writes_nothing(self, tmp_path, capsys, flags):
        path = tmp_path / "empty.json"
        path.write_text('{"format": "fq-complex/1", "p": 6, "edges": [], "faces": []}')
        out = tmp_path / "coloring.json"
        assert main(["color", "-i", str(path), "-o", str(out), *flags]) == 1
        assert capsys.readouterr().err == (
            "error: the complex has no vertices, so no base vertex to seed from\n"
        )
        assert not out.exists()


class TestSubdivideCommand:
    def test_halves_with_sidecar(self, tmp_path, rect_p8_1x2):
        src = write_complex(tmp_path / "rect.json", rect_p8_1x2)
        out = tmp_path / "hex.json"
        rc = main(["subdivide", "--pieces", "2", "--axis", "1",
                   "-i", src, "-o", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["p"] == 6
        sidecar = json.loads((tmp_path / "hex.subdiv.json").read_text())
        assert sidecar["format"] == "fq-subdiv/1"
        assert sidecar["pieces"] == 2
        assert sidecar["axis"] == 1

    def test_sidecar_name_without_json_suffix(self, tmp_path, rect_p8_1x2):
        src = write_complex(tmp_path / "rect.json", rect_p8_1x2)
        out = tmp_path / "hexout"
        rc = main(["subdivide", "--pieces", "2", "--axis", "1",
                   "-i", src, "-o", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["p"] == 6
        sidecar = json.loads((tmp_path / "hexout.subdiv.json").read_text())
        assert sidecar["format"] == "fq-subdiv/1"

    def test_quarters(self, tmp_path, rect_p12_3x3):
        src = write_complex(tmp_path / "rect.json", rect_p12_3x3)
        out = tmp_path / "hex.json"
        rc = main(["subdivide", "--pieces", "4", "--axis", "1",
                   "-i", src, "-o", str(out)])
        assert rc == 0
        assert len(json.loads(out.read_text())["faces"]) == 36

    @pytest.mark.parametrize("axis", ["9", "-3", "0"])
    def test_axis_out_of_range(self, tmp_path, capsys, rect_p8_1x2, axis):
        src = write_complex(tmp_path / "rect.json", rect_p8_1x2)
        out = tmp_path / "hex.json"
        rc = main(["subdivide", "--pieces", "2", "--axis", axis,
                   "-i", src, "-o", str(out)])
        assert rc == 1
        assert f"axis {axis} is outside 1..8" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "hex.subdiv.json").exists()

    def test_wrong_pieces_rejected_by_parser(self, tmp_path, rect_p8_1x2):
        src = write_complex(tmp_path / "rect.json", rect_p8_1x2)
        rc = main(["subdivide", "--pieces", "3", "-i", src,
                   "-o", str(tmp_path / "x.json")])
        assert rc == 2


class TestCertifyAndDecide:
    def test_file_pipeline_matches_in_process(self, tmp_path):
        """tessellate → subdivide → color → certify, via files, byte-for-byte."""
        rect = tmp_path / "rect.json"
        hexes = tmp_path / "hex.json"
        coloring = tmp_path / "coloring.json"
        cert = tmp_path / "cert.json"
        assert main(["tessellate", "--p", "8", "--genus", "2",
                     "--rect", "1x2", "-o", str(rect)]) == 0
        assert main(["subdivide", "--pieces", "2", "--axis", "1",
                     "-i", str(rect), "-o", str(hexes)]) == 0
        assert main(["color", "-i", str(hexes), "-o", str(coloring),
                     "--exhaustive"]) == 0
        assert main(["certify", "-i", str(hexes), "--coloring", str(coloring),
                     "--q", "3,2,9,2,3,2", "-o", str(cert)]) == 0

        cx, _ = subdivide_two(build_rect_tessellation(8, 1, 2), axis=1)
        expected = build_certificate(
            cx, solve_good_coloring(cx, mode="exhaustive"), (3, 2, 9, 2, 3, 2)
        )
        assert cert.read_text() == canonical_json(expected)
        assert json.loads(cert.read_text())["ok"] is True

    def test_certify_failure_still_writes(self, tmp_path, block_p6_g2, capsys):
        path = write_complex(tmp_path / "block.json", block_p6_g2)
        coloring = tmp_path / "coloring.json"
        cert = tmp_path / "cert.json"
        main(["color", "-i", path, "-o", str(coloring)])
        doc = json.loads(coloring.read_text())
        flipped = 1 - doc["colors"][0][1]
        doc["colors"][0][1] = flipped
        # the loader checks the seed against the colors, so flip it there too
        doc["seed"] = [[e, flipped if e == 0 else c] for e, c in doc["seed"]]
        coloring.write_text(canonical_json(doc))
        rc = main(["certify", "-i", path, "--coloring", str(coloring),
                   "--q", "2,3,2,3,2,3", "-o", str(cert)])
        assert rc == 1
        assert json.loads(cert.read_text())["ok"] is False
        assert "failed" in capsys.readouterr().err

    def test_certify_rejects_a_color_outside_zero_one(self, tmp_path,
                                                        block_p6_g2, capsys):
        path = write_complex(tmp_path / "block.json", block_p6_g2)
        coloring = tmp_path / "coloring.json"
        cert = tmp_path / "cert.json"
        main(["color", "-i", path, "-o", str(coloring)])
        doc = json.loads(coloring.read_text())
        doc["colors"][0][1] = 2
        coloring.write_text(canonical_json(doc))
        rc = main(["certify", "-i", path, "--coloring", str(coloring),
                   "--q", "2,3,2,3,2,3", "-o", str(cert)])
        assert rc == 1
        assert "edge 0 has color 2" in capsys.readouterr().err
        assert not cert.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["colors"].append([40, 0]), "edge 40"),
            (lambda doc: doc.update(seed=[[99, 7]]), "seed edge 99"),
            (lambda doc: doc.update(base_vertex=-4), "base_vertex -4"),
        ],
    )
    def test_certify_rejects_a_coloring_that_does_not_fit(
        self, tmp_path, block_p6_g2, capsys, edit, message
    ):
        path = write_complex(tmp_path / "block.json", block_p6_g2)
        coloring = tmp_path / "coloring.json"
        cert = tmp_path / "cert.json"
        main(["color", "-i", path, "-o", str(coloring)])
        doc = json.loads(coloring.read_text())
        edit(doc)
        coloring.write_text(canonical_json(doc))
        rc = main(["certify", "-i", path, "--coloring", str(coloring),
                   "--q", "2,3,2,3,2,3", "-o", str(cert)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not cert.exists()

    def test_certify_rejects_a_base_vertex_outside_the_complex(
        self, tmp_path, block_p6_g2, capsys
    ):
        path = write_complex(tmp_path / "block.json", block_p6_g2)
        coloring = tmp_path / "coloring.json"
        cert = tmp_path / "cert.json"
        main(["color", "-i", path, "-o", str(coloring)])
        doc = json.loads(coloring.read_text())
        doc["base_vertex"] = 1000000
        coloring.write_text(canonical_json(doc))
        capsys.readouterr()
        rc = main(["certify", "-i", path, "--coloring", str(coloring),
                   "--q", "2,3,2,3,2,3", "-o", str(cert)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: base_vertex 1000000 is not a vertex of the complex\n"
        assert not cert.exists()

    @pytest.mark.parametrize(
        "target, edit",
        [
            ("coloring", lambda doc: {**doc, "seed": 5}),
            ("coloring", lambda doc: {**doc, "colors": 3}),
            ("coloring", _drop("base_vertex")),
            ("coloring", _drop("colors")),
            ("coloring", lambda doc: [doc]),
            ("complex", _drop("edges")),
            ("complex", _side_without_reversed),
            ("complex", _side_reversed("false")),
            ("complex", _side_reversed(0)),
            ("complex", lambda doc: {**doc, "p": "6"}),
            ("complex", _text_edge_type),
            ("complex", lambda doc: [doc]),
            ("coloring", _replace("colors", 2, 0, value=2.5)),
            ("coloring", _replace("colors", 2, 0, value="2")),
            ("coloring", _replace("colors", 1, 1, value=True)),
            ("coloring", _replace("colors", 1, 1, value=1.0)),
            ("coloring", _replace("seed", 2, 0, value=1.0)),
            ("coloring", _replace("seed", 2, 1, value=True)),
            ("complex", _replace("p", value=6.0)),
            ("complex", _replace("edges", 1, "id", value=1.0)),
            ("complex", _replace("edges", 0, "type", value=1.0)),
            ("complex", _replace("faces", 0, "id", value=False)),
            ("complex", _replace("faces", 0, "sides", 0, "edge", value=0.0)),
            ("coloring", lambda doc: {**doc, "solution_count": "many"}),
            ("coloring", _replace("colors", 2, value=[3])),
            ("coloring", _replace("colors", 2, value=[0, 1, 2])),
            ("coloring", lambda doc: {**doc, "colors": "abc"}),
            ("coloring", _replace("seed", 2, value=[3])),
            ("coloring", _replace("seed", value="x")),
            ("complex", _replace("edges", 1, "id", value=0)),
            ("complex", _replace("faces", 0, "sides", 0, "edge", value=99)),
            ("complex", _face_short_a_side),
            ("complex", _replace("edges", 0, "type", value=0)),
            ("complex", _replace("faces", 0, "chirality", value="up")),
            ("complex", _replace("faces", 0, "id", value=7)),
            ("complex", _replace("p", value=2)),
        ],
        ids=["seed-int", "colors-int", "no-base_vertex", "no-colors",
             "coloring-list", "no-edges", "side-no-reversed",
             "side-reversed-text", "side-reversed-int", "p-text",
             "type-text", "complex-list", "colored-edge-float",
             "colored-edge-text", "color-true", "color-float",
             "seed-edge-float", "seed-color-true", "p-float", "edge-id-float",
             "type-float", "face-id-bool", "side-edge-float",
             "solution-count-text", "colors-entry-short", "colors-entry-long",
             "colors-text", "seed-entry-short", "seed-text", "edge-id-twice",
             "side-edge-99", "face-short-side", "type-0", "chirality-up",
             "face-id-sparse", "p-2"],
    )
    def test_certify_rejects_a_document_of_the_wrong_shape(
        self, tmp_path, block_p6_g2, capsys, target, edit
    ):
        path = write_complex(tmp_path / "complex.json", block_p6_g2)
        coloring = tmp_path / "coloring.json"
        cert = tmp_path / "cert.json"
        main(["color", "-i", path, "-o", str(coloring)])
        edited = tmp_path / f"{target}.json"
        edited.write_text(json.dumps(edit(json.loads(edited.read_text()))))
        capsys.readouterr()
        rc = main(["certify", "-i", path, "--coloring", str(coloring),
                   "--q", "2,3,2,3,2,3", "-o", str(cert)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"fq-{target}/1" in err
        assert not cert.exists()

    def test_decide_exists(self, capsys):
        rc = main(["decide", "--p", "6", "--genus", "2", "--q", "2,3,2,3,2,3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] == "Exists"
        assert doc["method"] == "Block"
        assert doc["certificate"] is None

    def test_decide_certify_writes_file(self, tmp_path, capsys):
        out = tmp_path / "verdict.json"
        rc = main(["decide", "--p", "6", "--genus", "2", "--q", "2,3,2,3,2,3",
                   "--certify", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["certificate"]["ok"] is True
        assert out.read_text() == canonical_json(verdict_to_dict(
            decide(6, (2, 3) * 3, 2, certify=True)))
        assert capsys.readouterr().out == ""

    def test_decide_ruled_out_exits_one(self, capsys):
        rc = main(["decide", "--p", "8", "--genus", "2", "--q", "2,3,4,2,2,2,2,2"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] == "RuledOut"
        assert doc["method"] == "TwoSymmetry"

    def test_decide_unknown_exits_zero(self, capsys):
        rc = main(["decide", "--p", "6", "--genus", "2", "--q", "2,3,4,5,6,7"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["outcome"] == "Unknown"

    def test_bad_q_text(self, capsys):
        rc = main(["decide", "--p", "6", "--genus", "2", "--q", "2,three,2"])
        assert rc == 1
        assert "comma-separated" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", ",", "2,,3"])
    def test_empty_q_entry(self, capsys, text):
        rc = main(["decide", "--p", "6", "--genus", "2", "--q", text])
        assert rc == 1
        assert "--q expects comma-separated integers" in capsys.readouterr().err


class TestExport:
    def test_dual_dot(self, tmp_path, block_p6_g2):
        path = write_complex(tmp_path / "block.json", block_p6_g2)
        dot = tmp_path / "dual.dot"
        assert main(["export", "-i", path, "--dual", str(dot)]) == 0
        text = dot.read_text()
        assert text.startswith("graph")
        assert "f0" in text


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert main(["faces", "--p", "6"]) == 2
