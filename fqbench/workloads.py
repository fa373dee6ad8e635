"""Workloads of the fqsurf benchmark: instances, seeded variation, checks.

Each workload is a fixed list of instances.  An instance is one or more
timed steps (one ``decide`` call, one homology check, or one CLI command
per step) plus a check of their outputs; every step counts as one
attempted operation.  The seed chooses the instance order and, for each
thickness sequence, one of a few rotations that the construction treats
identically, so every seed does the same work (see ``Family.variants``).
"""

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass

# Instances whose face count F is at most this make up small_s.  For a
# decide instance, in the library or through the CLI, F is
# tessellation.face_count(p, g), as in the ladder; for a CLI chain that
# builds complexes itself, F is the face count of the largest one it writes.
SMALL_F = 64

BLOCK, SUBDIV2, SUBDIV4 = "Block", "Subdiv2", "Subdiv4"


@dataclass(frozen=True)
class Family:
    """One construction method at one p, over a list of genera.

    ``variants`` are rotations of the base sequence.  For Block the second
    variant swaps the two alternating classes (d and e), which the block
    construction treats symmetrically: every vertex link has the same
    sizes.  For Subdiv2 the variants give the identical derived sequence,
    so the certified complex and sequence are the same bytes.
    """

    method: str
    p: int
    variants: tuple
    genera: tuple


CERTIFY_LADDER = (
    Family(BLOCK, 6, ((2, 3, 2, 3, 2, 3), (3, 2, 3, 2, 3, 2)), (5, 9, 17, 33, 65, 129, 257)),
    Family(
        SUBDIV2,
        8,
        ((3, 2, 9, 2, 3, 2, 9, 2), (2, 3, 2, 9, 2, 3, 2, 9)),
        (8, 16, 32, 64, 128, 256),
    ),
    Family(SUBDIV4, 12, ((2,) * 12,), (10, 16, 28, 46, 82, 136)),
)

THICK_LINKS = (
    Family(BLOCK, 6, ((30, 42) * 3, (42, 30) * 3), (5, 9, 17)),
    Family(
        SUBDIV2,
        8,
        ((15, 14, 45, 14, 15, 14, 45, 14), (14, 15, 14, 45, 14, 15, 14, 45)),
        (2, 8, 16),
    ),
    Family(SUBDIV4, 12, ((6, 10) * 6,), (10, 16, 28)),
)

# (key, genus, builder) for the homology workload; builders run in set-up.
HOMOLOGY = (
    ("Block-F32", 9, lambda m: m.tessellation.build_block_tessellation(6, 9)),
    ("Block-F64", 17, lambda m: m.tessellation.build_block_tessellation(6, 17)),
    ("Block-F128", 33, lambda m: m.tessellation.build_block_tessellation(6, 33)),
    ("Subdiv2-F60", 16, lambda m: _subdivided(m, 2, 8, 15, 2)),
    ("Subdiv2-F124", 32, lambda m: _subdivided(m, 2, 8, 31, 2)),
    ("Subdiv4-F36", 10, lambda m: _subdivided(m, 4, 12, 3, 3)),
    ("Subdiv4-F60", 16, lambda m: _subdivided(m, 4, 12, 3, 5)),
)


def _subdivided(m, pieces, p, a, b):
    base = m.tessellation.build_rect_tessellation(p, a, b)
    split = m.tessellation.subdivide_two if pieces == 2 else m.tessellation.subdivide_four
    return split(base, axis=1)[0]


def _qtext(q):
    return ",".join(str(x) for x in q)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict_doc_name(p, g, q):
    return f"verdict p={p} g={g} q={_qtext(q)}"


def certificate_doc_name(p, g, q):
    return f"certificate p={p} g={g} q={_qtext(q)}"


@dataclass
class Instance:
    key: str
    faces: int
    steps: tuple
    check: object  # check(results) -> list of (step index, message)


class Failures(list):
    """(step index, message) pairs collected by one instance check."""

    def expect(self, cond, step, message):
        if not cond:
            self.append((step, message))

    def expect_pinned(self, golden, step, name, text):
        """``text`` must hash to the sha256 pinned for ``name`` in ``golden``."""
        want = golden.get(name)
        self.expect(want is not None, step, f"no pinned digest for {name}")
        if want is not None:
            self.expect(digest(text) == want, step, f"{name}: digest differs from pin")


# ---------------------------------------------------------------------------
# decide(certify=True) workloads


def _decide_instance(m, golden, family, g, q):
    p = family.p
    faces = m.tessellation.face_count(p, g)

    def check(results):
        failures = Failures()
        verdict = results[0]
        failures.expect(verdict.outcome == "Exists", 0, f"outcome {verdict.outcome}: {verdict.reason}")
        failures.expect(verdict.method == family.method, 0, f"method {verdict.method}")
        cert = verdict.certificate
        failures.expect(cert is not None and cert.get("ok") is True, 0, "certificate not ok")
        if failures:
            return failures
        dumps = m.surface_complex.canonical_json
        failures.expect_pinned(golden, 0, certificate_doc_name(p, g, q), dumps(cert))
        failures.expect_pinned(golden, 0, verdict_doc_name(p, g, q), dumps(m.lattice.verdict_to_dict(verdict)))
        return failures

    return Instance(
        key=f"{family.method}-p{p}-F{faces}",
        faces=faces,
        steps=(lambda: m.lattice.decide(p, q, g, certify=True),),
        check=check,
    )


def decide_instances(m, golden, families, rng):
    out = []
    for family in families:
        for g in family.genera:
            q = rng.choice(family.variants)
            out.append(_decide_instance(m, golden, family, g, q))
    return out


# ---------------------------------------------------------------------------
# homology


def homology_instances(m):
    out = []
    for key, genus, build in HOMOLOGY:
        cx = build(m)
        loops = m.loops.trace_geodesic_loops(cx).loops
        out.append(_homology_instance(m, key, genus, cx, loops))
    return out


def _homology_instance(m, key, genus, cx, loops):
    def step():
        return m.surface_complex.betti_numbers(cx), m.loops.loops_generate_h1(cx, loops)

    def check(results):
        failures = Failures()
        betti, generates = results[0]
        failures.expect(betti == (1, 2 * genus, 1), 0, f"betti {betti}")
        failures.expect(generates is True, 0, "loops do not generate H1")
        return failures

    return Instance(key=key, faces=cx.num_faces, steps=(step,), check=check)


# ---------------------------------------------------------------------------
# CLI pipeline


@dataclass(frozen=True)
class Chain:
    """A README-style command sequence run through files in one directory.

    ``documents`` maps an output file to its document name and the library
    call, made in process, whose canonical JSON the file must equal.
    """

    key: str
    faces: int
    commands: tuple
    documents: dict


def _library_certificate(m, cx, q):
    coloring = m.coloring.solve_good_coloring(cx)
    return m.surface_complex.canonical_json(m.lattice.build_certificate(cx, coloring, q))


def _library_verdict(m, p, g, q):
    verdict = m.lattice.decide(p, q, g, certify=True)
    return m.surface_complex.canonical_json(m.lattice.verdict_to_dict(verdict))


def _block_chain(key, g, q):
    qs = _qtext(q)
    return Chain(
        key=key,
        faces=4 * (g - 1),
        commands=(
            ["tessellate", "--p", "6", "--genus", str(g), "-o", "block.json"],
            ["validate", "-i", "block.json", "--genus", str(g)],
            ["loops", "-i", "block.json", "--report", "loops.json"],
            ["color", "-i", "block.json", "-o", "coloring.json"],
            ["certify", "-i", "block.json", "--coloring", "coloring.json", "--q", qs, "-o", "cert.json"],
            ["export", "-i", "block.json", "--dual", "dual.dot"],
        ),
        documents={
            "cert.json": (
                f"certificate block p=6 g={g} q={qs}",
                lambda m: _library_certificate(m, m.tessellation.build_block_tessellation(6, g), q),
            )
        },
    )


def _subdiv2_chain(key, a):
    q = (3, 2, 9, 2, 3, 2)
    qs = _qtext(q)
    return Chain(
        key=key,
        faces=4 * a,
        commands=(
            ["tessellate", "--p", "8", "--genus", str(1 + a), "--rect", f"{a}x2", "-o", "rect.json"],
            ["subdivide", "--pieces", "2", "--axis", "1", "-i", "rect.json", "-o", "hex.json"],
            ["color", "-i", "hex.json", "-o", "hexcol.json"],
            ["certify", "-i", "hex.json", "--coloring", "hexcol.json", "--q", qs, "-o", "hexcert.json"],
        ),
        documents={
            "hexcert.json": (
                f"certificate rect2 p=8 rect={a}x2 axis=1 q={qs}",
                lambda m: _library_certificate(m, _subdivided(m, 2, 8, a, 2), q),
            )
        },
    )


def _subdiv4_chain(key, a, b):
    return Chain(
        key=key,
        faces=4 * a * b,
        commands=(
            ["tessellate", "--p", "12", "--genus", str(1 + a * b), "--rect", f"{a}x{b}", "-o", "rect.json"],
            ["subdivide", "--pieces", "4", "--axis", "1", "-i", "rect.json", "-o", "sq.json"],
            ["color", "-i", "sq.json", "-o", "sqcol.json"],
        ),
        documents={},
    )


def _decide_chain(m, key, p, g, q):
    return Chain(
        key=key,
        faces=m.tessellation.face_count(p, g),
        commands=(
            ["decide", "--p", str(p), "--genus", str(g), "--q", _qtext(q), "--certify", "-o", "verdict.json"],
        ),
        documents={"verdict.json": (verdict_doc_name(p, g, q), lambda m: _library_verdict(m, p, g, q))},
    )


def cli_chains(m, block_q, small_q):
    """The chains of the workload; F is as SMALL_F describes."""
    return [
        _block_chain("block-p6-g65", 65, block_q),
        _subdiv2_chain("subdiv2-p8-63x2", 63),
        _subdiv4_chain("subdiv4-p12-5x9", 5, 9),
        _decide_chain(m, "decide-p12-g46", 12, 46, (2,) * 12),
        _block_chain("block-p6-g2", 2, block_q),
        _subdiv2_chain("subdiv2-p8-1x2", 1),
        _subdiv4_chain("subdiv4-p12-3x3", 3, 3),
        _decide_chain(m, "decide-p6-g17", 6, 17, small_q),
    ]


def run_cli(m, workdir, argv):
    """One in-process CLI command in ``workdir``; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = m.cli.main(list(argv))
    finally:
        os.chdir(here)
    return code, out.getvalue(), err.getvalue()


def cli_instances(m, golden, rng, workdir):
    variants = CERTIFY_LADDER[0].variants
    refs = {}
    out = []
    for chain in cli_chains(m, rng.choice(variants), rng.choice(variants)):
        chain_dir = os.path.join(workdir, chain.key)
        os.makedirs(chain_dir, exist_ok=True)
        out.append(_cli_instance(m, golden, chain, chain_dir, refs))
    return out


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cli_instance(m, golden, chain, chain_dir, refs):
    """``refs`` caches library documents by name across the run."""
    steps = tuple(
        (lambda argv=argv: run_cli(m, chain_dir, argv)) for argv in chain.commands
    )

    def check(results):
        failures = Failures()
        for k, (code, _out, err) in enumerate(results):
            failures.expect(code == 0, k, f"{chain.commands[k][0]} exited {code}: {err.strip()[:200]}")
        if failures:
            return failures
        for k, argv in enumerate(chain.commands):
            if argv[-1] not in chain.documents:
                continue
            name, make = chain.documents[argv[-1]]
            if name not in refs:
                refs[name] = make(m)
            got = _read(os.path.join(chain_dir, argv[-1]))
            failures.expect(got == refs[name], k, f"{argv[-1]} differs from the library's {name}")
            failures.expect_pinned(golden, k, name, refs[name])
        return failures

    return Instance(key=chain.key, faces=chain.faces, steps=steps, check=check)


# ---------------------------------------------------------------------------


WORKLOADS = ("certify_ladder", "thick_links", "homology", "cli_pipeline")


def build(name, m, golden, rng, workdir):
    """The seeded instance list of one workload, in run order."""
    if name == "certify_ladder":
        out = decide_instances(m, golden, CERTIFY_LADDER, rng)
    elif name == "thick_links":
        out = decide_instances(m, golden, THICK_LINKS, rng)
    elif name == "homology":
        out = homology_instances(m)
    elif name == "cli_pipeline":
        out = cli_instances(m, golden, rng, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(out)
    return out


def pinned_documents(m):
    """Every certificate and verdict document any seed can produce, by name.

    Also checks that the variants of each family certify the sequence the
    Family docstring promises, so every seed does the same work.
    """
    docs = {}
    dumps = m.surface_complex.canonical_json
    for family in CERTIFY_LADDER + THICK_LINKS:
        for g in family.genera:
            certified = []
            for q in family.variants:
                verdict = m.lattice.decide(family.p, q, g, certify=True)
                if verdict.outcome != "Exists" or verdict.method != family.method:
                    raise RuntimeError(f"{family.method} p={family.p} g={g} q={q}: {verdict.outcome}")
                docs[certificate_doc_name(family.p, g, q)] = dumps(verdict.certificate)
                docs[verdict_doc_name(family.p, g, q)] = dumps(m.lattice.verdict_to_dict(verdict))
                certified.append(tuple(verdict.certificate["q"]))
            base = certified[0]
            for q in certified[1:]:
                same = q == base if family.method != BLOCK else q == base[1:] + base[:1]
                if not same:
                    raise RuntimeError(f"variant {q} of {family} does not do the same work")
    for q in CERTIFY_LADDER[0].variants:
        for chain in cli_chains(m, q, q):
            for name, make in chain.documents.values():
                docs[name] = make(m)
    return docs
