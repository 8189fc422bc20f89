"""Tests for JSON artifacts, SVG rendering, and the CLI front end."""

import json
import os
import random
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

from hypothesis import example, given, settings, strategies as hs
import pytest

from blockseq import cli, jsonio, svg
from blockseq.biarc import BIARCS, Page, spine_crossing
from blockseq.cli import CommandResult, run
from blockseq.errors import InvalidInputError
from brutes import all_transversals_monotone

SVG_NS = "{http://www.w3.org/2000/svg}"


def write(path, doc):
    jsonio.write_artifact(doc, str(path))
    return str(path)


def read(path):
    return jsonio.read_artifact(str(path))


def paths(tree, tag):
    return tree.findall(f".//{SVG_NS}{tag}")


def ok(result: CommandResult):
    assert result.exit_code == 0, result.log
    return result


# -- jsonio ------------------------------------------------------------------

def test_infer_kind_rejects_unknown():
    with pytest.raises(jsonio.SchemaError):
        jsonio.infer_kind({"values": [], "extra": 1})
    with pytest.raises(jsonio.SchemaError):
        jsonio.infer_kind([1, 2])


def test_schema_errors():
    with pytest.raises(jsonio.SchemaError):
        jsonio.sequence_from_json({"values": "abc"})
    with pytest.raises(jsonio.SchemaError):
        jsonio.witness_from_json({"direction": "inc", "blocks": [[1, "x"]]})
    with pytest.raises(jsonio.SchemaError):
        jsonio.coloring_from_json({"n": 3, "q": 2, "colors": [[1, 2, 1]]})
    with pytest.raises(jsonio.SchemaError):
        jsonio.coloring_from_json(
            {"n": 3, "q": 2, "colors": [[1, 2, 1], [1, 2, 1], [1, 3, 2]]}
        )
    with pytest.raises(jsonio.SchemaError):
        jsonio.coloring_from_json({"n": 3, "q": 2, "colors": [1, 2]})
    with pytest.raises(jsonio.SchemaError):
        jsonio.graph_from_json({"n": 3, "edges": [[1]]})


def test_dense_triangular_coloring_accepted():
    col = jsonio.coloring_from_json({"n": 3, "q": 2, "colors": [1, 2, 1]})
    assert col.color(1, 2) == 1
    assert col.color(1, 3) == 2
    assert col.color(2, 3) == 1


def test_coloring_is_written_dense_and_triples_still_verify(tmp_path):
    col = gen(tmp_path, "coloring", "col.json", n=12, q=3, seed=4)
    doc = read(col)
    assert len(doc["colors"]) == 12 * 11 // 2
    assert all(isinstance(c, int) for c in doc["colors"])
    pairs = [(i, j) for i in range(1, 13) for j in range(i + 1, 13)]
    triples = write(
        tmp_path / "triples.json",
        {**doc, "colors": [[i, j, c] for (i, j), c in zip(pairs, doc["colors"])]},
    )
    dense, listed = (jsonio.coloring_from_json(read(p)) for p in (col, triples))
    assert (dense.matrix == listed.matrix).all()
    ok(run(["verify", "--in", triples]))
    mono = str(tmp_path / "mono.json")
    ok(run(["ramsey", "--mode", "search", "--in", triples, "--out", mono]))
    ok(run(["verify", "--witness", mono, "--in", col]))


def test_canonical_dump_is_stable():
    doc = {"b": [1.5, 2], "a": {"y": 1, "x": 2}}
    assert jsonio.dumps_canonical(doc) == jsonio.dumps_canonical(
        json.loads(jsonio.dumps_canonical(doc))
    )


# -- svg ---------------------------------------------------------------------

def biarc_page_for(edges, b, n):
    layout = []
    for l, r in edges:
        c = spine_crossing(l, r, b, n)
        layout.append(((float(l), c), (c, float(r))))
    return Page(tuple(edges), BIARCS, b, tuple(layout))


def test_svg_empty_pages_spine_only():
    content = svg.render_pages(6, [])
    tree = ET.fromstring(content)
    assert len(paths(tree, "path")) == 0
    assert len(paths(tree, "line")) == 1 + 6  # spine + one tick per vertex


def test_svg_one_path_per_semicircle():
    page = biarc_page_for(((2, 7),), 4, 10)
    content = svg.render_pages(10, [page])
    tree = ET.fromstring(content)
    assert len(paths(tree, "path")) == 2  # biarc: upper + lower semicircle


def test_svg_biarc_touches_spine_at_crossing():
    page = biarc_page_for(((2, 7),), 4, 10)
    content = svg.render_pages(10, [page])
    expect = svg.svg_x(4.765)
    endpoints = []
    for m in re.finditer(r'd="M ([\d.e+-]+) [\d.e+-]+ A [^"]* ([\d.e+-]+) [\d.e+-]+"',
                         content):
        endpoints.extend((float(m.group(1)), float(m.group(2))))
    assert any(abs(x - expect) < 1e-9 for x in endpoints)


def test_svg_scatter_counts_and_validation():
    content = svg.render_scatter([[(0, 0), (1, 1)], [(2, 0)]], rest=[(3, 3)])
    tree = ET.fromstring(content)
    assert len(paths(tree, "circle")) == 4
    empty = ET.fromstring(svg.render_scatter([]))
    assert empty.get("width") == "520" and paths(empty, "circle") == []
    with pytest.raises(InvalidInputError):
        svg.render_pages(0, [])


def test_svg_refuses_spines_past_the_cap():
    assert len(paths(ET.fromstring(svg.render_pages(svg.MAX_SPINE, [])), "line")) == (
        1 + svg.MAX_SPINE
    )
    for n in (svg.MAX_SPINE + 1, 10**10):
        with pytest.raises(InvalidInputError):
            svg.render_pages(n, [])


# -- cli ---------------------------------------------------------------------

def gen(tmp_path, kind, name, **flags):
    argv = ["gen", "--kind", kind, "--out", str(tmp_path / name)]
    for flag, value in flags.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    ok(run(argv))
    return str(tmp_path / name)


def test_gen_kinds_verify_roundtrip(tmp_path):
    files = [
        gen(tmp_path, "sequence", "seq.json", n=50, seed=1),
        gen(tmp_path, "clustered", "cl.json", k=2, s=3, seed=1),
        gen(tmp_path, "es-extremal", "es.json", k=3),
        gen(tmp_path, "coloring", "col.json", n=12, q=2, seed=1),
        gen(tmp_path, "coloring-recursive", "rc.json", k=3, q=2),
        gen(tmp_path, "points", "pts.json", n=40, seed=1),
        gen(tmp_path, "points-grid", "grid.json", k=2, per_cluster=5, seed=1),
        gen(tmp_path, "graph", "g.json", n=20, m=40, seed=1),
    ]
    for f in files:
        ok(run(["verify", "--in", f]))
    result = ok(run(["verify", "--all", str(tmp_path)]))
    assert len(result.log) == len(files)


def test_paginate_past_two_to_53_reads_back(tmp_path):
    # spans hold the endpoints rounded to floats; the reader compares them so
    g = write(tmp_path / "g.json", {"n": 2**60, "edges": [[2**53 + 1, 2**53 + 3]]})
    out = str(tmp_path / "p.json")
    ok(run(["paginate", "--epsilon", "0.5", "--in", g, "--out", out]))
    ok(run(["verify", "--in", out]))
    ok(run(["verify", "--witness", out, "--in", g]))


def test_extract_happy_path(tmp_path):
    seq = gen(tmp_path, "sequence", "seq.json", n=50, seed=4)
    out = str(tmp_path / "w.json")
    result = ok(run(["extract", "--k", "3", "--in", seq, "--out", out]))
    assert result.artifacts == [out]
    ok(run(["verify", "--witness", out, "--in", seq]))


def test_extract_precondition_exit2(tmp_path):
    seq4 = write(tmp_path / "seq4.json", {"values": [1.0, 3.0, 2.0, 4.0]})
    out = str(tmp_path / "w.json")
    result = run(["extract", "--k", "3", "--in", seq4, "--out", out])
    assert result.exit_code == 2


def test_readers_refuse_integers_beyond_float_range():
    # json reads 10**400 as an int, which float() refuses with OverflowError
    with pytest.raises(InvalidInputError, match="finite"):
        jsonio.sequence_from_json({"values": [10**400, 1.0]})
    with pytest.raises(InvalidInputError, match="finite"):
        jsonio.points_from_json({"points": [[1.0, 2.0], [3.0, -(10**400)]]})


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "--k", "1", "--out", "w.json"],
        ["partition", "--k", "2", "--out", "p.json"],
        ["render", "--out", "r.svg"],
        ["verify"],
    ],
    ids=["extract", "partition", "render", "verify"],
)
def test_integer_beyond_float_range_fails_like_infinity(tmp_path, argv):
    # an artifact value past the float range is refused as an infinite one
    # is: exit 2 from the producing commands, the same event and code from
    # render and verify, and never a traceback
    huge, inf = tmp_path / "huge.json", tmp_path / "inf.json"
    huge.write_text('{"values": [%d, 1.0, 2.0, 3.0, 4.0]}' % 10**400)
    inf.write_text('{"values": [Infinity, 1.0, 2.0, 3.0, 4.0]}')
    argv = [str(tmp_path / a) if a.endswith((".json", ".svg")) else a for a in argv]
    got, want = (run(argv + ["--in", str(path)]) for path in (huge, inf))
    assert got.exit_code == want.exit_code
    assert got.log[0]["event"] == want.log[0]["event"]
    assert "finite" in got.log[0]["detail"]
    if argv[0] in ("extract", "partition"):
        assert got.exit_code == 2
        proc = subprocess.run(
            [sys.executable, "-m", "blockseq", *argv, "--in", str(huge)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


def test_verify_corrupted_witness_exit3(tmp_path):
    seq = gen(tmp_path, "sequence", "seq.json", n=50, seed=5)
    wpath = str(tmp_path / "w.json")
    ok(run(["extract", "--k", "3", "--in", seq, "--out", wpath]))
    doc = read(wpath)
    doc["blocks"] = list(reversed(doc["blocks"]))
    write(tmp_path / "w.json", doc)
    result = run(["verify", "--witness", wpath, "--in", seq])
    assert result.exit_code == 3


def test_exit4_usage_and_schema(tmp_path):
    assert run(["frobnicate"]).exit_code == 4
    assert run([]).exit_code == 4
    assert run(["extract", "--k", "3", "--in", "/nonexistent.json",
                "--out", str(tmp_path / "w.json")]).exit_code == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", "--in", str(bad)]).exit_code == 4
    weird = write(tmp_path / "weird.json", {"surprise": 1})
    assert run(["verify", "--in", weird]).exit_code == 4
    assert run(["verify"]).exit_code == 4


# Colors are stored as int16, so more than 32767 colors is a precondition
# failure (exit 2) for the generators and an invalid artifact (exit 3) for
# verify; a length mismatch is a schema error (exit 4) found before the n x n
# matrix is allocated.
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "coloring", "--n", "3", "--q", "40000"],
    ],
    ids=["gen"],
)
def test_coloring_generators_reject_q_beyond_int16(tmp_path, argv):
    out = tmp_path / "col.json"
    result = run(argv + ["--out", str(out)])
    assert result.exit_code == 2, result.log
    assert not out.exists()


# More vertices than ramsey.MAX_VERTICES is a precondition failure (exit 2)
# found before the n x n color matrix is allocated.
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "coloring", "--n", "10000000", "--q", "2"],
        ["gen", "--kind", "coloring-recursive", "--k", "2", "--q", "30"],
    ],
    ids=["gen", "gen-recursive"],
)
def test_coloring_generators_reject_too_many_vertices(tmp_path, argv):
    out = tmp_path / "col.json"
    result = run(argv + ["--out", str(out)])
    assert result.exit_code == 2, result.log
    assert not out.exists()


@pytest.mark.parametrize("box", ["inf", "nan", "0", "-5"])
def test_points_generator_rejects_bad_box(tmp_path, box):
    out = tmp_path / "pts.json"
    result = run(["gen", "--kind", "points", "--n", "10", "--box", box, "--out", str(out)])
    assert result.exit_code == 2, result.log
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--kind", "sequence"],
        ["gen", "--kind", "coloring"],
        ["gen", "--kind", "points"],
        ["gen", "--kind", "points-grid"],
        ["gen", "--kind", "graph"],
    ],
)
def test_negative_seed_is_precondition_failure(tmp_path, argv):
    # numpy's default_rng raises a bare ValueError on negative seeds
    result = run(argv + ["--seed", "-1", "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2


def test_ramsey_gen_recursive_without_k_is_usage_error(tmp_path):
    out = tmp_path / "col.json"
    result = run(["ramsey", "--mode", "gen-recursive", "--q", "2", "--out", str(out)])
    assert result.exit_code == 4, result.log
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["ramsey", "--mode", "gen-random", "--n", "10", "--q", "2", "--seed", "3"],
        ["ramsey", "--mode", "gen-recursive", "--k", "2", "--q", "3"],
        ["ramsey", "--n", "10"],
    ],
    ids=["gen-random", "gen-recursive", "no-mode"],
)
def test_ramsey_makes_no_colorings(tmp_path, argv):
    # colorings come from gen --kind coloring / coloring-recursive; ramsey
    # only searches, and no default picks its mode
    out = tmp_path / "col.json"
    result = run(argv + ["--out", str(out)])
    assert result.exit_code == 4, result.log
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, code",
    [
        ({"n": 3, "q": 2, "colors": [1, 70000, 1]}, 3),
        ({"n": 3, "q": 2, "colors": [1, -70000, 1]}, 3),
        ({"n": 3, "q": 2, "colors": [[1, 2, 1], [1, 3, 70000], [2, 3, 1]]}, 3),
        ({"n": 3, "q": 2, "colors": [[1, 2, 1], [1, 3, -70000], [2, 3, 1]]}, 3),
        ({"n": 3, "q": 70000, "colors": [1, 70000, 1]}, 3),
        ({"n": 10**7, "q": 2, "colors": []}, 4),
    ],
    ids=["dense-high", "dense-low", "triple-high", "triple-low", "q-high", "huge-n"],
)
def test_verify_coloring_outside_int16(tmp_path, doc, code):
    path = write(tmp_path / "col.json", doc)
    result = run(["verify", "--in", path])
    assert result.exit_code == code, result.log


def test_page_entry_not_an_object_exit4(tmp_path):
    with pytest.raises(jsonio.SchemaError):
        jsonio.page_from_json(5)
    doc = {"n": 3, "epsilon": 0.5, "pages": [5], "metrics": [0]}
    path = write(tmp_path / "pages.json", doc)
    assert run(["verify", "--in", path]).exit_code == 4
    assert run(["render", "--in", path, "--out", str(tmp_path / "p.svg")]).exit_code == 4


def test_witness_direction_must_be_inc_or_dec(tmp_path):
    wit = write(tmp_path / "w.json", {"direction": 5, "blocks": [[1]]})
    assert run(["verify", "--in", wit]).exit_code == 4
    part = write(
        tmp_path / "part.json",
        {"parts": [{"direction": "up", "blocks": [[1]]}], "remainder": [], "metrics": {}},
    )
    assert run(["verify", "--in", part]).exit_code == 4


def test_partition_modes(tmp_path):
    seq = gen(tmp_path, "sequence", "seq.json", n=80, seed=6)
    for mode in ("full", "greedy"):
        out = str(tmp_path / f"part-{mode}.json")
        ok(run(["partition", "--k", "2", "--mode", mode, "--in", seq, "--out", out]))
        ok(run(["verify", "--witness", out, "--in", seq]))


@pytest.mark.parametrize("k, code", [(3, 3), (3.0, 4), (True, 4), ("3", 4), (None, 4), (2, 0)])
def test_verify_reads_the_partition_depth_through_the_integer_gate(tmp_path, k, code):
    # a depth-2 partition of this sequence breaks the depth-3 promise; a k
    # that is not an int used to skip the promise and verify
    seq = gen(tmp_path, "sequence", "seq.json", n=200, seed=1)
    out = str(tmp_path / "part.json")
    ok(run(["partition", "--k", "2", "--in", seq, "--out", out]))
    doc = read(out)
    doc["metrics"]["k"] = k
    bad = write(tmp_path / "bad.json", doc)
    assert run(["verify", "--witness", bad, "--in", seq]).exit_code == code
    assert run(["verify", "--in", bad]).exit_code == code


def test_ramsey_search_and_block_path(tmp_path):
    col = gen(tmp_path, "coloring-recursive", "col.json", k=4, q=2)
    mono = str(tmp_path / "mono.json")
    result = ok(run(["ramsey", "--mode", "search", "--in", col, "--out", mono]))
    assert result.log[0]["length"] == 4
    ok(run(["verify", "--witness", mono, "--in", col]))

    bp = str(tmp_path / "bp.json")
    ok(run(["ramsey", "--mode", "block-path", "--in", col, "--out", bp]))
    ok(run(["verify", "--witness", bp, "--in", col]))
    # depth/size combination that does not exist in this coloring
    missing = run(["ramsey", "--mode", "block-path", "--k", "2", "--s", "2",
                   "--in", col, "--out", str(tmp_path / "none.json")])
    assert missing.exit_code == 3
    half = run(["ramsey", "--mode", "block-path", "--k", "2", "--in", col,
                "--out", str(tmp_path / "none.json")])
    assert half.exit_code == 4


# (k, q) of every recursive coloring with at most 12 vertices
_SMALL_RECURSIVE = [(k, q) for k in range(1, 13) for q in range(1, 4) if k**q <= 12]


@hs.composite
def ramsey_cases(draw):
    """A ``gen`` coloring of 1-12 vertices in 1-3 colors, and ``ramsey``
    arguments with --k and --s in -1..5, given alone, together or not at
    all."""
    if draw(hs.booleans()):
        n, q, seed = draw(hs.integers(1, 12)), draw(hs.integers(1, 3)), draw(hs.integers(0, 99))
        gen_argv = ["gen", "--kind", "coloring", "--n", str(n), "--q", str(q), "--seed", str(seed)]
    else:
        k, q = draw(hs.sampled_from(_SMALL_RECURSIVE))
        gen_argv = ["gen", "--kind", "coloring-recursive", "--k", str(k), "--q", str(q)]
    argv = ["ramsey", "--mode", draw(hs.sampled_from(["search", "block-path"]))]
    for flag in draw(hs.sampled_from([(), ("k",), ("s",), ("k", "s")])):
        argv += [f"--{flag}", str(draw(hs.integers(-1, 5)))]
    return gen_argv, argv


@settings(max_examples=150, deadline=None)
@given(ramsey_cases())
def test_ramsey_exit_codes_hold_the_contract(case):
    gen_argv, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        col, out = f"{tmp}/col.json", f"{tmp}/out.json"
        ok(run(gen_argv + ["--out", col]))
        code = run(argv + ["--in", col, "--out", out]).exit_code
        assert code in (0, 2, 3, 4)
        if code == 0:
            ok(run(["verify", "--witness", out, "--in", col]))


def test_avoid_pipeline(tmp_path):
    pts = gen(tmp_path, "points", "pts.json", n=120, seed=2)
    out = str(tmp_path / "av.json")
    result = ok(run(["avoid", "--k", "2", "--in", pts, "--out", out]))
    assert result.log[0]["k"] == 2
    ok(run(["verify", "--witness", out, "--in", pts, "--oracle"]))
    small = run(["avoid", "--k", "3", "--in", pts, "--out", out])
    assert small.exit_code == 2  # 120 < 24 * 9 + 6


def test_avoid_below_size_bound_is_precondition_failure(tmp_path):
    # 100 points give a 16-point slab, too few for a depth-5 extraction
    pts = gen(tmp_path, "points", "pts.json", n=100, seed=150)
    out = str(tmp_path / "av.json")
    result = run(["avoid", "--k", "2", "--in", pts, "--out", out])
    assert result.exit_code == 2
    assert result.log[0]["event"] == "precondition-failed"
    assert "at least 102 points" in result.log[0]["detail"]
    proc = subprocess.run(
        [sys.executable, "-m", "blockseq", "avoid", "--k", "2", "--in", pts,
         "--out", out],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("n", [30, 40, 60, 130])
@pytest.mark.parametrize("k", [1, 2])
def test_avoid_collinear_points_is_precondition_failure(tmp_path, n, k):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[i, 2 * i + 1] for i in range(n)]}))
    result = run(["avoid", "--k", str(k), "--in", str(pts), "--out", str(tmp_path / "av.json")])
    assert result.exit_code == 2 and result.artifacts == []
    assert result.log[0]["event"] == "precondition-failed"
    small = n < 24 * k * k + 6
    want = f"at least {24 * k * k + 6} points" if small else "general position"
    assert want in result.log[0]["detail"]


@pytest.mark.filterwarnings("error")
def test_avoid_overflowing_coordinates_is_precondition_failure(tmp_path):
    rng = random.Random(3)
    points = [[rng.uniform(0, 1000), rng.uniform(0, 1000)] for _ in range(30)]
    points[4][0] = 1e308
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": points}))
    result = run(["avoid", "--k", "1", "--in", str(pts), "--out", str(tmp_path / "av.json")])
    assert result.exit_code == 2
    assert "orientation products" in result.log[0]["detail"]


def test_verify_all_oracle_over_budget_keeps_per_file_results(tmp_path, monkeypatch):
    # an over-budget oracle check fails its own file with code 3; the other
    # files in the directory still get their entries
    monkeypatch.setattr("blockseq.oracle._TRANSVERSAL_BUDGET", 0)
    pts = gen(tmp_path, "points", "pts.json", n=500, seed=1)
    ok(run(["avoid", "--k", "2", "--in", pts, "--out", str(tmp_path / "av.json")]))
    gen(tmp_path, "sequence", "seq.json", n=50, seed=1)
    result = run(["verify", "--all", str(tmp_path), "--oracle"])
    assert result.exit_code == 3
    by_path = {entry["path"]: entry for entry in result.log}
    names = ("av.json", "pts.json", "seq.json")
    assert sorted(by_path) == [str(tmp_path / name) for name in names]
    assert by_path[str(tmp_path / "av.json")]["event"] == "failed"
    assert "exceed" in by_path[str(tmp_path / "av.json")]["detail"]
    assert by_path[str(tmp_path / "seq.json")]["event"] == "verified"


def test_paginate_with_svg(tmp_path):
    g = gen(tmp_path, "graph", "g.json", n=24, m=60, seed=3)
    pages = str(tmp_path / "pages.json")
    out_svg = str(tmp_path / "pages.svg")
    result = ok(run(["paginate", "--epsilon", "0.5", "--in", g,
                     "--out", pages, "--svg", out_svg]))
    assert result.artifacts == [pages, out_svg]
    ok(run(["verify", "--witness", pages, "--in", g, "--oracle"]))
    tree = ET.fromstring(open(out_svg).read())
    doc = read(pages)
    semicircles = sum(
        len(page["layout"])
        + sum(1 for _, lower in page["layout"] if lower is not None)
        for page in doc["pages"]
    )
    assert len(paths(tree, "path")) == semicircles
    bad_eps = run(["paginate", "--epsilon", "0", "--in", g, "--out", pages])
    assert bad_eps.exit_code == 2


def test_paginate_dense_graph_succeeds(tmp_path):
    # this instance once exceeded partition_multiset's part cap (exit 3);
    # draining the partition pool before the monotone sweep keeps it inside
    g = gen(tmp_path, "graph", "g.json", n=400, m=8000, seed=1)
    pages = str(tmp_path / "pages.json")
    ok(run(["paginate", "--epsilon", "0.5", "--in", g, "--out", pages]))
    ok(run(["verify", "--witness", pages, "--in", g]))


def test_paginate_rechecks_every_page_before_writing(tmp_path, monkeypatch):
    """paginate builds its pages without Page's checks; the CLI runs them
    all before writing, so a page with unsorted edges exits 3 unwritten."""
    from blockseq import biarc

    def unsorted_pages(graph, epsilon):
        edges = ((2, 3), (1, 2))
        layout = tuple(((float(l), float(r)), None) for l, r in edges)
        page = Page._trusted(edges, biarc.UPPER_ARCS, 1, layout)
        return biarc.PagePartition((page,), epsilon, (0,))

    g = write(tmp_path / "g.json", {"n": 3, "edges": [[1, 2], [2, 3]]})
    pages = tmp_path / "pages.json"
    monkeypatch.setattr(biarc, "paginate", unsorted_pages)
    result = run(["paginate", "--epsilon", "0.5", "--in", g, "--out", str(pages)])
    assert result.exit_code == 3
    assert result.log[0]["event"] == "self-verification-failed"
    assert not pages.exists()


def test_render_single_edge_semicircle(tmp_path):
    g = write(tmp_path / "g.json", {"n": 2, "edges": [[1, 2]]})
    pages = str(tmp_path / "pages.json")
    ok(run(["paginate", "--epsilon", "1.0", "--in", g, "--out", pages]))
    out = str(tmp_path / "one.svg")
    ok(run(["render", "--in", pages, "--out", out]))
    tree = ET.fromstring(open(out).read())
    arcs = paths(tree, "path")
    assert len(arcs) == 1
    tok = arcs[0].get("d").split()
    assert tok[0] == "M" and tok[3] == "A"
    assert float(tok[1]) == svg.svg_x(1)
    assert float(tok[9]) == svg.svg_x(2)


def test_render_empty_pages_and_other_kinds(tmp_path):
    empty = write(tmp_path / "empty.json",
                  {"n": 6, "epsilon": 0.5, "pages": [], "metrics": []})
    out = str(tmp_path / "empty.svg")
    ok(run(["render", "--in", empty, "--out", out]))
    tree = ET.fromstring(open(out).read())
    assert len(paths(tree, "path")) == 0

    pts = gen(tmp_path, "points", "pts.json", n=30, seed=9)
    ok(run(["render", "--in", pts, "--out", str(tmp_path / "pts.svg")]))

    seq = gen(tmp_path, "sequence", "seq.json", n=30, seed=9)
    wpath = str(tmp_path / "w.json")
    ok(run(["extract", "--k", "2", "--in", seq, "--out", wpath]))
    ok(run(["render", "--in", wpath, "--data", seq,
            "--out", str(tmp_path / "w.svg")]))
    missing_data = run(["render", "--in", wpath, "--out", str(tmp_path / "x.svg")])
    assert missing_data.exit_code == 4
    col = gen(tmp_path, "coloring", "col.json", n=8, q=2, seed=0)
    unsupported = run(["render", "--in", col, "--out", str(tmp_path / "c.svg")])
    assert unsupported.exit_code == 4


def test_render_invalid_artifact_exit3(tmp_path):
    doc = {
        "n": 10,
        "epsilon": 0.5,
        "pages": [
            {
                "edges": [[2, 7]],
                "style": "biarcs",
                "split_b": 4,
                "layout": [[[2.0, 4.765], [4.8, 7.0]]],  # halves do not meet
            }
        ],
        "metrics": [0],
    }
    bad = write(tmp_path / "bad-pages.json", doc)
    result = run(["render", "--in", bad, "--out", str(tmp_path / "bad.svg")])
    assert result.exit_code == 3


def part_doc(direction, blocks):
    return {"direction": direction, "blocks": blocks}


@pytest.mark.parametrize(
    "parts, remainder",
    [
        ([part_doc("inc", [[0], [2]])], [1, 3]),  # index 0 reads values[-1]
        ([part_doc("inc", [[1], [4]])], [2, 3]),  # part index n + 1
        ([part_doc("inc", [[1], [2]])], [4]),  # remainder index n + 1
    ],
    ids=["part-index-0", "part-index-n+1", "remainder-index-n+1"],
)
def test_render_partition_with_bad_index_exit3(tmp_path, parts, remainder):
    seq = write(tmp_path / "seq.json", {"values": [1.0, 2.0, 3.0]})
    doc = {"parts": parts, "remainder": remainder, "metrics": {}}
    part = write(tmp_path / "part.json", doc)
    out = tmp_path / "part.svg"
    result = run(["render", "--in", part, "--data", seq, "--out", str(out)])
    assert result.exit_code == 3
    assert result.log[0]["event"] == "invalid-artifact"
    assert not out.exists()


def brute_witness_ok(values, direction, blocks):
    """Equal non-empty blocks of in-range indices, positionally separated,
    with every transversal monotone in ``direction``."""
    n = len(values)
    if not blocks or any(not 1 <= i <= n for b in blocks for i in b):
        return False
    if not blocks[0] or len({len(b) for b in blocks}) != 1:
        return False
    if any(len(set(b)) != len(b) for b in blocks):
        return False
    if any(max(a) >= min(b) for a, b in zip(blocks, blocks[1:])):
        return False
    return all_transversals_monotone(values, blocks, direction == "inc")


@hs.composite
def artifacts(draw):
    """A sequence of n <= 6 distinct values, a partition and a witness whose
    indices lie in [-1, n + 2]; the remainder is often the exact complement
    of the parts, so valid partitions come up too."""
    n = draw(hs.integers(0, 6))
    values = [float(v) for v in draw(hs.permutations(range(n)))]
    index = hs.integers(-1, n + 2)
    witness = hs.tuples(
        hs.sampled_from(["inc", "dec"]),
        hs.lists(hs.lists(index, max_size=3), max_size=3),
    )
    parts = draw(hs.lists(witness, max_size=3))
    covered = {i for _, blocks in parts for b in blocks for i in b}
    complement = [i for i in range(1, n + 1) if i not in covered]
    remainder = draw(hs.just(complement) | hs.lists(index, max_size=7))
    return values, parts, remainder, draw(witness)


@settings(max_examples=150, deadline=None)
@given(artifacts())
@example(([0.0, 1.0, 2.0], [("inc", [[0], [2]])], [1, 3], ("inc", [[1], [2]])))
@example(([], [], [], ("inc", [])))
def test_render_and_verify_exit_codes_follow_artifact_validity(case):
    values, parts, remainder, (direction, blocks) = case
    part_ok = all(brute_witness_ok(values, d, b) for d, b in parts) and sorted(
        [i for _, bl in parts for b in bl for i in b] + remainder
    ) == list(range(1, len(values) + 1))
    witness_ok = brute_witness_ok(values, direction, blocks)
    with tempfile.TemporaryDirectory() as tmp:
        seq = write(f"{tmp}/seq.json", {"values": values})
        part = write(
            f"{tmp}/part.json",
            {"parts": [part_doc(d, b) for d, b in parts], "remainder": remainder,
             "metrics": {}},
        )
        wit = write(f"{tmp}/wit.json", part_doc(direction, blocks))
        for path, valid in ((part, part_ok), (wit, witness_ok)):
            verified = run(["verify", "--witness", path, "--in", seq]).exit_code
            assert verified in (0, 2, 3, 4)
            assert (verified == 0) == valid
            rendered = run(
                ["render", "--in", path, "--data", seq, "--out", f"{tmp}/out.svg"]
            ).exit_code
            assert rendered in (0, 2, 3, 4)
            assert (rendered == 0) == valid


def test_cli_determinism_byte_identical(tmp_path):
    configs = [
        (["gen", "--kind", "sequence", "--n", "40", "--seed", "11"], "s{}.json"),
        (["gen", "--kind", "points", "--n", "40", "--seed", "11"], "p{}.json"),
        (["gen", "--kind", "graph", "--n", "18", "--m", "30", "--seed", "11"],
         "g{}.json"),
    ]
    made = {}
    for argv, pattern in configs:
        for attempt in (1, 2):
            target = str(tmp_path / pattern.format(attempt))
            ok(run(argv + ["--out", target]))
        a = open(str(tmp_path / pattern.format(1)), "rb").read()
        b = open(str(tmp_path / pattern.format(2)), "rb").read()
        assert a == b
        made[pattern] = str(tmp_path / pattern.format(1))

    downstream = [
        (["extract", "--k", "2", "--in", made["s{}.json"]], "w{}.json"),
        (["partition", "--k", "2", "--in", made["s{}.json"]], "pt{}.json"),
        (["paginate", "--epsilon", "0.5", "--in", made["g{}.json"]], "pg{}.json"),
    ]
    for argv, pattern in downstream:
        for attempt in (1, 2):
            target = str(tmp_path / pattern.format(attempt))
            ok(run(argv + ["--out", target]))
        a = open(str(tmp_path / pattern.format(1)), "rb").read()
        b = open(str(tmp_path / pattern.format(2)), "rb").read()
        assert a == b


def test_module_entry_point(tmp_path):
    out = str(tmp_path / "seq.json")
    proc = subprocess.run(
        [sys.executable, "-m", "blockseq", "gen", "--kind", "sequence",
         "--n", "10", "--seed", "0", "--out", out],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    entry = json.loads(proc.stdout.strip().splitlines()[-1])
    assert entry["event"] == "generated"
    bad = subprocess.run(
        [sys.executable, "-m", "blockseq", "no-such-command"],
        capture_output=True, text=True,
    )
    assert bad.returncode == 4


@pytest.mark.parametrize(
    "n, code",
    [(True, 4), ("12", 4), (2.5, 4), (None, 4), (0, 3), (-1, 3), (3, 3)],
)
def test_pages_n_gets_one_exit_code_from_verify_and_render(tmp_path, n, code):
    g = gen(tmp_path, "graph", "g.json", n=12, m=30, seed=2)
    assert max(r for _, r in read(g)["edges"]) > 3
    pages = str(tmp_path / "pages.json")
    ok(run(["paginate", "--epsilon", "0.5", "--in", g, "--out", pages]))
    doc = read(pages)
    doc["n"] = n
    bad = write(tmp_path / "bad.json", doc)
    assert run(["verify", "--in", bad]).exit_code == code
    assert run(["verify", "--witness", bad, "--in", g]).exit_code == code
    assert run(["render", "--in", bad, "--out", str(tmp_path / "p.svg")]).exit_code == code


@pytest.mark.parametrize("split_b, code", [(11, 0), (12, 3), (1000, 3)])
def test_pages_split_vertex_gets_one_exit_code_from_verify_and_render(
    tmp_path, split_b, code
):
    """A page's split vertex lies before the spine end: 1 <= split_b <= n - 1."""
    g = gen(tmp_path, "graph", "g.json", n=12, m=30, seed=2)
    pages = str(tmp_path / "pages.json")
    ok(run(["paginate", "--epsilon", "0.5", "--in", g, "--out", pages]))
    doc = read(pages)
    doc["pages"][0]["split_b"] = split_b
    bad = write(tmp_path / "bad.json", doc)
    assert run(["verify", "--in", bad]).exit_code == code
    assert run(["verify", "--witness", bad, "--in", g]).exit_code == code
    assert run(["render", "--in", bad, "--out", str(tmp_path / "p.svg")]).exit_code == code


def test_pages_n_must_match_the_graph(tmp_path):
    g = gen(tmp_path, "graph", "g.json", n=12, m=30, seed=2)
    pages = str(tmp_path / "pages.json")
    ok(run(["paginate", "--epsilon", "0.5", "--in", g, "--out", pages]))
    doc = read(pages)
    doc["n"] = 13
    wider = write(tmp_path / "wider.json", doc)
    ok(run(["verify", "--in", wider]))
    ok(run(["render", "--in", wider, "--out", str(tmp_path / "p.svg")]))
    assert run(["verify", "--witness", wider, "--in", g]).exit_code == 3
    empty = write(tmp_path / "empty.json", {**doc, "n": 0, "pages": [], "metrics": []})
    assert run(["render", "--in", empty, "--out", str(tmp_path / "e.svg")]).exit_code == 3


def test_empty_artifacts_render_an_empty_canvas(tmp_path):
    seq = write(tmp_path / "seq.json", {"values": []})
    part = write(tmp_path / "part.json", {"parts": [], "remainder": [], "metrics": {}})
    pts = write(tmp_path / "pts.json", {"points": []})
    ok(run(["verify", "--witness", part, "--in", seq]))
    for path, data in ((part, ["--data", seq]), (seq, []), (pts, [])):
        ok(run(["verify", "--in", path]))
        out = str(tmp_path / "out.svg")
        ok(run(["render", "--in", path, *data, "--out", out]))
        assert paths(ET.fromstring(open(out).read()), "circle") == []


def test_render_runs_the_kinds_own_check(tmp_path):
    """``render`` draws nothing that ``verify --in`` rejects: a pages
    artifact with every crossing count raised by one, and an avoid artifact
    with one point swapped between the families."""
    g = gen(tmp_path, "graph", "g.json", n=24, m=60, seed=3)
    pages = str(tmp_path / "pages.json")
    ok(run(["paginate", "--epsilon", "0.5", "--in", g, "--out", pages]))
    doc = read(pages)
    doc["metrics"] = [m + 1 for m in doc["metrics"]]
    raised = write(tmp_path / "raised.json", doc)

    pts = gen(tmp_path, "points", "pts.json", n=120, seed=2)
    av = str(tmp_path / "av.json")
    ok(run(["avoid", "--k", "2", "--in", pts, "--out", av]))
    doc = read(av)
    a, b = doc["a_blocks"][0], doc["b_blocks"][0]
    a[0], b[0] = b[0], a[0]
    swapped = write(tmp_path / "swapped.json", doc)

    for bad in (raised, swapped):
        verified = run(["verify", "--in", bad]).exit_code
        rendered = run(["render", "--in", bad, "--out", str(tmp_path / "x.svg")])
        assert verified == rendered.exit_code == 3
        assert rendered.log[0]["event"] == "invalid-artifact"
    assert not (tmp_path / "x.svg").exists()


def test_bare_spine_verifies_and_renders(tmp_path):
    """A pages artifact with no pages and no metrics has nothing to violate;
    any page list with content still goes through the page-partition check."""
    empty = write(tmp_path / "empty.json",
                  {"n": 6, "epsilon": 0.5, "pages": [], "metrics": []})
    ok(run(["verify", "--in", empty]))
    ok(run(["render", "--in", empty, "--out", str(tmp_path / "e.svg")]))
    stray = write(tmp_path / "stray.json",
                  {"n": 6, "epsilon": 0.5, "pages": [], "metrics": [0]})
    assert run(["verify", "--in", stray]).exit_code == 3
    assert run(["render", "--in", stray, "--out", str(tmp_path / "s.svg")]).exit_code == 3


def test_render_refuses_a_spine_past_the_cap_exit2(tmp_path):
    out = tmp_path / "e.svg"
    for n in (svg.MAX_SPINE + 1, 10**10):
        bare = write(tmp_path / "bare.json",
                     {"n": n, "epsilon": 0.5, "pages": [], "metrics": []})
        ok(run(["verify", "--in", bare]))
        result = run(["render", "--in", bare, "--out", str(out)])
        assert result.exit_code == 2 and result.log[0]["event"] == "precondition-failed"
        assert not out.exists()


def test_paginate_on_a_huge_spine(tmp_path):
    """Pagination does no work per spine vertex: a 3-edge graph on 10^10
    vertices paginates; with --svg the spine is refused before anything is
    written."""
    g = write(tmp_path / "g.json", {"n": 10**10, "edges": [[1, 2], [2, 7], [4, 6]]})
    pages, drawing = tmp_path / "pages.json", tmp_path / "pages.svg"
    ok(run(["paginate", "--epsilon", "0.5", "--in", g, "--out", str(pages)]))
    ok(run(["verify", "--witness", str(pages), "--in", g]))
    pages.unlink()
    for n in (svg.MAX_SPINE + 1, 10**10):
        g = write(tmp_path / "g.json", {"n": n, "edges": [[1, 2], [2, 7], [4, 6]]})
        result = run(["paginate", "--epsilon", "0.5", "--in", g, "--out", str(pages),
                      "--svg", str(drawing)])
        assert result.exit_code == 2 and result.log[0]["event"] == "precondition-failed"
        assert not pages.exists() and not drawing.exists()


def test_paginate_spine_too_long_for_float_crossings_exit2(tmp_path):
    """Biarc crossings 1/(2n^2) apart tie in floats from n = 10^6, and at
    n = 10^9 the crossing of (1, n) rounds onto n: exit 2, naming the spine,
    with nothing written; a spine a tenth as long draws."""
    pages = tmp_path / "pages.json"
    for n, edges in (
        (10**6, [[333333, 666666], [333333, 666667], [1, 2]]),
        (10**8, [[1, 2], [2, 7], [2, 8], [4, 6], [6, 7]]),
        (10**9, [[1, 10**9], [5 * 10**8, 10**9]]),
    ):
        g = write(tmp_path / "g.json", {"n": n, "edges": edges})
        result = run(["paginate", "--epsilon", "0.5", "--in", g, "--out", str(pages)])
        assert result.exit_code == 2 and result.log[0]["event"] == "precondition-failed"
        assert f"spine of {n} vertices" in result.log[0]["detail"]
        assert not pages.exists()
    g = write(tmp_path / "g.json", {"n": 10**5, "edges": [[33333, 66666], [33333, 66667], [1, 2]]})
    ok(run(["paginate", "--epsilon", "0.5", "--in", g, "--out", str(pages)]))
    ok(run(["verify", "--witness", str(pages), "--in", g]))


@pytest.mark.parametrize(
    "argv",
    [
        ["--kind", "sequence", "--n", "10000000000"],
        ["--kind", "points", "--n", "10000000000"],
        ["--kind", "graph", "--n", "100000000", "--m", "3"],
        ["--kind", "clustered", "--k", "100000", "--s", "100000"],
        ["--kind", "es-extremal", "--k", "100000"],
        ["--kind", "points-grid", "--k", "100000", "--per-cluster", "100000"],
    ],
)
def test_generators_past_the_entry_cap_exit2(tmp_path, argv):
    out = tmp_path / "out.json"
    result = run(["gen", *argv, "--out", str(out)])
    assert result.exit_code == 2 and result.log[0]["event"] == "precondition-failed"
    assert not out.exists()


# Arguments for every gen kind: integers in -1..5, reals that are zero,
# negative, huge or nan, and deltas at or outside (0, 1/2).
_INT_FLAGS = ("n", "k", "s", "q", "m", "seed", "per-cluster")
_REALS = ["0", "-1.5", "1e300", "nan", "0.3"]


@hs.composite
def gen_argvs(draw):
    kind = draw(hs.sampled_from([
        "sequence", "clustered", "es-extremal", "coloring", "coloring-recursive",
        "points", "points-grid", "graph",
    ]))
    argv = ["gen", "--kind", kind]
    for flag in _INT_FLAGS:
        # k**q vertices: q <= 3 keeps a recursive coloring at 125 vertices;
        # 5**5 vertices take seconds to write and read back.
        top = 3 if kind == "coloring-recursive" and flag == "q" else 5
        argv += [f"--{flag}", str(draw(hs.integers(-1, top)))]
    for flag in ("box", "jitter"):
        argv += [f"--{flag}", draw(hs.sampled_from(_REALS))]
    delta = draw(hs.sampled_from(["0", "0.5", "-0.25", "0.75", "nan", "0.25", "1e-9"]))
    return argv + ["--delta", delta]


@settings(max_examples=200, deadline=None)
@given(gen_argvs())
@example(["gen", "--kind", "clustered", "--k", "2", "--s", "3", "--delta", "0.5"])
@example(["gen", "--kind", "points", "--n", "3", "--box", "1e300"])
def test_gen_exit_codes_hold_the_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = f"{tmp}/out.json"
        code = run(argv + ["--out", out]).exit_code
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert run(["verify", "--in", out]).exit_code == 0


def test_block_path_without_endpoints_exits_3(tmp_path):
    bp = write(tmp_path / "bp.json", {"color": 1, "endpoints": [], "blocks": [[1], [2]]})
    assert run(["verify", "--in", bp]).exit_code == 3
    assert run(["verify", "--all", str(tmp_path)]).exit_code == 3


@pytest.mark.parametrize(
    "doc",
    [
        {"color": 1, "endpoints": [1], "blocks": [[2], [3]]},
        {"color": 1, "vertices": []},
        {"color": 0, "vertices": [1]},
    ],
    ids=["blockpath-block-count", "monopath-empty", "monopath-color-0"],
)
def test_verify_in_rejects_what_verify_witness_rejects(tmp_path, doc):
    col = gen(tmp_path, "coloring", "col.json", n=6, q=1, seed=0)
    art = write(tmp_path / "art.json", doc)
    assert run(["verify", "--witness", art, "--in", col]).exit_code == 3
    assert run(["verify", "--in", art]).exit_code == 3


# Small, degenerate or ill-typed values for every field of every artifact kind.
_LEAF = hs.one_of(
    hs.integers(-2, 5), hs.sampled_from([0.5, -1.0, 1e300]), hs.booleans(), hs.none(),
    hs.just("x"),
)
_INT = hs.integers(-1, 6)
_NUM = hs.one_of(_INT, hs.sampled_from([0.5, 2.5, -1.5]))
_POINT = hs.lists(_NUM, min_size=2, max_size=2)
_RISING = hs.lists(_INT, max_size=4, unique=True).map(sorted)
_PAIRS_OF_INTS = hs.lists(hs.lists(_INT, min_size=2, max_size=2), max_size=4)


def _field(strategy):
    """Mostly ``strategy``; one draw in eight is an arbitrary leaf."""
    return hs.integers(0, 7).flatmap(lambda r: _LEAF if r == 0 else strategy)


_BLOCKS = hs.lists(hs.lists(_INT, max_size=3), max_size=3) | _RISING.map(
    lambda v: [[i] for i in v]
)
_WITNESS = hs.fixed_dictionaries(
    {"direction": _field(hs.sampled_from(["inc", "dec"])), "blocks": _field(_BLOCKS)}
)
_PAGE = hs.fixed_dictionaries({
    "edges": _field(_PAIRS_OF_INTS),
    "style": _field(hs.sampled_from(["biarcs", "upper-arcs"])),
    "split_b": _field(_INT),
    "layout": _field(hs.lists(hs.tuples(_POINT, hs.none() | _POINT).map(list), max_size=3)),
})
_FAMILY = hs.lists(hs.lists(_POINT, min_size=1, max_size=2), min_size=1, max_size=2)
_COLORING = hs.integers(1, 4).flatmap(
    lambda n: hs.fixed_dictionaries({
        "n": _field(hs.just(n)),
        "q": _field(hs.integers(1, 3)),
        "colors": _field(hs.lists(hs.integers(0, 3), min_size=n * (n - 1) // 2,
                                  max_size=n * (n - 1) // 2)),
    })
)
_ARTIFACTS = {
    "sequence": {"values": _field(hs.lists(_NUM, max_size=5))},
    "witness": _WITNESS,
    "coloring": _COLORING,
    "points": {"points": _field(hs.lists(_POINT, max_size=5))},
    "graph": {"n": _field(hs.integers(-1, 5)), "edges": _field(_PAIRS_OF_INTS)},
    "partition": {
        "parts": _field(hs.lists(_WITNESS, max_size=2)),
        "remainder": _field(_RISING),
        "metrics": _field(
            hs.fixed_dictionaries({}, optional={"k": _field(hs.integers(-1, 3))})
        ),
    },
    "avoid": {
        "a_blocks": _field(_FAMILY),
        "b_blocks": _field(_FAMILY),
        "guarantee": _field(_NUM),
    },
    "pages": {
        "n": _field(hs.integers(-1, 6)),
        "epsilon": _field(hs.sampled_from([0.5, 1.0, 0.0, 2.0])),
        "pages": _field(hs.lists(_PAGE, max_size=2)),
        "metrics": _field(hs.lists(_INT, max_size=2)),
    },
    "monopath": {"color": _field(hs.integers(-1, 3)), "vertices": _field(_RISING)},
    "blockpath": {
        "color": _field(hs.integers(-1, 3)),
        "endpoints": _field(_RISING),
        "blocks": _field(_BLOCKS),
    },
}
# one small valid artifact of each data kind
_DATA = {
    "sequence": {"values": [1.0, 3.0, 2.0, 4.0, 0.5, 6.0]},
    "coloring": {"n": 6, "q": 2, "colors": [1, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 1, 2, 1]},
    "points": {"points": [[0.0, 0.0], [1.0, 2.0], [2.0, 1.0], [3.0, 3.0], [0.5, 2.5]]},
    "graph": {"n": 6, "edges": [[1, 3], [2, 4], [1, 6], [3, 5]]},
}


def any_artifact():
    """(kind, document) over all ten artifact kinds."""
    def docs(kind):
        fields = _ARTIFACTS[kind]
        strategy = hs.fixed_dictionaries(fields) if isinstance(fields, dict) else fields
        return strategy.map(lambda doc: (kind, doc))

    return hs.sampled_from(sorted(_ARTIFACTS)).flatmap(docs)


@settings(max_examples=300, deadline=None)
@given(any_artifact())
@example(("blockpath", {"color": 1, "endpoints": [], "blocks": [[1], [2]]}))
@example(("blockpath", {"color": 1, "endpoints": [1], "blocks": [[2], [3]]}))
@example(("monopath", {"color": 1, "vertices": []}))
@example(("monopath", {"color": 0, "vertices": [1]}))
def test_every_artifact_kind_gets_a_documented_exit_code(case):
    kind, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        for dkind, data in _DATA.items():
            write(f"{tmp}/{dkind}.json", data)
        art_dir = f"{tmp}/art"
        os.mkdir(art_dir)
        art = f"{art_dir}/art.json"
        with open(art, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        alone = run(["verify", "--in", art]).exit_code
        assert alone in (0, 2, 3, 4)
        assert run(["verify", "--all", art_dir]).exit_code == alone
        rendered = run(["render", "--in", art, "--data", f"{tmp}/sequence.json",
                        "--out", f"{tmp}/out.svg"]).exit_code
        assert rendered in (0, 2, 3, 4)
        against = [run(["verify", "--witness", art, "--in", f"{tmp}/{d}.json"]).exit_code
                   for d in _DATA]
        assert set(against) <= {0, 2, 3, 4}
        if 0 in against:
            assert alone == 0
    if kind in {wkind for wkind, _ in cli._PAIRS} and alone == 0:
        spec = cli._KINDS[kind]
        spec.check(spec.read(doc))


# -- the producing commands' exit-code contract ------------------------------

# --epsilon values at and past both ends of (0, 1], as the command line gives them
_EPSILONS = ["1e-300", "5e-324", "1e-9", "0.01", "0.3", "0.5", "1", "0", "-0.5",
             "1.5", "nan", "inf"]
# what a corrupted artifact puts where a number or a list belongs
_JUNK = [True, None, "3", 2.5, -1, 0, 1e308, [], {}]


def _leaves(doc, at=()):
    """Paths to every scalar in a JSON document."""
    if isinstance(doc, dict):
        return [p for k in sorted(doc) for p in _leaves(doc[k], at + (k,))]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in _leaves(v, at + (i,))]
    return [at]


@hs.composite
def producer_cases(draw):
    """(argv without --in/--out, input file text) for ``extract``,
    ``partition``, ``avoid`` or ``paginate``: small and degenerate inputs,
    depths past sqrt(n), ``--c 1``, epsilon near 0 and at 1, collinear
    points, and now and then a corrupted document."""
    command = draw(hs.sampled_from(["extract", "partition", "avoid", "paginate"]))
    if command in ("extract", "partition"):
        n = draw(hs.integers(0, 40))
        if draw(hs.integers(0, 5)):
            values = draw(hs.permutations(range(n)))
        else:  # seven or more values in 0..5 always tie
            values = draw(hs.lists(hs.integers(0, 5), min_size=7, max_size=8))
        doc = {"values": [float(v) for v in values]}
        argv = [command, "--k", str(draw(hs.integers(-1, 8)))]
        if command == "extract":
            argv += draw(hs.sampled_from([[], ["--c", "1"], ["--c", "2"]]))
        else:
            argv += ["--mode", draw(hs.sampled_from(["full", "greedy"]))]
    elif command == "avoid":
        n = draw(hs.integers(0, 130))
        if draw(hs.integers(0, 3)) == 0:
            doc = {"points": [[float(i), 2.0 * i + 1.0] for i in range(n)]}
        else:
            rng = random.Random(draw(hs.integers(0, 99)))
            doc = {"points": [[rng.uniform(0, 1000), rng.uniform(0, 1000)] for _ in range(n)]}
        argv = ["avoid", "--k", str(draw(hs.sampled_from([0, 1, 1, 2])))]
    else:
        n = draw(hs.integers(1, 12))
        pairs = draw(hs.lists(hs.tuples(hs.integers(1, n), hs.integers(1, n)), max_size=30))
        edges = sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]})
        doc = {"n": n, "edges": [list(e) for e in edges]}
        eps = draw(hs.sampled_from(_EPSILONS) | hs.floats(1e-320, 1.0).map(repr))
        argv = ["paginate", "--epsilon", eps]
    corruption = draw(hs.sampled_from([None] * 4 + ["junk", "truncated", "not-object"]))
    leaves = _leaves(doc)
    if corruption == "junk" and leaves:
        *path, last = draw(hs.sampled_from(leaves))
        parent = doc
        for step in path:
            parent = parent[step]
        parent[last] = draw(hs.sampled_from(_JUNK))
    text = json.dumps(doc)
    if corruption == "truncated":
        text = text[: len(text) // 2]
    elif corruption == "not-object":
        text = json.dumps([doc])
    return argv, text


@settings(max_examples=300, deadline=None)
@given(producer_cases())
@example((["extract", "--k", "7", "--c", "1"], '{"values": [3.0, 1.0, 2.0]}'))
@example((["avoid", "--k", "1"], json.dumps({"points": [[i, 2 * i + 1] for i in range(40)]})))
def test_producers_exit_codes_hold_the_contract(case):
    argv, text = case
    with tempfile.TemporaryDirectory() as tmp:
        data, out = f"{tmp}/in.json", f"{tmp}/out.json"
        with open(data, "w", encoding="utf-8") as fh:
            fh.write(text)
        code = run(argv + ["--in", data, "--out", out]).exit_code
        assert code in (0, 2, 3, 4)
        if code == 0:
            ok(run(["verify", "--witness", out, "--in", data, "--oracle"]))


def test_paginate_tiny_epsilon_exits_0(tmp_path):
    graph = write(tmp_path / "g.json", {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]})
    out = str(tmp_path / "pages.json")
    for eps in ("1e-300", "5e-324"):
        result = ok(run(["paginate", "--epsilon", eps, "--in", graph, "--out", out]))
        assert result.log[0]["pages"] == 3
        ok(run(["verify", "--witness", out, "--in", graph, "--oracle"]))


def test_producer_failures_name_the_artifact_kind(tmp_path):
    col = gen(tmp_path, "coloring-recursive", "col.json", k=4, q=2)
    argv = ["ramsey", "--mode", "block-path", "--k", "2", "--s", "2", "--in", col]
    result = run(argv + ["--out", str(tmp_path / "none.json")])
    assert result.exit_code == 3
    assert result.log == [{"event": "search-exhausted", "what": "blockpath"}]
