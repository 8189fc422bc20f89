"""Tests for JSON artifacts, SVG rendering, and the CLI front end."""

import json
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

from hypothesis import example, given, settings, strategies as hs
import pytest

from blockseq import jsonio, svg
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
        ["ramsey", "--mode", "gen-random", "--n", "3", "--q", "40000"],
    ],
    ids=["gen", "ramsey"],
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
        ["ramsey", "--mode", "gen-random", "--n", "10000000", "--q", "2"],
        ["gen", "--kind", "coloring-recursive", "--k", "2", "--q", "30"],
        ["ramsey", "--mode", "gen-recursive", "--k", "2", "--q", "30"],
    ],
    ids=["gen", "ramsey", "gen-recursive", "ramsey-recursive"],
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


def test_ramsey_gen_recursive_without_k_is_usage_error(tmp_path):
    out = tmp_path / "col.json"
    result = run(["ramsey", "--mode", "gen-recursive", "--q", "2", "--out", str(out)])
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
