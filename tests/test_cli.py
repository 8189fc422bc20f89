"""Tests for JSON artifacts, SVG rendering, and the CLI front end."""

import json
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from blockseq import jsonio, svg
from blockseq.biarc import BIARCS, Page, spine_crossing
from blockseq.cli import CommandResult, run
from blockseq.errors import InvalidInputError

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
    with pytest.raises(InvalidInputError):
        svg.render_scatter([])
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
    assert small.exit_code == 2  # 120 <= 24 * 9


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


def test_paginate_part_cap_failure_is_typed(tmp_path):
    # this instance exceeds partition_multiset's part cap; the failure must
    # surface as exit 3 (SearchFailedError), never as a traceback
    g = gen(tmp_path, "graph", "g.json", n=400, m=8000, seed=1)
    pages = str(tmp_path / "pages.json")
    result = run(["paginate", "--epsilon", "0.5", "--in", g, "--out", pages])
    assert result.exit_code in (0, 3), result.log
    if result.exit_code == 0:
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
