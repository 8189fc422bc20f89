"""One scalar rule at every entry point: an integer is any integral number
but a bool, numpy's included; a real is any real number but a bool (a str
is none), numpy's included, and finite.  Hostile scalars fed to the public
constructors, the generator and algorithm parameters, the artifact readers
and the CLI get a typed error, never another exception; numpy scalars get
the same outcome as the Python number they hold."""

import json
import math
import tempfile

from hypothesis import given, settings, strategies as hs
import numpy as np
import pytest

import blockseq as bs
from blockseq import cli, jsonio, svg
from blockseq.errors import BlockseqError

NAN, INF = math.nan, math.inf
# hostile values of every kind: bools, strings, numpy scalars, integers past
# the float range and non-finite floats
HOSTILE = [
    True, False, "3", " 2 ", "nan",
    np.int64(3), np.int32(2), np.uint8(1), np.float64(2.5), np.float32(0.5), np.bool_(True),
    10**400, -(10**400), NAN, INF, -INF,
]

SEQ = bs.Sequence([5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 0.0])
PTS = bs.PointSet([(float(i), float((7 * i) % 11)) for i in range(11)])
COL = bs.gen_random_coloring(8, 2, 0)
MONO = bs.PairColoring(4, 1, np.ones((4, 4), dtype=np.int16))
GRAPH = bs.OrderedGraph(4, ((1, 3), (2, 4), (1, 4)))
ARC = (((1.0, 3.0), None),)
PAGE = bs.Page(((1, 3),), bs.UPPER_ARCS, 1, ARC)
CLOUD = bs.gen_point_cloud(120, 0)
P4, Q4 = [[0.0, 1.0], [1.0, 2.0]], [[0.5, -1.0], [1.5, -2.0]]

# one call per scalar slot, with ``v`` in that slot and valid values elsewhere
SLOTS = {
    # public constructors
    "Sequence-value": lambda v: bs.Sequence([1.5, v]),
    "BlockWitness-index": lambda v: bs.BlockWitness(bs.INC, ((v,), (4,))),
    "PointSet-x": lambda v: bs.PointSet([(v, 1.0), (2.0, 3.0)]),
    "PointSet-y": lambda v: bs.PointSet([(0.5, v), (2.0, 3.0)]),
    "OrderedGraph-n": lambda v: bs.OrderedGraph(v, ((1, 2),)),
    "OrderedGraph-endpoint": lambda v: bs.OrderedGraph(4, ((1, v),)),
    "Page-split_b": lambda v: bs.Page(((1, 3),), bs.UPPER_ARCS, v, ARC),
    "Page-endpoint": lambda v: bs.Page(((v, 3),), bs.UPPER_ARCS, 1, ARC),
    "Page-span": lambda v: bs.Page(((1, 3),), bs.UPPER_ARCS, 1, (((v, 3.0), None),)),
    "PagePartition-epsilon": lambda v: bs.PagePartition((PAGE,), v, (0,)),
    "PagePartition-count": lambda v: bs.PagePartition((PAGE,), 0.5, (v,)),
    "Line-slope": lambda v: bs.Line(v, 0.0),
    "Line-intercept": lambda v: bs.Line(0.0, v),
    "AvoidingWitness-coordinate": lambda v: bs.AvoidingWitness([[(v, 1.0)]], [[(2.0, 3.0)]], 0.5),
    "AvoidingWitness-guarantee": lambda v: bs.AvoidingWitness([[(0.5, 1.0)]], [[(2.0, 3.0)]], v),
    "PairColoring-n": lambda v: bs.PairColoring(v, 1, np.ones((3, 3))),
    "PairColoring-q": lambda v: bs.PairColoring(3, v, np.ones((3, 3))),
    "DominanceCounter-value": lambda v: vars(bs.DominanceCounter([1.5, v, 0.5])),
    # generator parameters
    "gen_random-n": lambda v: bs.gen_random(v),
    "gen_random-seed": lambda v: bs.gen_random(6, v),
    "gen_es_extremal-k": lambda v: bs.gen_es_extremal(v),
    "gen_clustered-k": lambda v: bs.gen_clustered(v, 2),
    "gen_clustered-s": lambda v: bs.gen_clustered(2, v),
    "gen_clustered-delta": lambda v: bs.gen_clustered(2, 2, "increasing", v),
    "gen_clustered-seed": lambda v: bs.gen_clustered(2, 2, "seeded-random", 0.25, v),
    "gen_point_cloud-n": lambda v: bs.gen_point_cloud(v),
    "gen_point_cloud-seed": lambda v: bs.gen_point_cloud(5, v),
    "gen_point_cloud-box": lambda v: bs.gen_point_cloud(5, 0, v),
    "gen_grid_clusters-k": lambda v: bs.gen_grid_clusters(v, 2),
    "gen_grid_clusters-per_cluster": lambda v: bs.gen_grid_clusters(2, v),
    "gen_grid_clusters-seed": lambda v: bs.gen_grid_clusters(2, 2, v),
    "gen_grid_clusters-jitter": lambda v: bs.gen_grid_clusters(2, 2, 0, v),
    "gen_random_coloring-n": lambda v: bs.gen_random_coloring(v, 2, 0),
    "gen_random_coloring-q": lambda v: bs.gen_random_coloring(5, v, 0),
    "gen_random_coloring-seed": lambda v: bs.gen_random_coloring(5, 2, v),
    "gen_recursive_coloring-k": lambda v: bs.gen_recursive_coloring(v, 2),
    "gen_recursive_coloring-q": lambda v: bs.gen_recursive_coloring(2, v),
    # algorithm parameters
    "extract-k": lambda v: bs.extract_block_monotone(SEQ, v),
    "extract-c": lambda v: bs.extract_block_monotone(SEQ, 2, v),
    "max_gapped_blocksize-k": lambda v: bs.max_gapped_blocksize(SEQ, v),
    "gapped_chain_dp-s": lambda v: bs.gapped_chain_dp(SEQ, v, bs.INC),
    "partition_sequence-k": lambda v: bs.partition_sequence(SEQ, v),
    "greedy_partition-k": lambda v: bs.greedy_partition(SEQ, v),
    "partition_point_set-k": lambda v: bs.partition_point_set(PTS, v),
    "partition_multiset-value": lambda v: bs.partition_multiset([2, v, 1, 3], 2),
    "partition_multiset-k": lambda v: bs.partition_multiset([2, 1, 3], v),
    "spine_crossing-l": lambda v: bs.spine_crossing(v, 3, 2, 4),
    "spine_crossing-n": lambda v: bs.spine_crossing(1, 3, 2, v),
    "paginate-epsilon": lambda v: bs.paginate(GRAPH, v),
    "paginate-n": lambda v: bs.paginate(bs.OrderedGraph(v, ((1, 2),)), 0.5),
    "balanced_line-m": lambda v: bs.balanced_line(P4, Q4, bs.Line(0.0, 0.0), v),
    "balanced_line-coordinate": lambda v: bs.balanced_line(
        [[v, 1.0], [1.0, 2.0]], Q4, bs.Line(0.0, 0.0), 1
    ),
    "mutually_avoiding_sets-k": lambda v: bs.mutually_avoiding_sets(CLOUD, v),
    "find_block_path-k": lambda v: bs.find_block_path(COL, v, 1),
    "find_block_path-s": lambda v: bs.find_block_path(COL, 1, v),
    "is_gapped_pair-i": lambda v: bs.is_gapped_pair(bs.build_counter(SEQ), SEQ, v, 6, 1),
    "validate_block_path-vertex": lambda v: bs.validate_block_path(
        MONO, bs.BlockPathWitness(1, (1, 3), ((v,),))
    ),
    "validate_block_path-color": lambda v: bs.validate_block_path(
        MONO, bs.BlockPathWitness(v, (1, 3), ((2,),))
    ),
    "render_pages-n": lambda v: svg.render_pages(v, []),
    "Sequence.value-i": lambda v: SEQ.value(v),
    "PairColoring.color-i": lambda v: COL.color(v, 5),
}


def outcome(call, v):
    """("ok", result) or ("error", its type); any other exception escapes."""
    try:
        return "ok", call(v)
    except BlockseqError as exc:
        return "error", type(exc)


@settings(max_examples=300, deadline=None)
@given(hs.sampled_from(sorted(SLOTS)), hs.sampled_from(HOSTILE))
def test_hostile_scalars_get_typed_errors(slot, v):
    kind, _ = outcome(SLOTS[slot], v)
    if isinstance(v, (bool, np.bool_, str)):
        assert kind == "error", (slot, v)  # refused everywhere
    elif isinstance(v, np.generic):
        # a numpy scalar fares as the Python number it holds
        assert outcome(SLOTS[slot], v) == outcome(SLOTS[slot], v.item()), (slot, v)


@pytest.mark.parametrize("v", [np.int64(3), np.int32(3), np.uint16(3)])
def test_numpy_ints_become_python_ints(tmp_path, v):
    path = tmp_path / "g.json"
    for edges in ((), ((np.int64(1), v),)):
        graph = bs.OrderedGraph(v, edges)
        assert type(graph.n) is int and all(type(x) is int for e in graph.edges for x in e)
        jsonio.write_artifact(jsonio.graph_to_json(graph), path)
        assert jsonio.graph_from_json(jsonio.read_artifact(path)) == bs.OrderedGraph(3, edges)
    assert bs.gen_random(v, v) == bs.gen_random(3, 3)
    assert type(bs.PairColoring(v, 1, np.ones((3, 3))).n) is int
    assert type(bs.Page(((1, 3),), bs.UPPER_ARCS, v - 2, ARC).split_b) is int


# -- artifact readers ----------------------------------------------------------

def _docs() -> dict:
    """One small valid document of every artifact kind."""
    lp = bs.partition_sequence(SEQ, 2)
    pp = bs.paginate(GRAPH, 0.5)
    col = bs.gen_random_coloring(4, 2, 0)
    triples = {"n": 3, "q": 2, "colors": [[1, 2, 1], [1, 3, 2], [2, 3, 1]]}
    return {
        "sequence": jsonio.sequence_to_json(SEQ),
        "witness": jsonio.witness_to_json(bs.extract_block_monotone(SEQ, 2)),
        "coloring": jsonio.coloring_to_json(col),
        "coloring-triples": triples,
        "points": jsonio.points_to_json(PTS),
        "graph": jsonio.graph_to_json(GRAPH),
        "partition": jsonio.partition_to_json(lp),
        "avoid": jsonio.avoid_to_json(bs.AvoidingWitness([[(0.5, 1.0)]], [[(2.0, 3.0)]], 0.5)),
        "pages": jsonio.pages_to_json((GRAPH.n, pp.pages, pp.epsilon, pp.metrics)),
        "monopath": jsonio.monopath_to_json(bs.longest_monochromatic_path(col)),
        "blockpath": jsonio.blockpath_to_json(bs.find_block_path(COL, 1, 1)),
    }


DOCS = _docs()
# what a JSON file can put where a number belongs (json reads NaN, Infinity)
JSON_HOSTILE = [True, False, "3", None, 2.5, NAN, INF, -INF, 10**400, -(10**400)]


def _numbers(doc, at=()):
    """Paths to every number in a JSON document."""
    if isinstance(doc, dict):
        return [p for k in sorted(doc) for p in _numbers(doc[k], at + (k,))]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in _numbers(v, at + (i,))]
    return [at] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


def _replaced(doc, path, v):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = v
    return doc


@hs.composite
def hostile_docs(draw):
    """(kind, document, path) with one number of a valid document replaced."""
    kind = draw(hs.sampled_from(sorted(DOCS)))
    # a partition's metrics are free-form, but for the depth k it promises
    paths = [p for p in _numbers(DOCS[kind]) if kind != "partition" or p[0] != "metrics"
             or p == ("metrics", "k")]
    path = draw(hs.sampled_from(paths))
    return kind, _replaced(DOCS[kind], path, draw(hs.sampled_from(JSON_HOSTILE))), path


@settings(max_examples=300, deadline=None)
@given(hostile_docs())
def test_readers_refuse_hostile_numbers_with_typed_errors(case):
    kind, doc, path = case
    v = doc
    for step in path:
        v = v[step]
    try:
        cli._parse(doc)
    except jsonio.SchemaError:
        pass
    except BlockseqError:
        # a value of the right JSON type that breaks a domain rule
        assert not isinstance(v, (bool, str)) and v is not None, (kind, path, v)
    else:
        assert not isinstance(v, (bool, str)) and v is not None, (kind, path, v)
        assert not (isinstance(v, float) and not math.isfinite(v)), (kind, path, v)


# -- the command line ----------------------------------------------------------

# producing commands and the input kind each reads
PRODUCERS = {
    "sequence": ["extract", "--k", "2"],
    "points": ["avoid", "--k", "1"],
    "graph": ["paginate", "--epsilon", "0.5"],
    "coloring": ["ramsey", "--mode", "search"],
}
# hostile values for an int of the input (a count, an index, a color) and
# for a real (a value, a coordinate); each is wrong in type or not finite
INT_HOSTILE = [True, "3", None, 2.5, NAN, INF, -INF, -(10**400)]
REAL_HOSTILE = [True, "3", None, NAN, INF, -INF, 10**400, -(10**400)]


@hs.composite
def hostile_inputs(draw):
    kind = draw(hs.sampled_from(sorted(PRODUCERS)))
    path = draw(hs.sampled_from(_numbers(DOCS[kind])))
    at = DOCS[kind]
    for step in path:
        at = at[step]
    v = draw(hs.sampled_from(INT_HOSTILE if isinstance(at, int) else REAL_HOSTILE))
    return kind, _replaced(DOCS[kind], path, v)


@settings(max_examples=150, deadline=None)
@given(hostile_inputs())
def test_cli_refuses_hostile_numbers_with_exit_2_or_4(case):
    kind, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        data, out = f"{tmp}/in.json", f"{tmp}/out.json"
        with open(data, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert cli.run(PRODUCERS[kind] + ["--in", data, "--out", out]).exit_code in (2, 4)
        assert cli.run(["verify", "--in", data]).exit_code in (3, 4)
