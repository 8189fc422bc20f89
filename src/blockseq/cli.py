"""Batch command-line front end for the toolkit.

Subcommands: ``gen`` (seeded artifact generators: sequences, pair
colorings, point sets and graphs), ``extract`` (block-monotone witness),
``partition`` (full or greedy sequence partition), ``ramsey``
(monochromatic path and block-path search in a ``gen`` coloring),
``avoid`` (mutually avoiding families), ``paginate`` (low-crossing book
drawing), ``verify`` (artifact validation), and ``render`` (SVG output).

Every artifact kind has one reader, one writer and one check of its own, and
every (witness, data) pair one check of the witness against its input.  Each
producing command reads its input, computes, runs that pair check on its
output and only then writes it and exits 0 (``_produce``); ``verify`` and
``render`` read through the same checks.

Exit codes: 0 = requested guarantee produced and self-verified;
2 = precondition failure; 3 = verification mismatch or guarantee not
produced; 4 = I/O, schema, or usage error.  All randomness flows
through ``--seed``.

Each subcommand imports only the modules it runs, when it runs: ``gen
--kind sequence`` loads no algorithm module, and ``verify`` of sequences and
witnesses loads no numpy.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
import json
from pathlib import Path
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import jsonio
from .core import (
    gen_clustered,
    gen_es_extremal,
    gen_random,
    require_entries,
    require_seed,
    separated_blocks,
    validate_block_witness,
)
from .errors import (
    BudgetExceededError,
    IndeterminateGeometryError,
    InvalidInputError,
    PreconditionError,
    SearchFailedError,
)
from .jsonio import SchemaError

if TYPE_CHECKING:
    from .biarc import OrderedGraph

__all__ = ["CommandResult", "run", "main"]

_module = sys.modules[__name__]


def __getattr__(name):
    # ``cmd_extract`` calls the extractor through this module's attribute, so
    # a wrapper set on ``cli.extract_block_monotone`` is the one that runs.
    if name == "extract_block_monotone":
        from .extract import extract_block_monotone

        globals()[name] = extract_block_monotone
        return extract_block_monotone
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class CommandResult:
    """Outcome of one CLI invocation."""

    exit_code: int
    artifacts: list[str] = field(default_factory=list)
    log: list[dict] = field(default_factory=list)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit
        raise _UsageError(f"{self.prog}: {message}")


def _entry(event: str, **fields) -> dict:
    return {"event": event, **fields}


def _fail(code: int, event: str, **fields) -> CommandResult:
    return CommandResult(code, [], [_entry(event, **fields)])


# -- generators --------------------------------------------------------------

def _random_graph(n: int, m: int, seed: int) -> OrderedGraph:
    import numpy as np

    from .biarc import OrderedGraph

    require_seed(seed)
    if n < 2:
        raise InvalidInputError("graph generator needs n >= 2")
    total = n * (n - 1) // 2
    if not 1 <= m <= total:
        raise InvalidInputError(f"edge count must lie in 1..{total}, got {m}")
    require_entries(n + m)
    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(total, size=m, replace=False))
    starts = np.cumsum(np.r_[0, np.arange(n - 1, 0, -1)])  # first pair of each row
    rows = np.searchsorted(starts, picked, side="right") - 1
    cols = picked - starts[rows] + rows + 2
    return OrderedGraph(n, tuple((int(i) + 1, int(j)) for i, j in zip(rows, cols)))


def cmd_gen(args) -> CommandResult:
    kind = args.kind
    if kind == "sequence":
        doc = jsonio.sequence_to_json(gen_random(args.n, args.seed))
    elif kind == "clustered":
        doc = jsonio.sequence_to_json(
            gen_clustered(args.k, args.s, args.inner, args.delta, args.seed)
        )
    elif kind == "es-extremal":
        doc = jsonio.sequence_to_json(gen_es_extremal(args.k))
    elif kind == "coloring":
        from .ramsey import gen_random_coloring

        doc = jsonio.coloring_to_json(gen_random_coloring(args.n, args.q, args.seed))
    elif kind == "coloring-recursive":
        from .ramsey import gen_recursive_coloring

        doc = jsonio.coloring_to_json(gen_recursive_coloring(args.k, args.q))
    elif kind == "points":
        from .avoid import gen_point_cloud

        doc = jsonio.points_to_json(gen_point_cloud(args.n, args.seed, args.box))
    elif kind == "points-grid":
        from .avoid import gen_grid_clusters

        doc = jsonio.points_to_json(
            gen_grid_clusters(args.k, args.per_cluster, args.seed, args.jitter)
        )
    else:  # graph
        doc = jsonio.graph_to_json(_random_graph(args.n, args.m, args.seed))
    _parse(doc)  # what gen writes reads back
    jsonio.write_artifact(doc, args.out)
    return CommandResult(
        0, [args.out], [_entry("generated", kind=kind, path=args.out)]
    )


# -- artifact kinds ----------------------------------------------------------
#
# ``_KINDS`` gives each artifact kind its one reader, its one writer and its
# one check that needs nothing but the artifact; ``_PAIRS`` gives each
# (witness kind, data kind) pair its one check of a witness against the input
# it was made from.  Producers, ``verify`` and ``render`` all go through these
# two tables.  A failed check raises InvalidInputError; a pair check returns
# False on a mismatch and runs after the witness's own check (``_pair_ok``).


def _check_witness(w) -> None:
    if any(i < 1 for b in w.blocks for i in b) or not separated_blocks(w.blocks):
        raise InvalidInputError(
            "witness blocks must be non-empty, of one size, positive and "
            "positionally separated"
        )


def _check_partition(lp) -> None:
    ids = [i for part_ids, _ in lp.parts for i in part_ids] + list(lp.remainder)
    if len(set(ids)) != len(ids):
        raise InvalidInputError("partition parts and remainder overlap")
    if any(i < 1 for i in ids):
        raise InvalidInputError("partition indices must be positive")
    for _, w in lp.parts:
        _check_witness(w)
    # a partition that names its depth k promises parts of depth >= k and at
    # most (k - 1)^2 points left over
    k = lp.metrics.get("k", 0)  # an int: the reader refuses any other k
    if k >= 2:
        if any(len(w.blocks) < k for _, w in lp.parts) or len(lp.remainder) > (k - 1) ** 2:
            raise InvalidInputError(
                f"a depth-{k} partition needs parts of depth >= {k} and at "
                f"most {(k - 1) ** 2} points left over"
            )


def _check_monopath(path) -> None:
    color, vertices = path
    if color < 1 or not vertices or vertices[0] < 1:
        raise InvalidInputError("a path needs a color >= 1 and positive vertices")
    if any(a >= b for a, b in zip(vertices, vertices[1:])):
        raise InvalidInputError("monopath must be strictly increasing")


def _check_blockpath(w) -> None:
    from .ramsey import interleaved_path

    if not interleaved_path(w) or w.color < 1 or w.endpoints[0] < 1:
        raise InvalidInputError(
            "block path must interleave k >= 1 equal non-empty blocks with "
            "k + 1 positive endpoints, in a color >= 1"
        )


def _check_avoid(w) -> None:
    from .avoid import check_avoiding

    if not check_avoiding(w):
        raise InvalidInputError("families are not mutually avoiding")


def _check_pages(spine) -> None:
    from .biarc import Page, PagePartition, count_page_crossings

    _, pages, epsilon, metrics = spine
    if not pages and not metrics:
        return  # a bare spine has nothing to violate
    PagePartition(pages, epsilon, metrics)
    for p in pages:  # paginate builds its pages unchecked; every page check runs here
        Page(p.edges, p.style, p.split_b, p.layout)
    if tuple(count_page_crossings(p) for p in pages) != metrics:
        raise InvalidInputError("page crossing metrics do not match layout")


def _avoid_oracle(w) -> str | None:
    from .oracle import brute_avoiding_transversals

    return None if brute_avoiding_transversals(w) else "oracle transversal check failed"


def _pages_oracle(spine) -> str | None:
    from .biarc import count_page_crossings
    from .oracle import brute_crossings_geometric

    if any(count_page_crossings(p) != brute_crossings_geometric(p) for p in spine[1]):
        return "oracle crossing count mismatch"
    return None


def _scatter(groups, rest=()) -> str:
    from . import svg

    return svg.render_scatter(groups, rest=rest)


def _at(seq, ids) -> list[tuple[float, float]]:
    """(index, value) points of a sequence, 1-based."""
    return [(float(i), float(seq.values[i - 1])) for i in ids]


def _draw_witness(w, seq) -> str:
    member = {i for b in w.blocks for i in b}
    rest = [i for i in range(1, len(seq) + 1) if i not in member]
    return _scatter([_at(seq, b) for b in w.blocks], _at(seq, rest))


def _draw_partition(lp, seq) -> str:
    return _scatter([_at(seq, ids) for ids, _ in lp.parts], _at(seq, lp.remainder))


def _draw_pages(spine, _) -> str:
    from . import svg

    return svg.render_pages(spine[0], spine[1])


class _Kind(NamedTuple):
    read: Callable  # artifact document -> object
    write: Callable  # object -> artifact document
    check: Callable = lambda obj: None  # raises InvalidInputError
    oracle: Callable | None = None  # object -> failure reason or None
    draw: Callable | None = None  # (object, data object or None) -> SVG
    draw_on: str | None = None  # the --data kind that ``draw`` needs


_KINDS = {
    "sequence": _Kind(
        jsonio.sequence_from_json,
        jsonio.sequence_to_json,
        draw=lambda seq, _: _scatter([], _at(seq, range(1, len(seq) + 1))),
    ),
    "witness": _Kind(
        jsonio.witness_from_json,
        jsonio.witness_to_json,
        _check_witness,
        draw=_draw_witness,
        draw_on="sequence",
    ),
    "coloring": _Kind(jsonio.coloring_from_json, jsonio.coloring_to_json),
    "points": _Kind(
        jsonio.points_from_json,
        jsonio.points_to_json,
        draw=lambda ps, _: _scatter([], ps.points),
    ),
    "graph": _Kind(jsonio.graph_from_json, jsonio.graph_to_json),
    "partition": _Kind(
        jsonio.partition_from_json,
        jsonio.partition_to_json,
        _check_partition,
        draw=_draw_partition,
        draw_on="sequence",
    ),
    "avoid": _Kind(
        jsonio.avoid_from_json,
        jsonio.avoid_to_json,
        _check_avoid,
        _avoid_oracle,
        lambda w, _: _scatter(list(w.a_blocks + w.b_blocks)),
    ),
    # (n, pages, epsilon, metrics); an empty page list is a bare spine
    "pages": _Kind(
        jsonio._spine_pages,
        jsonio.pages_to_json,
        _check_pages,
        _pages_oracle,
        _draw_pages,
    ),
    "monopath": _Kind(
        jsonio.monopath_from_json, jsonio.monopath_to_json, _check_monopath
    ),
    "blockpath": _Kind(
        jsonio.blockpath_from_json, jsonio.blockpath_to_json, _check_blockpath
    ),
}


def _partition_on(lp, seq) -> bool:
    if not all(validate_block_witness(seq, w) for _, w in lp.parts):
        return False
    covered = [i for ids, _ in lp.parts for i in ids] + list(lp.remainder)
    return sorted(covered) == list(range(1, len(seq) + 1))


def _monopath_on(path, col) -> bool:
    color, vertices = path
    return vertices[-1] <= col.n and all(
        col.color(a, b) == color for a, b in zip(vertices, vertices[1:])
    )


def _blockpath_on(w, col) -> bool:
    from .ramsey import validate_block_path

    return validate_block_path(col, w)


def _avoid_on(w, points) -> bool:
    present = set(points.points)
    return all(p in present for blk in w.a_blocks + w.b_blocks for p in blk)


def _pages_on(spine, graph) -> bool:
    n, pages = spine[:2]
    drawn = sorted(e for page in pages for e in page.edges)
    return n == graph.n and drawn == sorted(graph.edges)


_PAIRS = {
    ("witness", "sequence"): lambda w, seq: validate_block_witness(seq, w),
    ("partition", "sequence"): _partition_on,
    ("monopath", "coloring"): _monopath_on,
    ("blockpath", "coloring"): _blockpath_on,
    ("avoid", "points"): _avoid_on,
    ("pages", "graph"): _pages_on,
}


def _parse(doc) -> tuple[str, object]:
    """(kind, object) of an artifact document: SchemaError when it is
    malformed, InvalidInputError when its values break a domain rule."""
    kind = jsonio.infer_kind(doc)
    return kind, _KINDS[kind].read(doc)


def _parse_data(wkind: str, doc) -> tuple[str, object]:
    """(kind, object) of the input a ``wkind`` witness is checked against;
    SchemaError when no pair check takes that kind."""
    dkind = jsonio.infer_kind(doc)
    if (wkind, dkind) not in _PAIRS:
        raise SchemaError(f"cannot verify a {wkind} artifact against a {dkind}")
    return dkind, _KINDS[dkind].read(doc)


def _pair_ok(wkind: str, obj, dkind: str, data) -> bool:
    """The witness's own check, then its pair check against ``data``."""
    _KINDS[wkind].check(obj)
    return _PAIRS[wkind, dkind](obj, data)


def _self_verified(wkind: str, obj, dkind: str, data) -> bool:
    """A producer's check of the object it is about to write against the
    input it read."""
    try:
        return _pair_ok(wkind, obj, dkind, data)
    except InvalidInputError:
        return False


# -- producing commands ------------------------------------------------------

def _produce(args, dkind: str, wkind: str, make, log, promise=None) -> CommandResult:
    """The one path of every producing command: read ``args.infile`` as a
    ``dkind`` artifact, ``make`` a ``wkind`` object from it (None when the
    search finds none), check the object against the input, and only then
    write it to ``args.out`` and log the ``log(obj)`` entry with the path.
    A ``promise`` the command makes beyond the pair check fails as the pair
    check does.  Failures name the artifact kind as ``what``."""
    data = _KINDS[dkind].read(jsonio.read_artifact(args.infile))
    obj = make(data)
    if obj is None:
        return _fail(3, "search-exhausted", what=wkind)
    if not _self_verified(wkind, obj, dkind, data) or (promise and not promise(obj)):
        return _fail(3, "self-verification-failed", what=wkind)
    jsonio.write_artifact(_KINDS[wkind].write(obj), args.out)
    return CommandResult(0, [args.out], [{**log(obj), "path": args.out}])


def cmd_extract(args) -> CommandResult:
    def extract(seq):
        return _module.extract_block_monotone(seq, args.k, args.c)

    def log(w):
        depth, size = len(w.blocks), len(w.blocks[0])
        return _entry("extracted", depth=depth, block_size=size, direction=w.direction)

    def deep(w):
        return len(w.blocks) >= args.k

    return _produce(args, "sequence", "witness", extract, log, deep)


def cmd_partition(args) -> CommandResult:
    from .partition import greedy_partition, partition_sequence

    split = greedy_partition if args.mode == "greedy" else partition_sequence

    def log(lp):
        parts, rest = len(lp.parts), len(lp.remainder)
        return _entry("partitioned", mode=args.mode, parts=parts, remainder=rest)

    return _produce(args, "sequence", "partition", lambda seq: split(seq, args.k), log)


def cmd_ramsey(args) -> CommandResult:
    from .ramsey import depth1_block_path, find_block_path, longest_monochromatic_path

    if args.mode == "search":
        return _produce(
            args,
            "coloring",
            "monopath",
            longest_monochromatic_path,
            lambda path: _entry("searched", length=len(path[1]), color=path[0]),
        )
    if (args.k is None) != (args.s is None):
        return _fail(4, "usage", detail="block-path takes --k and --s together")

    def search(col):
        if args.k is None:
            return depth1_block_path(col)
        return find_block_path(col, args.k, args.s)

    def log(w):
        return _entry(
            "block-path", depth=w.depth, block_size=w.block_size, color=w.color
        )

    return _produce(args, "coloring", "blockpath", search, log)


def cmd_avoid(args) -> CommandResult:
    from .avoid import mutually_avoiding_sets

    def log(w):
        sizes = [len(w.a_blocks[0]), len(w.b_blocks[0])]
        return _entry("avoid", k=w.k, block_sizes=sizes, guarantee=w.guarantee)

    return _produce(
        args, "points", "avoid", lambda ps: mutually_avoiding_sets(ps, args.k), log
    )


def cmd_paginate(args) -> CommandResult:
    from .biarc import paginate

    drawn = []  # the spine written, for --svg

    def draw(graph):
        if args.svg:
            from .svg import require_spine

            require_spine(graph.n)  # before any work or any write
        pp = paginate(graph, args.epsilon)
        drawn.append((graph.n, pp.pages, pp.epsilon, pp.metrics))
        return drawn[0]

    def log(spine):
        return _entry("paginated", pages=len(spine[1]), crossings=sum(spine[3]))

    result = _produce(args, "graph", "pages", draw, log)
    if result.exit_code == 0 and args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(_draw_pages(drawn[0], None))
        result.artifacts.append(args.svg)
        result.log.append(_entry("rendered", path=args.svg))
    return result


# -- verification ------------------------------------------------------------

def _verify_file(path: str, oracle: bool) -> tuple[str, int, str]:
    """Returns (path, exit-code contribution, detail)."""
    try:
        kind, obj = _parse(jsonio.read_artifact(path))
        spec = _KINDS[kind]
        spec.check(obj)
        failure = spec.oracle(obj) if oracle and spec.oracle else None
    except (SchemaError, OSError) as exc:
        return path, 4, str(exc)
    except (
        InvalidInputError,
        PreconditionError,
        IndeterminateGeometryError,
        BudgetExceededError,
    ) as exc:
        return path, 3, str(exc)
    if failure:
        return path, 3, failure
    return path, 0, kind


def cmd_verify(args) -> CommandResult:
    if args.all:
        files = sorted(str(p) for p in Path(args.all).glob("*.json"))
        if not files:
            return _fail(4, "no-artifacts", directory=args.all)
        results = [_verify_file(f, args.oracle) for f in files]
        log = [
            _entry("verified" if code == 0 else "failed", path=p, detail=detail)
            for p, code, detail in results
        ]
        return CommandResult(max(code for _, code, _ in results), [], log)
    if args.witness:
        if not args.infile:
            return _fail(4, "usage", detail="verify --witness also needs --in")
        witness_doc = jsonio.read_artifact(args.witness)
        data_doc = jsonio.read_artifact(args.infile)
        try:
            wkind, obj = _parse(witness_doc)
            dkind, data = _parse_data(wkind, data_doc)
            ok = _pair_ok(wkind, obj, dkind, data)
            oracle = _KINDS[wkind].oracle
            if ok and args.oracle and oracle:
                ok = oracle(obj) is None
        except (InvalidInputError, PreconditionError) as exc:
            return _fail(3, "invalid-artifact", detail=str(exc))
        detail = {"checked": f"{wkind}-vs-{dkind}", "oracle": args.oracle}
        return CommandResult(
            0 if ok else 3, [], [_entry("verified" if ok else "mismatch", **detail)]
        )
    if not args.infile:
        return _fail(4, "usage", detail="verify needs --in, --witness or --all")
    path, code, detail = _verify_file(args.infile, args.oracle)
    event = "verified" if code == 0 else "failed"
    return CommandResult(code, [], [_entry(event, path=path, detail=detail)])


# -- rendering ---------------------------------------------------------------

def cmd_render(args) -> CommandResult:
    doc = jsonio.read_artifact(args.infile)
    kind = jsonio.infer_kind(doc)
    spec = _KINDS[kind]
    if spec.draw is None:
        return _fail(4, "usage", detail=f"cannot render a {kind} artifact")
    if spec.draw_on and not args.data:
        return _fail(4, "usage", detail=f"render {kind} needs --data {spec.draw_on}.json")
    try:
        obj = spec.read(doc)
        data = None
        if spec.draw_on:
            dkind, data = _parse_data(kind, jsonio.read_artifact(args.data))
            if not _pair_ok(kind, obj, dkind, data):
                return _fail(3, "invalid-artifact", detail=f"{kind} fails validation")
        else:
            spec.check(obj)
    except (InvalidInputError, PreconditionError) as exc:
        return _fail(3, "invalid-artifact", detail=str(exc))
    content = spec.draw(obj, data)  # a valid artifact too big to draw exits 2
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(content)
    return CommandResult(0, [args.out], [_entry("rendered", path=args.out)])


# -- parser ------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="blockseq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generator artifact")
    p.add_argument(
        "--kind",
        required=True,
        choices=[
            "sequence",
            "clustered",
            "es-extremal",
            "coloring",
            "coloring-recursive",
            "points",
            "points-grid",
            "graph",
        ],
    )
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--s", type=int, default=4)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--m", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", type=float, default=1000.0)
    p.add_argument("--per-cluster", type=int, default=30, dest="per_cluster")
    p.add_argument("--jitter", type=float, default=0.02)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument(
        "--inner",
        choices=["increasing", "decreasing", "seeded-random"],
        default="increasing",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("extract", help="block-monotone witness from a sequence")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("partition", help="partition a sequence into block parts")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["full", "greedy"], default="full")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("ramsey", help="monochromatic paths in a pair coloring")
    p.add_argument("--mode", choices=["search", "block-path"], required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ramsey)

    p = sub.add_parser("avoid", help="mutually avoiding families of a point set")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_avoid)

    p = sub.add_parser("paginate", help="book drawing with bounded page crossings")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_paginate)

    p = sub.add_parser("verify", help="validate artifacts")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--witness", default=None)
    p.add_argument("--all", default=None)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="render an artifact as SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def run(argv) -> CommandResult:
    """Dispatch one CLI invocation; never raises for expected failures."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        return _fail(4, "usage", detail=str(exc), usage=parser.format_usage().strip())
    except SystemExit as exc:  # --help prints and asks to exit
        return CommandResult(int(exc.code or 0), [], [])
    try:
        return args.func(args)
    except (SchemaError, OSError) as exc:
        return _fail(4, "schema-or-io-error", detail=str(exc))
    except (InvalidInputError, PreconditionError) as exc:
        return _fail(2, "precondition-failed", detail=str(exc))
    except (SearchFailedError, BudgetExceededError, IndeterminateGeometryError) as exc:
        return _fail(3, "guarantee-not-produced", detail=str(exc))


def main(argv=None) -> None:
    result = run(sys.argv[1:] if argv is None else argv)
    for entry in result.log:
        print(json.dumps(entry, sort_keys=True))
    sys.exit(result.exit_code)
