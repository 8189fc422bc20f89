"""Batch command-line front end for the toolkit.

Subcommands: ``gen`` (seeded artifact generators), ``extract``
(block-monotone witness), ``partition`` (full or greedy sequence
partition), ``ramsey`` (coloring generation and monochromatic path
search), ``avoid`` (mutually avoiding families), ``paginate``
(low-crossing book drawing), ``verify`` (artifact validation), and
``render`` (SVG output).

Every producing command re-validates its own output before exiting 0.
Exit codes: 0 = requested guarantee produced and self-verified;
2 = precondition failure; 3 = verification mismatch or guarantee not
produced; 4 = I/O, schema, or usage error.  All randomness flows
through ``--seed``.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
import json
from pathlib import Path
import sys

import numpy as np

from . import jsonio, svg
from .avoid import (
    check_avoiding,
    gen_grid_clusters,
    gen_point_cloud,
    mutually_avoiding_sets,
)
from .biarc import OrderedGraph, count_page_crossings, paginate
from .core import (
    gen_clustered,
    gen_es_extremal,
    gen_random,
    validate_block_witness,
)
from .errors import (
    BudgetExceededError,
    IndeterminateGeometryError,
    InvalidInputError,
    PreconditionError,
    SearchFailedError,
)
from .extract import extract_block_monotone
from .jsonio import SchemaError
from .oracle import brute_avoiding_transversals, brute_crossings_geometric
from .partition import greedy_partition, partition_sequence
from .ramsey import (
    depth1_block_path,
    find_block_path,
    gen_random_coloring,
    gen_recursive_coloring,
    longest_monochromatic_path,
    validate_block_path,
)

__all__ = ["CommandResult", "run", "main"]


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
    if n < 2:
        raise InvalidInputError("graph generator needs n >= 2")
    total = n * (n - 1) // 2
    if not 1 <= m <= total:
        raise InvalidInputError(f"edge count must lie in 1..{total}, got {m}")
    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(total, size=m, replace=False))
    starts = np.cumsum([0] + [n - 1 - i for i in range(n - 1)])
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
        doc = jsonio.coloring_to_json(gen_random_coloring(args.n, args.q, args.seed))
    elif kind == "coloring-recursive":
        doc = jsonio.coloring_to_json(gen_recursive_coloring(args.k, args.q))
    elif kind == "points":
        doc = jsonio.points_to_json(gen_point_cloud(args.n, args.seed, args.box))
    elif kind == "points-grid":
        doc = jsonio.points_to_json(
            gen_grid_clusters(args.k, args.per_cluster, args.seed, args.jitter)
        )
    else:  # graph
        doc = jsonio.graph_to_json(_random_graph(args.n, args.m, args.seed))
    _self_verify(doc)
    jsonio.write_artifact(doc, args.out)
    return CommandResult(
        0, [args.out], [_entry("generated", kind=kind, path=args.out)]
    )


# -- producing commands ------------------------------------------------------

def cmd_extract(args) -> CommandResult:
    seq = jsonio.sequence_from_json(jsonio.read_artifact(args.infile))
    witness = extract_block_monotone(seq, args.k, args.c)
    if not validate_block_witness(seq, witness) or len(witness.blocks) < args.k:
        return _fail(3, "self-verification-failed", what="witness")
    jsonio.write_artifact(jsonio.witness_to_json(witness), args.out)
    return CommandResult(
        0,
        [args.out],
        [
            _entry(
                "extracted",
                depth=len(witness.blocks),
                block_size=len(witness.blocks[0]),
                direction=witness.direction,
                path=args.out,
            )
        ],
    )


def _check_partition(seq, lp, k: int, full: bool) -> bool:
    covered = list(lp.remainder)
    for ids, witness in lp.parts:
        if not validate_block_witness(seq, witness):
            return False
        if full and len(witness.blocks) < k:
            return False
        covered.extend(ids)
    if sorted(covered) != list(range(1, len(seq) + 1)):
        return False
    return not (full and len(lp.remainder) > (k - 1) ** 2)


def cmd_partition(args) -> CommandResult:
    seq = jsonio.sequence_from_json(jsonio.read_artifact(args.infile))
    if args.mode == "greedy":
        lp = greedy_partition(seq, args.k)
    else:
        lp = partition_sequence(seq, args.k)
    if not _check_partition(seq, lp, args.k, full=args.mode == "full"):
        return _fail(3, "self-verification-failed", what="partition")
    jsonio.write_artifact(jsonio.partition_to_json(lp), args.out)
    return CommandResult(
        0,
        [args.out],
        [
            _entry(
                "partitioned",
                mode=args.mode,
                parts=len(lp.parts),
                remainder=len(lp.remainder),
                path=args.out,
            )
        ],
    )


def _monopath_ok(col, color: int, vertices) -> bool:
    if len(vertices) < 1:
        return False
    if any(a >= b for a, b in zip(vertices, vertices[1:])):
        return False
    if not all(1 <= v <= col.n for v in vertices):
        return False
    return all(col.color(a, b) == color for a, b in zip(vertices, vertices[1:]))


def cmd_ramsey(args) -> CommandResult:
    if args.mode == "gen-recursive":
        if args.k is None:
            return _fail(4, "usage", detail="ramsey --mode gen-recursive needs --k")
        doc = jsonio.coloring_to_json(gen_recursive_coloring(args.k, args.q))
        _self_verify(doc)
        jsonio.write_artifact(doc, args.out)
        return CommandResult(0, [args.out], [_entry("generated", path=args.out)])
    if args.mode == "gen-random":
        doc = jsonio.coloring_to_json(gen_random_coloring(args.n, args.q, args.seed))
        _self_verify(doc)
        jsonio.write_artifact(doc, args.out)
        return CommandResult(0, [args.out], [_entry("generated", path=args.out)])
    if not args.infile:
        return _fail(4, "usage", detail=f"ramsey --mode {args.mode} needs --in")
    if args.mode == "block-path" and (args.k is None) != (args.s is None):
        return _fail(4, "usage", detail="block-path takes --k and --s together")
    col = jsonio.coloring_from_json(jsonio.read_artifact(args.infile))
    if args.mode == "search":
        color, vertices = longest_monochromatic_path(col)
        if not _monopath_ok(col, color, vertices):
            return _fail(3, "self-verification-failed", what="monopath")
        jsonio.write_artifact(jsonio.monopath_to_json(color, vertices), args.out)
        return CommandResult(
            0,
            [args.out],
            [_entry("searched", length=len(vertices), color=color, path=args.out)],
        )
    # block-path
    if args.k is not None and args.s is not None:
        witness = find_block_path(col, args.k, args.s)
    else:
        witness = depth1_block_path(col)
    if witness is None:
        return _fail(3, "search-exhausted", what="block-path")
    if not validate_block_path(col, witness):
        return _fail(3, "self-verification-failed", what="block-path")
    jsonio.write_artifact(jsonio.blockpath_to_json(witness), args.out)
    return CommandResult(
        0,
        [args.out],
        [
            _entry(
                "block-path",
                depth=witness.depth,
                block_size=witness.block_size,
                color=witness.color,
                path=args.out,
            )
        ],
    )


def cmd_avoid(args) -> CommandResult:
    points = jsonio.points_from_json(jsonio.read_artifact(args.infile))
    witness = mutually_avoiding_sets(points, args.k)
    if not check_avoiding(witness):
        return _fail(3, "self-verification-failed", what="avoiding-witness")
    jsonio.write_artifact(jsonio.avoid_to_json(witness), args.out)
    return CommandResult(
        0,
        [args.out],
        [
            _entry(
                "avoid",
                k=witness.k,
                block_sizes=[len(witness.a_blocks[0]), len(witness.b_blocks[0])],
                guarantee=witness.guarantee,
                path=args.out,
            )
        ],
    )


def cmd_paginate(args) -> CommandResult:
    graph = jsonio.graph_from_json(jsonio.read_artifact(args.infile))
    pp = paginate(graph, args.epsilon)
    drawn = sorted(e for page in pp.pages for e in page.edges)
    recount = tuple(count_page_crossings(p) for p in pp.pages)
    if drawn != sorted(graph.edges) or recount != pp.metrics:
        return _fail(3, "self-verification-failed", what="pages")
    doc = jsonio.pages_to_json(pp, graph.n)
    jsonio.write_artifact(doc, args.out)
    artifacts = [args.out]
    log = [
        _entry(
            "paginated",
            pages=len(pp.pages),
            crossings=pp.total_crossings,
            path=args.out,
        )
    ]
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg.render_pages(graph.n, pp.pages, pp.epsilon))
        artifacts.append(args.svg)
        log.append(_entry("rendered", path=args.svg))
    return CommandResult(0, artifacts, log)


# -- verification ------------------------------------------------------------

def _self_verify(doc) -> str:
    """Structural + self-contained semantic validation; returns the kind.

    Raises SchemaError for malformed documents and InvalidInputError for
    well-formed documents that fail their own invariants.
    """
    kind = jsonio.infer_kind(doc)
    if kind == "sequence":
        jsonio.sequence_from_json(doc)
    elif kind == "witness":
        jsonio.witness_from_json(doc)
    elif kind == "coloring":
        jsonio.coloring_from_json(doc)
    elif kind == "points":
        jsonio.points_from_json(doc)
    elif kind == "graph":
        jsonio.graph_from_json(doc)
    elif kind == "partition":
        lp = jsonio.partition_from_json(doc)
        ids = [i for part_ids, _ in lp.parts for i in part_ids] + list(lp.remainder)
        if len(set(ids)) != len(ids):
            raise InvalidInputError("partition parts and remainder overlap")
    elif kind == "avoid":
        witness = jsonio.avoid_from_json(doc)
        if not check_avoiding(witness):
            raise InvalidInputError("families are not mutually avoiding")
    elif kind == "pages":
        _, pp = jsonio.pages_from_json(doc)
        if tuple(count_page_crossings(p) for p in pp.pages) != pp.metrics:
            raise InvalidInputError("page crossing metrics do not match layout")
    elif kind == "monopath":
        color, vertices = jsonio.monopath_from_json(doc)
        if color < 1 or any(a >= b for a, b in zip(vertices, vertices[1:])):
            raise InvalidInputError("monopath must be strictly increasing")
    else:  # blockpath
        witness = jsonio.blockpath_from_json(doc)
        order = []
        for i, p in enumerate(witness.endpoints[:-1]):
            order.append((p,))
            if i < len(witness.blocks):
                order.append(witness.blocks[i])
        order.append((witness.endpoints[-1],))
        flat = [v for chunk in order for v in sorted(chunk)]
        if any(a >= b for a, b in zip(flat, flat[1:])):
            raise InvalidInputError("block path is not properly interleaved")
    return kind


def _verify_pair(witness_doc, data_doc, oracle: bool) -> tuple[bool, dict]:
    wkind = jsonio.infer_kind(witness_doc)
    dkind = jsonio.infer_kind(data_doc)
    if wkind == "witness" and dkind == "sequence":
        seq = jsonio.sequence_from_json(data_doc)
        w = jsonio.witness_from_json(witness_doc)
        return validate_block_witness(seq, w), {"checked": "witness-vs-sequence"}
    if wkind == "partition" and dkind == "sequence":
        seq = jsonio.sequence_from_json(data_doc)
        lp = jsonio.partition_from_json(witness_doc)
        k = lp.metrics.get("k")
        full = isinstance(k, int) and not isinstance(k, bool) and k >= 2
        return _check_partition(seq, lp, k if full else 2, full), {
            "checked": "partition-vs-sequence"
        }
    if wkind == "monopath" and dkind == "coloring":
        col = jsonio.coloring_from_json(data_doc)
        color, vertices = jsonio.monopath_from_json(witness_doc)
        return _monopath_ok(col, color, vertices), {"checked": "monopath-vs-coloring"}
    if wkind == "blockpath" and dkind == "coloring":
        col = jsonio.coloring_from_json(data_doc)
        w = jsonio.blockpath_from_json(witness_doc)
        return validate_block_path(col, w), {"checked": "blockpath-vs-coloring"}
    if wkind == "avoid" and dkind == "points":
        points = set(jsonio.points_from_json(data_doc).points)
        w = jsonio.avoid_from_json(witness_doc)
        members = [p for blk in w.a_blocks + w.b_blocks for p in blk]
        ok = all(p in points for p in members) and check_avoiding(w)
        if ok and oracle:
            ok = _oracle_failure(wkind, witness_doc) is None
        return ok, {"checked": "avoid-vs-points", "oracle": oracle}
    if wkind == "pages" and dkind == "graph":
        graph = jsonio.graph_from_json(data_doc)
        n, pp = jsonio.pages_from_json(witness_doc)
        drawn = sorted(e for page in pp.pages for e in page.edges)
        ok = n == graph.n and drawn == sorted(graph.edges)
        ok = ok and tuple(count_page_crossings(p) for p in pp.pages) == pp.metrics
        if ok and oracle:
            ok = _oracle_failure(wkind, witness_doc) is None
        return ok, {"checked": "pages-vs-graph", "oracle": oracle}
    raise SchemaError(f"cannot verify a {wkind} artifact against a {dkind}")


def _oracle_failure(kind: str, doc) -> str | None:
    """Re-check an avoid or pages artifact with the brute-force oracle; the
    reason it fails, or None.  Other kinds have no oracle check."""
    if kind == "avoid" and not brute_avoiding_transversals(jsonio.avoid_from_json(doc)):
        return "oracle transversal check failed"
    if kind == "pages":
        _, pp = jsonio.pages_from_json(doc)
        if any(count_page_crossings(p) != brute_crossings_geometric(p) for p in pp.pages):
            return "oracle crossing count mismatch"
    return None


def _verify_file(path: str, oracle: bool) -> tuple[str, int, str]:
    """Returns (path, exit-code contribution, detail)."""
    try:
        doc = jsonio.read_artifact(path)
        kind = _self_verify(doc)
        failure = _oracle_failure(kind, doc) if oracle else None
    except (SchemaError, OSError) as exc:
        return path, 4, str(exc)
    except (InvalidInputError, PreconditionError, IndeterminateGeometryError) as exc:
        return path, 3, str(exc)
    except BudgetExceededError as exc:
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
            ok, detail = _verify_pair(witness_doc, data_doc, args.oracle)
        except (InvalidInputError, PreconditionError) as exc:
            return _fail(3, "invalid-artifact", detail=str(exc))
        code = 0 if ok else 3
        return CommandResult(
            code, [], [_entry("verified" if ok else "mismatch", **detail)]
        )
    if not args.infile:
        return _fail(4, "usage", detail="verify needs --in, --witness or --all")
    path, code, detail = _verify_file(args.infile, args.oracle)
    event = "verified" if code == 0 else "failed"
    return CommandResult(code, [], [_entry(event, path=path, detail=detail)])


# -- rendering ---------------------------------------------------------------

def _scatter_groups_from_witness(seq, witness):
    values = seq.values
    member = set()
    groups = []
    for block in witness.blocks:
        groups.append([(float(i), float(values[i - 1])) for i in block])
        member.update(block)
    rest = [
        (float(i), float(values[i - 1]))
        for i in range(1, len(values) + 1)
        if i not in member
    ]
    return groups, rest


def cmd_render(args) -> CommandResult:
    doc = jsonio.read_artifact(args.infile)
    try:
        kind = jsonio.infer_kind(doc)
        if kind == "pages":
            content = svg.render_pages(*jsonio._spine_pages(doc))
        elif kind == "points":
            points = jsonio.points_from_json(doc)
            content = svg.render_scatter([], rest=points.points)
        elif kind == "avoid":
            witness = jsonio.avoid_from_json(doc)
            content = svg.render_scatter(list(witness.a_blocks + witness.b_blocks))
        elif kind == "sequence":
            seq = jsonio.sequence_from_json(doc)
            pts = [(float(i + 1), v) for i, v in enumerate(seq.values)]
            content = svg.render_scatter([], rest=pts)
        elif kind == "witness":
            if not args.data:
                return _fail(4, "usage", detail="render witness needs --data seq.json")
            seq = jsonio.sequence_from_json(jsonio.read_artifact(args.data))
            witness = jsonio.witness_from_json(doc)
            if not validate_block_witness(seq, witness):
                return _fail(3, "invalid-artifact", detail="witness fails validation")
            groups, rest = _scatter_groups_from_witness(seq, witness)
            content = svg.render_scatter(groups, rest=rest)
        elif kind == "partition":
            if not args.data:
                return _fail(
                    4, "usage", detail="render partition needs --data seq.json"
                )
            seq = jsonio.sequence_from_json(jsonio.read_artifact(args.data))
            lp = jsonio.partition_from_json(doc)
            if not _check_partition(seq, lp, 2, full=False):
                return _fail(3, "invalid-artifact", detail="partition fails validation")
            values = seq.values
            groups = [
                [(float(i), float(values[i - 1])) for i in ids]
                for ids, _ in lp.parts
            ]
            rest = [(float(i), float(values[i - 1])) for i in lp.remainder]
            content = svg.render_scatter(groups, rest=rest)
        else:
            return _fail(4, "usage", detail=f"cannot render a {kind} artifact")
    except (InvalidInputError, PreconditionError) as exc:
        return _fail(3, "invalid-artifact", detail=str(exc))
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

    p = sub.add_parser("ramsey", help="pair colorings and monochromatic paths")
    p.add_argument(
        "--mode",
        choices=["gen-recursive", "gen-random", "search", "block-path"],
        default="gen-recursive",
    )
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="infile", default=None)
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
