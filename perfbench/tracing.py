"""Per-layer tracing from outside the package.

``Tracer.install`` replaces selected functions with timing wrappers at the
module attributes their callers look up (for example
``blockseq.partition.gapped_chain_dp``), and ``remove`` puts the originals
back.  Each wrapped call records a span (name, start, end, parent, root op)
in memory; counts are taken in the same wrappers.  Untraced runs install
nothing.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
import functools
import importlib
import json
import os
import statistics
import time

import blockseq

_mod = importlib.import_module


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, root op index]; -1 = none
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.max_multiset_n = 0
        self.guarantees: list[float] = []
        # (id(seq), s, direction) -> (seq, chain) for DP calls made by extract ops
        self.chains: dict = {}
        self._stack: list[int] = []
        self._tried: set | None = None
        self._collect = False
        self._paused = False
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else len(self.spans)
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, root])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    @contextmanager
    def paused(self):
        """Record nothing inside the block (input generation, for one)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- wrappers -------------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, after=None, search=False, collect=False):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return original(*args, **kwargs)
            outer_tried, outer_collect = tracer._tried, tracer._collect
            if search:
                tracer._tried = set()
            if collect:
                tracer._collect = True
            try:
                with tracer.span(name):
                    result = original(*args, **kwargs)
            finally:
                if search:
                    tracer.counts["searches"] += 1
                    tracer.counts["s_tried"] += len(tracer._tried)
                tracer._tried, tracer._collect = outer_tried, outer_collect
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _after_dp(self, args, chain) -> None:
        seq, s, direction = args
        self.counts["dp_cells"] += len(seq) ** 2
        if self._tried is not None:
            self._tried.add(s)
        if self._collect and chain.length >= 2:
            self.chains[(id(seq), s, direction)] = (seq, chain)

    def _after_partition(self, args, lp) -> None:
        self.counts["cleanup_parts"] += lp.metrics["cleanup_parts"]
        self.counts["iterations"] += lp.metrics["iterations"]

    def _after_multiset(self, args, result) -> None:
        self.max_multiset_n = max(self.max_multiset_n, len(args[0]))

    def _after_crossings(self, args, count) -> None:
        page = args[0]
        for spans in (page.upper_spans(), page.lower_spans()):
            self.counts["crossing_pairs"] += len(spans) * (len(spans) - 1) // 2

    def _after_middle(self, args, counts) -> None:
        self.counts["middle_cells"] += args[0].n ** 3

    def _after_avoid(self, args, w) -> None:
        self.guarantees.append(w.guarantee)

    def _after_write(self, args, result) -> None:
        self.counts["artifact_bytes"] += os.path.getsize(args[1])

    def install(self) -> None:
        part, ext, biarc = _mod("blockseq.partition"), _mod("blockseq.extract"), _mod("blockseq.biarc")
        avoid, ramsey, cli = _mod("blockseq.avoid"), _mod("blockseq.ramsey"), _mod("blockseq.cli")
        jsonio = _mod("blockseq.jsonio")
        p = self._patch
        # extract layer: the gapped-chain kernel and the block-size searches
        for owner in (part, ext):
            p(owner, "gapped_chain_dp", "extract.dp", after=self._after_dp)
            p(owner, "chain_to_blocks", "extract.chain_to_blocks")
            p(owner, "longest_monotone", "core.longest_monotone")
        p(part, "_best_gapped", "extract.search", search=True)
        p(blockseq, "max_gapped_blocksize", "blocksize", search=True)
        p(blockseq, "extract_block_monotone", "extract", collect=True)
        p(cli, "extract_block_monotone", "extract", collect=True)
        # partition layer, also reached from pagination
        for owner in (blockseq, biarc):
            p(owner, "partition_sequence", "partition", after=self._after_partition)
        p(blockseq, "greedy_partition", "greedy")
        # biarc layer
        p(blockseq, "paginate", "paginate")
        p(biarc, "partition_multiset", "biarc.multiset", after=self._after_multiset)
        p(biarc, "half_split", "biarc.half_split")
        p(biarc, "count_page_crossings", "biarc.crossings", after=self._after_crossings)
        # avoid layer
        p(blockseq, "mutually_avoiding_sets", "avoid", after=self._after_avoid)
        p(avoid, "balanced_line", "avoid.balanced_line")
        p(avoid, "extract_block_monotone", "avoid.extract")
        # ramsey layer
        p(blockseq, "depth1_block_path", "ramsey.depth1")
        p(blockseq, "longest_monochromatic_path", "ramsey.path")
        p(blockseq, "find_block_path", "ramsey.block_path")
        p(ramsey, "_middle_counts", "ramsey.middle_counts", after=self._after_middle)
        # artifact I/O, as the CLI reaches it
        p(jsonio, "read_artifact", "jsonio.read")
        p(jsonio, "write_artifact", "jsonio.write", after=self._after_write)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def cross_check(self) -> dict:
        """Re-price every consecutive pair of each collected chain with the
        independent range counter, as the extract module promises."""
        build_s, query_s, queries, mismatches = [], 0.0, 0, 0
        for seq, chain in self.chains.values():
            t0 = time.perf_counter()
            counter = blockseq.build_counter(seq)
            t1 = time.perf_counter()
            for i, j in zip(chain.chain, chain.chain[1:]):
                queries += 1
                if not blockseq.is_gapped_pair(counter, seq, i, j, chain.s):
                    mismatches += 1
            build_s.append(t1 - t0)
            query_s += time.perf_counter() - t1
        return {
            "rangecount.build_s": statistics.median(build_s) if build_s else 0.0,
            "rangecount.queries": queries,
            "rangecount.query_us": query_s / queries * 1e6 if queries else 0.0,
            "rangecount.mismatches": mismatches,
        }

    def _aggregate(self):
        total: dict = defaultdict(float)
        child: dict = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own: dict = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - child[index]
        return total, own, calls

    def _time_under(self, name: str, ancestor: str) -> float:
        """Total time of ``name`` spans that run inside an ``ancestor`` span."""
        found = 0.0
        for name_, start, end, parent, _ in self.spans:
            if name_ != name:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                found += end - start
        return found

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics; times and counts are per traced pass."""
        total, own, calls = self._aggregate()
        c = self.counts
        per = 1.0 / passes
        dp_s = total["extract.dp"]
        return {
            "extract.dp_calls": calls["extract.dp"] * per,
            "extract.dp_s": dp_s * per,
            "extract.dp_cells": c["dp_cells"] * per,
            "extract.dp_ns_per_cell": dp_s / c["dp_cells"] * 1e9 if c["dp_cells"] else 0.0,
            "extract.search_self_s": own["extract.search"] * per,
            "extract.s_tried_per_search": c["s_tried"] / c["searches"] if c["searches"] else 0.0,
            "extract.useful_dp_ratio": (
                calls["extract.chain_to_blocks"] / calls["extract.dp"] if calls["extract.dp"] else 0.0
            ),
            "core.longest_monotone_calls": calls["core.longest_monotone"] * per,
            "core.longest_monotone_s": total["core.longest_monotone"] * per,
            "partition.self_s": own["partition"] * per,
            "partition.dp_share": (
                self._time_under("extract.dp", "partition") / total["partition"]
                if total["partition"] else 0.0
            ),
            "partition.cleanup_parts": c["cleanup_parts"] * per,
            "partition.iterations": c["iterations"] * per,
            "greedy.self_s": own["greedy"] * per,
            "biarc.multiset_calls": calls["biarc.multiset"] * per,
            "biarc.multiset_s": total["biarc.multiset"] * per,
            "biarc.multiset_max_n": self.max_multiset_n,
            "biarc.half_split_s": total["biarc.half_split"] * per,
            "biarc.crossings_s": total["biarc.crossings"] * per,
            "biarc.crossing_pairs": c["crossing_pairs"] * per,
            "biarc.self_s": own["paginate"] * per,
            "avoid.balanced_line_s": total["avoid.balanced_line"] * per,
            "avoid.extract_s": total["avoid.extract"] * per,
            "avoid.self_s": own["avoid"] * per,
            "avoid.guarantee": statistics.fmean(self.guarantees) if self.guarantees else 0.0,
            "ramsey.depth1_s": total["ramsey.depth1"] * per,
            "ramsey.path_s": total["ramsey.path"] * per,
            "ramsey.block_path_s": total["ramsey.block_path"] * per,
            "ramsey.middle_cells": c["middle_cells"] * per,
            "cli.inproc_gen_s": total["cli.inproc_gen"] * per,
            "cli.inproc_extract_s": total["cli.inproc_extract"] * per,
            "cli.inproc_verify_s": total["cli.inproc_verify"] * per,
            "jsonio.read_s": total["jsonio.read"] * per,
            "jsonio.write_s": total["jsonio.write"] * per,
            "jsonio.artifact_bytes": c["artifact_bytes"] * per,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "root"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
