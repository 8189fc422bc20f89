"""blockseq: block-monotone structure in sequences and point sets.

Subsequence extraction with positionally separated monotone blocks,
order-respecting partitioning of sequences and planar point sets,
transitive-style colorings with long block paths, mutually avoiding point
families, and low-crossing book layouts for ordered graphs.
"""

import importlib

# Public name -> the submodule that defines it.  Names resolve on first
# access (PEP 562), so ``import blockseq`` loads no submodule and no numpy.
_EXPORTS = {
    "core": (
        "INC",
        "DEC",
        "BlockWitness",
        "InversionStats",
        "Sequence",
        "gen_clustered",
        "gen_es_extremal",
        "gen_random",
        "inversion_stats",
        "longest_monotone",
        "validate_block_witness",
    ),
    "errors": (
        "BlockseqError",
        "BudgetExceededError",
        "IndeterminateGeometryError",
        "InvalidInputError",
        "PreconditionError",
        "SearchFailedError",
    ),
    "extract": (
        "GappedChain",
        "chain_to_blocks",
        "extract_block_monotone",
        "gapped_chain_dp",
        "max_gapped_blocksize",
    ),
    "biarc": (
        "BIARCS",
        "UPPER_ARCS",
        "OrderedGraph",
        "Page",
        "PagePartition",
        "count_page_crossings",
        "half_split",
        "paginate",
        "partition_multiset",
        "spine_crossing",
    ),
    "avoid": (
        "AvoidingWitness",
        "Line",
        "balanced_line",
        "check_avoiding",
        "gen_grid_clusters",
        "gen_point_cloud",
        "mutually_avoiding_sets",
    ),
    "partition": (
        "LabeledPartition",
        "PointSet",
        "greedy_partition",
        "partition_point_set",
        "partition_sequence",
        "validate_point_witness",
    ),
    "rangecount": ("DominanceCounter", "build_counter", "count_open_box", "is_gapped_pair"),
    "ramsey": (
        "BlockPathWitness",
        "PairColoring",
        "coloring_from_sequence",
        "depth1_block_path",
        "find_block_path",
        "gen_random_coloring",
        "gen_recursive_coloring",
        "longest_monochromatic_path",
        "path_witness_to_blocks",
        "validate_block_path",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))


__version__ = "0.1.0"

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]
