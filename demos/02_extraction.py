"""Extracting wide block-monotone structure with gapped chains.

A single longest monotone subsequence only reaches length ~sqrt(n).  To get
*blocks* of many entries each, the extractor chains pairs that keep at least
s entries strictly between them in both index and value; each such pair then
donates a full block of s entries.
"""

import math

from blockseq import (
    chain_to_blocks,
    extract_block_monotone,
    gapped_chain_dp,
    gen_random,
    max_gapped_blocksize,
    validate_block_witness,
)
from blockseq.extract import DEFAULT_C

seq = gen_random(2000, seed=3)
n = len(seq)
k = 3

# -- the raw DP --------------------------------------------------------------

s = 40
for direction in ("inc", "dec"):
    ch = gapped_chain_dp(seq, s, direction)
    print(f"{direction} chains with gap {s}: longest has {ch.length} entries")

ch = gapped_chain_dp(seq, s, "dec")
w = chain_to_blocks(seq, ch)
print(f"converted: depth {w.depth}, {w.block_size} entries per block, "
      f"valid={validate_block_witness(seq, w)}")

# -- the one-call extractor --------------------------------------------------

# The extractor keeps the larger of two witnesses of depth exactly k: the
# longest monotone subsequence cut into k blocks, and, once n >= (ck)^2,
# the exact search's chain at the largest feasible gap.  The default
# constant c is huge on purpose (asymptotic safety margin), so desk-sized
# inputs only get the cut; c=2 opens the search, whose blocks scale like
# n / k^2.
print(f"\ndefault c = {DEFAULT_C}")
for c in (None, 2):
    w = extract_block_monotone(seq, k, c)
    label = "default" if c is None else f"c={c}"
    print(f"extract k={k} [{label}]: depth={w.depth} block size={w.block_size}")
    assert validate_block_witness(seq, w) and w.depth == k

# the promised floor; the search's largest gap is usually far above it
target = math.ceil(n / (2 * k) ** 2)
w = extract_block_monotone(seq, k, 2)
print(f"guaranteed block size at c=2: >= ceil(n/(ck)^2) = {target}; "
      f"got {w.block_size}")
assert w.block_size >= target

# -- the widest possible gap -------------------------------------------------

small = gen_random(300, seed=12)
s_star, best = max_gapped_blocksize(small, k)
print(f"\nn=300, k={k}: largest feasible gap s* = {s_star}")
print(f"  witness depth {best.depth}, block size {best.block_size}")
assert validate_block_witness(small, best)
