#!/usr/bin/env python3
"""Census of small score sequences: how many isomorphism classes realise
each Landau-valid multiset, and which ones are simple (unique realization).

Enumeration is exhaustive over all labelled tournaments up to --max-n
(careful beyond 6: the count is 2^(n(n-1)/2)).
"""

import argparse
import sys
from collections import Counter

import numpy as np

from tourlim import ScoreSequence, is_simple_avery
from tourlim.density import _tournament_pattern_classes


def score_multiset(pattern):
    scores = [0] * pattern.k
    for u, _ in pattern.edges:
        scores[u] += 1
    return tuple(sorted(scores))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5)
    args = ap.parse_args()

    for n in range(1, args.max_n + 1):
        classes = Counter(score_multiset(p) for _, p in _tournament_pattern_classes(n))
        print(f"n = {n}: {len(classes)} realizable score multisets")
        for key in sorted(classes):
            simple = is_simple_avery(ScoreSequence(np.array(key), "integer"))
            tag = "simple" if simple else f"{classes[key]} classes"
            print(f"   {key}: {tag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
