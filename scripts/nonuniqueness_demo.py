#!/usr/bin/env python3
"""Demonstrate the degree-distribution non-uniqueness dichotomy.

For each demo kernel: look for a score-preserving cyclic perturbation that
moves the 4-cycle density, print the certificate (or "transitive-like"),
and show that certified pairs share a degree distribution while their
pattern fingerprints differ.
"""

import argparse
import json
import sys

import numpy as np

from tourlim import (
    GeneralizedTournament,
    StepKernel,
    degree_distribution,
    fingerprint,
    nonuniqueness_certificate,
    random_step_kernel,
    step_kernel_from_tournament,
    wasserstein1,
)


def demo_kernels(seed: int):
    yield "constant-1/2 on 3 blocks", StepKernel(np.full((3, 3), 0.5))
    yield "3-cycle blow-up, 3 blocks", StepKernel([[0.5, 1, 0], [0, 0.5, 1], [1, 0, 0.5]])
    yield "transitive step kernel, 6 blocks", step_kernel_from_tournament(
        GeneralizedTournament(np.triu(np.ones((6, 6)), 1))
    )
    yield f"random kernel, 5 blocks, seed {seed}", random_step_kernel(5, seed=seed)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--refine-rounds", type=int, default=0)
    args = ap.parse_args()

    for name, w in demo_kernels(args.seed):
        print(f"== {name}")
        cert = nonuniqueness_certificate(w, refine_rounds=args.refine_rounds)
        if cert is None:
            print("   transitive-like: no score-preserving C4 shift found")
            continue
        print(f"   s0 = {cert.s0}")
        print(f"   t(C4) moves {cert.c4_base!r} -> {cert.c4_perturbed!r}")
        print(f"   max score-function change: {cert.score_max_diff!r}")
        w1 = wasserstein1(degree_distribution(w), degree_distribution(cert.kernel_s0))
        print(f"   degree-distribution Wasserstein-1: {w1!r}")
        differs = fingerprint(w, 4).differs_from(fingerprint(cert.kernel_s0, 4), tol=1e-10)
        print(f"   fingerprints (K=4) differ: {differs}")
        print("   certificate JSON:")
        print("   " + json.dumps(cert.to_json_dict(), sort_keys=True)[:120] + "...")
    return 0


if __name__ == "__main__":
    sys.exit(main())
