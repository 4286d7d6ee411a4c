"""Walk the collapse lattice of the three-edge example: list prime factors,
check modularity on random words, and hunt squarefree witnesses, saying
for each pair of prime factors why the search stopped.

Usage: python3 scripts/collapse_lattice.py [--words N] [--maxlen L] [--seed S]
"""

import argparse
import itertools
import sys

import splittings as sp
from splittings import graph, tree_arithmetic as ta


def main(count, maxlen, seed):
    g = graph(
        ("u", "v"),
        (("e", "u", "u", 2, 3), ("ep", "v", "v", 2, 3), ("f", "u", "v", 2, 2)),
    )
    m = ta.master(g)
    full = ta.collapse(m, m.orbits)
    print("edge orbits:", ", ".join(m.orbits))
    primes = sorted(ta.prime_factors(full), key=lambda k: sorted(k.kept))
    print("prime factors:", ", ".join("{" + ",".join(sorted(p.kept)) + "}" for p in primes))

    words = sp.sample_words(g, count, maxlen, seed=seed)
    subsets = [
        ta.collapse(m, s)
        for r in range(len(m.orbits) + 1)
        for s in itertools.combinations(m.orbits, r)
    ]
    failed = ta.verify_modularity(m, subsets, words)
    if failed:
        raise SystemExit(f"modularity failed on {len(failed)} collapse pairs")
    checked = len(subsets) * (len(subsets) - 1) // 2
    print(f"modularity: {checked} collapse pairs x {len(words)} words, all exact")

    outcomes = ta.squarefree_search(m, full, maxlen)
    def pair_key(kv):
        return sorted(sorted(k.kept) for k in kv[0])

    for pair, out in sorted(outcomes.items(), key=pair_key):
        k1, k2 = sorted(pair, key=lambda k: sorted(k.kept))
        tag = "{" + ",".join(sorted(k1.kept)) + "} vs {" + ",".join(sorted(k2.kept)) + "}"
        n = out.elements_tried
        if out.stop == "found":
            l1 = ta.length_in_collapse(m, k1, out.witness)
            l2 = ta.length_in_collapse(m, k2, out.witness)
            print(f"{tag}: found after {n} elements, lengths {l1} vs {l2}")
        else:
            print(f"{tag}: exhausted after {n} elements up to length {maxlen}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--words", type=int, default=100)
    ap.add_argument("--maxlen", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:
        main(args.words, args.maxlen, args.seed)
    except sp.SplittingsError as exc:
        sys.exit(f"error: {exc}")
