"""Sweep the ball-displacement oracle radius on random words: how often
the ball covers the word's reach (valid), and how often the value read at
the base equals the Britton translation length (agree; exact at any radius).

Usage: python3 scripts/oracle_agreement.py [--words N] [--maxlen L] [--seed S]
"""

import argparse
import sys

import splittings as sp
from splittings import graph

RADII = (2, 4, 6, 8, 10, 12)


def example_graphs():
    m3 = graph(
        ("u", "v"),
        (("e", "u", "u", 2, 3), ("ep", "v", "v", 2, 3), ("f", "u", "v", 2, 2)),
    )
    return (("BS(1,2)", sp.bs(1, 2)), ("BS(2,3)", sp.bs(2, 3)), ("M3", m3))


def main(count, maxlen, seed):
    print(f"{'graph':>8} {'radius':>6} {'valid':>6} {'agree':>6} {'words':>6}")
    for name, g in example_graphs():
        sample = sp.sample_words(g, count, maxlen, seed=seed)
        for radius in RADII:
            valid = agree = 0
            for w in sample:
                ell = sp.translation_length(g, w)
                res = sp.ball_displacement_oracle(g, w, radius)
                valid += res.valid
                agree += res.value == ell
            print(
                f"{name:>8} {radius:>6} {valid:>6} {agree:>6} {len(sample):>6}"
            )
            if agree != len(sample):
                raise SystemExit("oracle disagreement")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--words", type=int, default=200)
    ap.add_argument("--maxlen", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:
        main(args.words, args.maxlen, args.seed)
    except sp.SplittingsError as exc:
        sys.exit(f"error: {exc}")
