"""Tally the compact-orbifold census: how many hyperbolic, small, and
finite-mapping-class-group orbifolds exist at each feature budget.

Usage: python3 scripts/enumerate_small.py [--budget N] [--json]
"""

import argparse
import json
import sys
from dataclasses import dataclass

import splittings as sp


@dataclass(frozen=True)
class CensusConfig:
    budget: int = 6
    as_json: bool = False


def census_row(budget):
    orbs = sp.enumerate_orbifolds(budget)
    hyperbolic = [o for o in orbs if sp.is_hyperbolic(o)]
    small = [o for o in hyperbolic if sp.is_small(o).small]
    finite = [o for o in hyperbolic if sp.has_finite_mcg(o).finite]
    families = {}
    for o in small:
        f = sp.is_small(o).family
        families[f] = families.get(f, 0) + 1
    return {
        "budget": budget,
        "total": len(orbs),
        "hyperbolic": len(hyperbolic),
        "small": len(small),
        "small_by_family": {str(k): v for k, v in sorted(families.items())},
        "finite_mcg": len(finite),
    }


def main(cfg):
    # largest budget first, so a budget over the census cap fails before any work
    rows = [census_row(b) for b in range(cfg.budget, -1, -1)][::-1]
    if cfg.as_json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return
    print(f"{'budget':>6} {'total':>7} {'hyperb':>7} {'small':>6} {'finMCG':>7}  families")
    for r in rows:
        fams = " ".join(f"{k}:{v}" for k, v in r["small_by_family"].items())
        print(
            f"{r['budget']:>6} {r['total']:>7} {r['hyperbolic']:>7}"
            f" {r['small']:>6} {r['finite_mcg']:>7}  {fams}"
        )


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=int, default=6)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    try:
        main(CensusConfig(budget=args.budget, as_json=args.json))
    except sp.SplittingsError as exc:
        sys.exit(f"error: {exc}")
