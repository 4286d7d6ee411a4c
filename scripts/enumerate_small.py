"""Tally the compact-orbifold census: how many hyperbolic, small, and
finite-mapping-class-group orbifolds exist at each feature budget.

Usage: python3 scripts/enumerate_small.py [--budget N] [--json]
"""

import argparse
import json
import sys
from collections import Counter

import splittings as sp
from splittings.orbifold import _mcg, _small


def least_budget(o):
    """The least budget whose census lists o: its feature count and every
    cone and corner order are at most the budget."""
    orders = [*o.cone_points, *(r for c in o.circles for r in c.corner_orders())]
    return max([sp.feature_count(o), *orders])


def census_rows(budget):
    """One row per budget 0..budget from a single enumeration at budget,
    with chi computed once per orbifold. Each orbifold is tallied at its
    least budget and the rows are running sums."""
    counts = [Counter() for _ in range(budget + 1)]
    families = [Counter() for _ in range(budget + 1)]
    for o in sp.enumerate_orbifolds(budget) if budget >= 0 else ():
        b = least_budget(o)
        counts[b]["total"] += 1
        if sp.euler_characteristic(o) >= 0:
            continue
        counts[b]["hyperbolic"] += 1
        verdict = _small(o)
        if verdict.small:
            counts[b]["small"] += 1
            families[b][verdict.family] += 1
        counts[b]["finite_mcg"] += _mcg(o).finite
    rows = []
    count, family = Counter(), Counter()
    for b in range(budget + 1):
        count.update(counts[b])
        family.update(families[b])
        rows.append({
            "budget": b,
            "total": count["total"],
            "hyperbolic": count["hyperbolic"],
            "small": count["small"],
            "small_by_family": {str(k): v for k, v in sorted(family.items())},
            "finite_mcg": count["finite_mcg"],
        })
    return rows


def main(budget, as_json):
    rows = census_rows(budget)
    if as_json:
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
        main(args.budget, args.json)
    except sp.SplittingsError as exc:
        sys.exit(f"error: {exc}")
