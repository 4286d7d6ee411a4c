"""Tally the compact-orbifold census: how many hyperbolic, small, and
finite-mapping-class-group orbifolds exist at each feature budget.

Usage: python3 scripts/enumerate_small.py [--budget N] [--json]
"""

import argparse
import json
import sys
from collections import Counter

import splittings as sp


def least_budget(o):
    """The least budget whose census lists o: its feature count and every
    cone and corner order are at most the budget."""
    orders = [*o.cone_points, *(r for c in o.circles for r in c.corner_orders())]
    return max([sp.feature_count(o), *orders])


def census_rows(budget):
    """One row per budget 0..budget from a single census at budget, which
    gives each orbifold's chi and verdicts. Each orbifold is tallied at its
    least budget and the rows are running sums."""
    counts = [Counter() for _ in range(budget + 1)]
    families = [Counter() for _ in range(budget + 1)]
    census = sp.census(budget, lambda small, mcg: (small, mcg))
    for orientable, genus, i, j, chi_numerator, _, verdict in census.rows:
        o = sp.Orbifold2(orientable, genus, census.cones[i], census.circles[j])
        b = least_budget(o)
        counts[b]["total"] += 1
        if chi_numerator >= 0:
            continue
        counts[b]["hyperbolic"] += 1
        small, mcg = verdict
        if small.small:
            counts[b]["small"] += 1
            families[b][small.family] += 1
        counts[b]["finite_mcg"] += mcg.finite
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
