#!/usr/bin/env python3
"""Scan seeded phase points for large Jacobi defects of the projected bracket.

Useful for locating (and freezing into tests) witness points where the
bracket demonstrably fails the Jacobi identity on a non-integrable
distribution. Prints the top candidates with their seed, point index and
observable triple, so any row is reproducible.
"""

import argparse
import itertools

from nonholo import brackets, catalog


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--system", default="nonholonomic_particle")
    ap.add_argument("--count", type=int, default=8)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--kind", choices=brackets.BRACKET_KINDS, default="eden")
    ap.add_argument("--top", type=int, default=10)
    args = ap.parse_args()

    entry = catalog.get_entry(args.system)
    sysd = entry.system()
    obs = catalog.observable_test_set(sysd)
    # coordinates and momenta only: products add little beyond noise here
    triples = list(itertools.combinations(range(2 * sysd.n), 3))
    kind_obs = obs
    if args.kind == "dstar":
        kind_obs = [brackets.pushforward_observable(sysd, o) for o in obs]
    f, g, h = ([kind_obs[t[c]] for t in triples] for c in range(3))
    points = catalog.sample_entry_points(entry, args.count, args.seed)

    rows = []
    # every triple at every point in one call (the dual-bundle observables
    # read their frame plan off each point, so those points run one by one)
    for idx, values in enumerate(brackets.jacobiator(sysd, args.kind, f, g, h, points)):
        for (i, j, k), val in zip(triples, values):
            rows.append((abs(val), val, idx, (obs[i].label, obs[j].label, obs[k].label)))
    rows.sort(key=lambda r: (-r[0], r[2], r[3]))

    print(f"{args.system}, kind={args.kind}, seed={args.seed}, count={args.count}")
    print(f"  {'|J|':>12}  {'J':>14}  {'point':>5}  triple")
    for mag, val, idx, triple in rows[: args.top]:
        print(f"  {mag:>12.6f}  {val:>14.8f}  {idx:>5}  {triple}")


if __name__ == "__main__":
    main()
