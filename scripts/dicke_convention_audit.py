#!/usr/bin/env python3
"""Audit the Q-witness conventions against the calibration targets.

Two conventions interact: whether the coherence sum runs over ordered subset
pairs, and whether the diagonal noise term subtracts every exchange-image
class ("all") or only one-site exchanges ("singles").  This script prints Q
on the ideal Dicke targets and the singlet zero-crossing for each
combination, which is how the shipped defaults (ordered sigma, "all") were
pinned: only ordered sigma reaches the d-1 calibration, and "singles"
coincides with "all" at n = 3 while subtracting less for n >= 4.
"""

import sys

from gmebound.dicke_witness import DickeWitnessSpec, noise_threshold_q, q_witness
from gmebound.errors import NotDetectingError
from gmebound.states import make_dicke_state, make_singlet4

CALIBRATION = [(3, 2, 1), (4, 2, 1), (4, 2, 2), (5, 2, 2), (3, 3, 1), (4, 3, 2)]


def main() -> int:
    print(f"{'(n,d,m)':>10} {'sigma':>9} {'delta':>8} {'Q(target)':>12} {'expected':>9}")
    for n, d, m in CALIBRATION:
        state = make_dicke_state(n, d, m)
        for ordered in (True, False):
            for delta in ("all", "singles"):
                spec = DickeWitnessSpec(n, d, m, sigma_ordered=ordered, delta_subsets=delta)
                q = q_witness(spec, state)
                tag = "ordered" if ordered else "unordered"
                print(f"{(n, d, m)!s:>10} {tag:>9} {delta:>8} {q:>12.6f} {d - 1:>9}")

    print("\nfour-qubit singlet, white-noise zero crossing of Q:")
    target = make_singlet4()
    for ordered in (True, False):
        for delta in ("all", "singles"):
            spec = DickeWitnessSpec(4, 2, 2, sigma_ordered=ordered, delta_subsets=delta)
            tag = "ordered" if ordered else "unordered"
            try:
                crossing = noise_threshold_q(spec, target)
                print(f"  sigma={tag:<9} delta={delta:<7} -> p* = {crossing:.12f}")
            except NotDetectingError:
                print(f"  sigma={tag:<9} delta={delta:<7} -> Q <= 0 on the pure state")
    return 0


if __name__ == "__main__":
    sys.exit(main())
