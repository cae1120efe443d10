#!/usr/bin/env python3
"""Print true-remainder / tail-bound margins per family and cutoff.

The tail bounds are integral-comparison majorants (``tail_estimate``);
this table shows how much headroom each one has (ratio err/bound, ideally
close to but below 1).  Used to sanity-check the bound constants after any
change.  S_N comes from each row's fixed-point diag engine, at every
cutoff: ``oracle_diagonal`` expands the tail instead once the cutoff
reaches 2^11 at 50 digits.
"""

import sys

from mpmath import mp, workdps

from tornzeta.closedform import closed_form_of
from tornzeta.oracle import _prec_bits, tail_estimate, zx_numeric
from tornzeta.series import parse_spec

FAMILIES = [
    "A3:s=0",
    "A3:s=5",
    "An:n=2,s=0",
    "An:n=4,s=2",
    "An:n=6,s=0",
    "aXL:k=0",
    "aXL:k=7",
    "S111",
    "ln",
    "on",
    "evenodd",
    "oddsq",
    "binter",
    "baseT:1",
    "baseT:2",
    "baseT:3",
    "halfint:a",
    "halfint:b",
    "halfint:c",
]
CUTOFFS = (10**3, 10**4, 10**5)


def main() -> int:
    print(f"{'spec':<14}" + "".join(f"{f'N=10^{len(str(n)) - 1}':>14}" for n in CUTOFFS))
    worst = 0.0
    one = 1 << _prec_bits(50)
    for text in FAMILIES:
        spec = parse_spec(text)
        cells = []
        with workdps(60):
            closed = zx_numeric(closed_form_of(spec), 50)
            for n in CUTOFFS:
                value = mp.mpf(spec.family.diag(*spec.args, n, one)) / one
                ratio = float((closed - value) / tail_estimate(spec, n))
                worst = max(worst, ratio)
                cells.append(f"{ratio:>14.3f}")
        print(f"{text:<14}" + "".join(cells))
    # the odd-square bound is sharp to O(1/N^3), so quote the margin itself
    print(f"\nworst ratio {worst:.6f}, margin to 1: {1 - worst:.3e}")
    print("every ratio must stay below 1 or a bound is dishonest")
    return 0 if worst < 1 else 1


if __name__ == "__main__":
    sys.exit(main())
