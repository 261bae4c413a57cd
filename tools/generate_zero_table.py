#!/usr/bin/env python3
"""Generate a table of nontrivial zeta-zero ordinates with mpmath.

Resumable: appends to the output file, skipping indices already present.
Run repeatedly until the requested count is reached.

Usage: python tools/generate_zero_table.py [count] [outfile]
"""

import sys
import time

from mpmath import mp, zetazero

mp.dps = 20


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 10000
    out = sys.argv[2] if len(sys.argv) > 2 else "data/zeros_10k.txt"
    done = 0
    try:
        with open(out) as fh:
            done = sum(1 for line in fh if line.strip() and not line.startswith("#"))
    except FileNotFoundError:
        with open(out, "w") as fh:
            fh.write("# Ordinates of the first nontrivial zeros of the Riemann zeta\n")
            fh.write("# function, computed with mpmath.zetazero at 20 decimal digits.\n")
            fh.write("# Rows carry 15 significant digits: up to 5e-12 of rounding above 1000,\n")
            fh.write("# up to 5e-13 below. One ascending ordinate per line.\n")
    t0 = time.time()
    with open(out, "a") as fh:
        for k in range(done + 1, count + 1):
            rho = zetazero(k)
            fh.write(mp.nstr(rho.imag, 15, strip_zeros=False) + "\n")
            if k % 200 == 0:
                fh.flush()
                print(f"{k} zeros, {time.time() - t0:.0f}s", flush=True)
    print(f"done: {count} zeros in {out}")


if __name__ == "__main__":
    main()
