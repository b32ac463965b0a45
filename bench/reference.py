"""A fixed amount of exact arithmetic, timed as a measure of the machine's speed.

The harness runs this script in a fresh interpreter before every command and
divides the command's times by this script's, so the host's speed at that
moment cancels out.  It imports nothing from kirkman and never changes: a
change here changes every timing the benchmark reports.  Its work is the
kind the CLI does, rational arithmetic and big-integer products, and takes
about 0.2 s on a 2-vCPU x86-64 VM with Python 3.11.
"""

from fractions import Fraction

total = Fraction(0)
for i in range(1, 40_000):
    total += Fraction(1, i % 97 + 1) * (i & 7)
product = 1
for i in range(1, 3_000):
    product = product * (i | 1) % (1 << 4_000)
if total <= 0 or product <= 0:
    raise SystemExit("reference arithmetic went wrong")
