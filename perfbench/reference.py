"""A fixed pure-Python task that measures how fast the machine is right now.

    python3 perfbench/reference.py      # prints "1261 19980000/7"

run.py times this script, as a fresh process, between every two CLI
invocations and scales each invocation's time by how long the script
took beside it (see "Reference seconds" in README.md). It does what the
CLI does most: start an interpreter, then string keys, dict updates and
Fraction sums. It imports nothing from ponfabric, so a change to the
package cannot change it.
"""

from fractions import Fraction

loads: dict[str, int] = {}
total = Fraction(0)
for i in range(40_000):
    key = f"r{i % 97}/s{i % 13}"
    loads[key] = loads.get(key, 0) + i
    if i % 40 == 0:
        total += Fraction(i, 7 + i % 5)
print(len(sorted(loads.items())), total)
