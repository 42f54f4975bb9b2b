"""Fixed reference work that measures how fast the host runs right now.

bench.py runs this script in a fresh interpreter before every timed command.
Like a CLI command it starts an interpreter, imports numpy, and then mixes
small numpy calls with dict, string and JSON work, so a host-wide slowdown
stretches it by about as much as it stretches the commands. It imports no
ragharness code, so no change to the program can move it.
"""

import json
from collections import Counter

import numpy as np


def work(rounds: int = 100) -> int:
    acc = 0
    for i in range(rounds):
        rng = np.random.default_rng(i)
        acc += int(rng.integers(0, 40, size=40).mean() * 10)
        words = f"the --enable-x{i % 7} flag sets port {8000 + i} in service.conf".split()
        acc += sum((Counter(words) & Counter(reversed(words))).values())
        acc += len(json.loads(json.dumps({"words": words, "i": i}, sort_keys=True))["words"])
    return acc


if __name__ == "__main__":
    work()
