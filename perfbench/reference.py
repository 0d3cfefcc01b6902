"""A fixed numpy task that run.py times next to every command.

    python3 perfbench/reference.py

Prints the task's wall time in seconds. The task never changes, so the
ratio of a command's wall time to it (``wall_ref``) moves with the program,
not with the shared host's speed, which drifts by 10-30% over minutes. It
has the program's mix: small matrix products and element-wise steps with
fresh temporaries large enough to be mapped and faulted in on every step,
in a fresh interpreter with the same BLAS pool.
"""

import time

import numpy as np

STEPS = 800


def task() -> float:
    """Seconds taken by STEPS forward/backward steps of a small ReLU layer pair."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1024, 6))
    w1 = 0.3 * rng.standard_normal((6, 64))
    w2 = 0.1 * rng.standard_normal((64, 32))
    start = time.perf_counter()
    for _ in range(STEPS):
        h = x @ w1
        a = np.maximum(h, 0.0)
        g = 0.01 * (a @ w2)
        gh = (g @ w2.T) * (h > 0)
        w1 -= 1e-6 * (x.T @ gh)
        w2 -= 1e-6 * (a.T @ g)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(task()))
