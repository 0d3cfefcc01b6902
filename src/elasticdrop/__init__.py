"""Desk-scale metric-learning toolkit.

Consecutive row-band drop schedules on feature maps, a sigmoid-weighted
batch-hard triplet loss with analytic gradients, a small train/infer
pipeline, retrieval metrics with k-reciprocal re-ranking, and a seeded
synthetic identity dataset, all verified against brute-force oracles.
The modules are the API; the package itself holds only ``__version__``.
"""

__version__ = "0.1.0"
