"""Finite-difference verification of every analytic gradient in the package.

Each suite replays seeded random instances, computes the analytic gradient,
and compares it against the central-difference oracle. The report maps suite
names to their worst relative error so regressions are visible at a glance.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .elastic_loss import (DescriptorBatch, ElasticParams, batch_elastic_loss,
                           batch_hard_mine, elastic_triplet_loss,
                           elastic_weight, hard_triplet_loss, pairwise_sq_dist)
from .model import ModelConfig, forward_train, init_params
from .dropmask import DropBlock, OverlapRowDrop, UniformRowDrop
from .numerics import (finite_diff_grad, linear_backward, linear_forward,
                       max_rel_error, softmax_cross_entropy)

LOSS_TOL = 1e-6
MODEL_TOL = 1e-5


def _random_batch(rng, n=16, d=8) -> DescriptorBatch:
    ids = np.repeat(np.arange(n // 4), 4)[:n]
    return DescriptorBatch(vectors=rng.normal(size=(n, d)), ids=ids)


def check_linear_backward(seed=0, trials=10) -> float:
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n, din, dout = rng.integers(1, 8, size=3)
        x = rng.normal(size=(n, din))
        w = rng.normal(size=(din, dout))
        b = rng.normal(size=dout)
        probe = rng.normal(size=(n, dout))

        def loss_of(x_, w_, b_):
            return float((linear_forward(x_, w_, b_) * probe).sum())

        gx, gw, gb = linear_backward(x, w, probe)
        worst = max(worst,
                    max_rel_error(gx, finite_diff_grad(lambda t: loss_of(t, w, b), x)),
                    max_rel_error(gw, finite_diff_grad(lambda t: loss_of(x, t, b), w)),
                    max_rel_error(gb, finite_diff_grad(lambda t: loss_of(x, w, t), b)))
    return worst


def check_softmax_ce(seed=0, trials=10) -> float:
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n, c = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        logits = rng.normal(size=(n, c))
        labels = rng.integers(0, c, size=n)
        _, grad = softmax_cross_entropy(logits, labels)
        fd = finite_diff_grad(lambda t: softmax_cross_entropy(t, labels)[0], logits)
        worst = max(worst, max_rel_error(grad, fd))
    return worst


def check_hard_triplet(seed=0, trials=10) -> float:
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        batch = _random_batch(rng)
        _, grads = hard_triplet_loss(batch, eta=3.0)

        def loss_of(v):
            return hard_triplet_loss(DescriptorBatch(v, batch.ids), eta=3.0)[0]

        worst = max(worst, max_rel_error(grads, finite_diff_grad(loss_of,
                                                                 batch.vectors)))
    return worst


def check_elastic(seed=0, trials=10, detach=False) -> float:
    worst = 0.0
    rng = np.random.default_rng(seed)
    params = ElasticParams(eta=3.0, detach_weight=detach)
    for _ in range(trials):
        batch = _random_batch(rng)
        _, grads = elastic_triplet_loss(batch, params)
        if detach:
            # freeze the weight at its forward value before differencing
            hard = batch_hard_mine(pairwise_sq_dist(batch), batch.ids)
            w0 = 1.0 / (1.0 + np.exp(-hard.max_pos_dist / (hard.min_neg_dist + 1.0)))

            def loss_of(v):
                return elastic_triplet_loss(DescriptorBatch(v, batch.ids), params,
                                            weight_override=w0)[0]
        else:
            def loss_of(v):
                return elastic_triplet_loss(DescriptorBatch(v, batch.ids), params)[0]

        worst = max(worst, max_rel_error(grads, finite_diff_grad(loss_of,
                                                                 batch.vectors)))
    return worst


def check_batch_elastic(seed=0, trials=10, m=3) -> float:
    worst = 0.0
    rng = np.random.default_rng(seed)
    params = ElasticParams()
    for _ in range(trials):
        base = _random_batch(rng, n=12, d=6)
        branches = [DescriptorBatch(rng.normal(size=base.vectors.shape), base.ids)
                    for _ in range(m)]
        _, grads = batch_elastic_loss(branches, params)
        for bi in range(m):
            def loss_of(v, bi=bi):
                swapped = [DescriptorBatch(v, base.ids) if j == bi else branches[j]
                           for j in range(m)]
                return batch_elastic_loss(swapped, params)[0]

            fd = finite_diff_grad(loss_of, branches[bi].vectors)
            worst = max(worst, max_rel_error(grads[bi], fd))
    return worst


def tiny_model_config() -> ModelConfig:
    return ModelConfig(height=4, width=2, in_channels=2, feat_channels=3,
                       embed_dim=2, num_classes=2,
                       drop_scheme=UniformRowDrop(m=2), batch_p=2, batch_k=2,
                       epochs=1, seed=0)


def model_variants() -> dict[str, ModelConfig]:
    """The tiny net under every loss, branch and mask path of forward_train.

    Keys are the gradcheck suite names. The dropblock variant draws its
    (N, H, W, C) masks from a fixed rng and adds the global branch, so the
    randomized and the shared-trunk paths run in one step.
    """
    base = tiny_model_config()
    return {
        "model_end_to_end": base,
        "model_triplet": replace(base, loss="triplet"),
        "model_detached_weight": replace(base, detach_weight=True),
        "model_no_resblock": replace(base, use_resblock=False),
        "model_global_branch": replace(base, use_global_branch=True),
        "model_overlap": replace(base, drop_scheme=OverlapRowDrop(patch_h=2,
                                                                  overlap=1)),
        "model_dropblock": replace(base, use_global_branch=True,
                                   drop_scheme=DropBlock(block_h=2, block_w=1)),
    }


def _mine_branches(out, ids) -> list:
    return [batch_hard_mine(pairwise_sq_dist(DescriptorBatch(d, ids)), ids)
            for d in out.branch_descriptors]


def _frozen_weight_loss(out, ids, weights, eta: float) -> float:
    """Training loss with each anchor's elastic weight held at ``weights``.

    The gradient of a detached-weight step is the gradient of this loss.
    """
    mined = _mine_branches(out, ids)
    hinges = sum(
        float(np.where(h.valid, w * np.maximum(
            eta + h.max_pos_dist - h.min_neg_dist, 0.0), 0.0).sum())
        for h, w in zip(mined, weights))
    return hinges / sum(int(h.valid.sum()) for h in mined) + out.ce_loss


def check_model_end_to_end(seed=0, trials=10, config: ModelConfig | None = None
                           ) -> float:
    """Total training loss gradient w.r.t. every parameter on a tiny net."""
    config = config or tiny_model_config()
    worst = 0.0
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        params = init_params(config, rng)
        images = rng.normal(size=(4, config.height, config.width,
                                  config.in_channels))
        ids = np.array([0, 0, 1, 1])

        def step():
            # a randomized scheme redraws the same masks on every call
            return forward_train(images, ids, params, config,
                                 rng=np.random.default_rng([seed, trial]))

        params.zero_grads()
        _, out = step()
        analytic_grads = {name: p.grad.copy()
                          for name, p in params.named().items()}
        weights = None
        if config.loss == "elastic" and config.detach_weight:
            weights = [elastic_weight(h.max_pos_dist, h.min_neg_dist)[1]
                       for h in _mine_branches(out, ids)]
        for name, p in params.named().items():
            analytic = analytic_grads[name]

            def loss_of(v, p=p):
                old = p.value
                p.value = v
                try:
                    loss, out = step()
                finally:
                    p.value = old
                if weights is not None:
                    return _frozen_weight_loss(out, ids, weights,
                                               config.eta)
                return loss

            fd = finite_diff_grad(loss_of, p.value)
            worst = max(worst, max_rel_error(analytic, fd))
        params.zero_grads()
    return worst


def run_gradient_checks(seed: int = 0, trials: int = 10) -> dict:
    """Run every suite; returns a json-ready report with per-suite errors."""
    suites = [
        ("linear_backward", check_linear_backward(seed, trials), LOSS_TOL),
        ("softmax_cross_entropy", check_softmax_ce(seed, trials), LOSS_TOL),
        ("hard_triplet", check_hard_triplet(seed, trials), LOSS_TOL),
        ("elastic", check_elastic(seed, trials, detach=False), LOSS_TOL),
        ("elastic_detached", check_elastic(seed, trials, detach=True), LOSS_TOL),
        ("batch_elastic", check_batch_elastic(seed, trials), LOSS_TOL),
    ] + [
        (name, check_model_end_to_end(seed, trials, config), MODEL_TOL)
        for name, config in model_variants().items()
    ]
    report = {
        "seed": seed,
        "trials": trials,
        "suites": [
            {"name": name, "max_rel_error": err, "tolerance": tol,
             "passed": bool(err < tol)}
            for name, err, tol in suites
        ],
    }
    report["passed"] = all(s["passed"] for s in report["suites"])
    return report
