"""Finite-difference verification of every analytic gradient in the package.

Each suite replays seeded random instances, computes the analytic gradient,
and compares it against the central-difference oracle. The report maps suite
names to their worst relative error so regressions are visible at a glance.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .elastic_loss import batch_elastic_loss
from .model import ModelConfig, forward_train, init_params, metric_weighting
from .dropmask import DropBlock, OverlapRowDrop, UniformRowDrop
from .numerics import (finite_diff_grad, linear_backward, linear_forward,
                       max_rel_error, softmax_cross_entropy)

LOSS_TOL = 1e-6
MODEL_TOL = 1e-5


# metric-loss suites: (name, weighting, branches B, anchors N, dimension D)
METRIC_LOSS_SUITES = (
    ("hard_triplet", 1.0, 1, 16, 8),
    ("elastic", "sigmoid", 1, 16, 8),
    ("elastic_detached", "detached", 1, 16, 8),
    ("batch_elastic", "sigmoid", 3, 12, 6),
)


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


def check_metric_loss(weighting, b: int, n: int, d: int, seed=0, trials=10
                      ) -> float:
    """Worst per-branch error of the metric loss gradient; a detached check
    differences the loss with the weights frozen at the ones it used."""
    worst = 0.0
    rng = np.random.default_rng(seed)
    ids = np.repeat(np.arange(n // 4), 4)[:n]
    for _ in range(trials):
        vectors = rng.normal(size=(b, n, d))
        stats = {}
        _, grads = batch_elastic_loss(vectors, ids, 3.0, weighting, stats)
        frozen = stats["weights"] if weighting == "detached" else weighting
        fd = finite_diff_grad(
            lambda v: batch_elastic_loss(v, ids, 3.0, frozen)[0], vectors)
        worst = max(worst, *map(max_rel_error, grads, fd))
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

        weights = step().metric_weights
        analytic_grads = {name: p.grad.copy()
                          for name, p in params.named().items()}
        detached = metric_weighting(config) == "detached"
        for name, p in params.named().items():
            analytic = analytic_grads[name]

            def loss_of(v, p=p):
                old = p.value
                p.value = v
                try:
                    out = step()
                finally:
                    p.value = old
                if not detached:
                    return out.elastic_loss + out.ce_loss
                # a detached-weight step differentiates the loss with
                # every weight frozen at its value in the step
                metric, _ = batch_elastic_loss(out.branch_descriptors, ids,
                                               config.eta, weights)
                return metric + out.ce_loss

            fd = finite_diff_grad(loss_of, p.value)
            worst = max(worst, max_rel_error(analytic, fd))
    return worst


def run_gradient_checks(seed: int = 0, trials: int = 10) -> dict:
    """Run every suite; returns a json-ready report with per-suite errors."""
    suites = [
        ("linear_backward", check_linear_backward(seed, trials), LOSS_TOL),
        ("softmax_cross_entropy", check_softmax_ce(seed, trials), LOSS_TOL),
    ] + [
        (name, check_metric_loss(weighting, b, n, d, seed, trials), LOSS_TOL)
        for name, weighting, b, n, d in METRIC_LOSS_SUITES
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
