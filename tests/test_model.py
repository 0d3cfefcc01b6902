import copy
import itertools
import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (einsum_shared_backward, einsum_shared_forward,
                     mined_weights, naive_forward_train)

from elasticdrop.data_synth import SynthConfig, generate
from elasticdrop.dropmask import (BatchDropBlock, BatchDropout, DropBlock,
                                  ElementDropout, NoDrop, OverlapRowDrop,
                                  SpatialDropout, UniformRowDrop)
from elasticdrop.elastic_loss import batch_elastic_loss
from elasticdrop.errors import (ConfigError, DegenerateBatchError,
                               NumericError, ShapeError)
from elasticdrop.gradcheck import MODEL_TOL, check_model_end_to_end, \
    model_variants
from elasticdrop.model import (ModelConfig, _encode_cells, _shared_backward,
                               _shared_forward, config_from_dict,
                               config_to_dict, forward_train, infer,
                               init_params, learning_rate, load_checkpoint,
                               save_checkpoint, scheme_from_dict, train)
from elasticdrop.numerics import (adam_step, linear_forward,
                                  softmax_cross_entropy)


def tiny_config(**over):
    base = dict(height=4, width=2, in_channels=2, feat_channels=3,
                embed_dim=2, num_classes=2,
                drop_scheme=UniformRowDrop(m=2), batch_p=2, batch_k=2,
                epochs=2, warmup_epochs=1, decay_epochs=(2,), seed=0)
    base.update(over)
    return ModelConfig(**base)


def tiny_inputs(config, rng=None, n=4):
    rng = rng or np.random.default_rng(0)
    images = rng.normal(size=(n, config.height, config.width,
                              config.in_channels))
    ids = np.arange(n) % config.num_classes
    return images, ids


def encode(images, params, config):
    """The encoder's (N*H*W, C) cells as an (N, H, W, C) map."""
    feat = _encode_cells(images, params, config)[3]
    return feat.reshape(np.shape(images)[:3] + (config.feat_channels,))


class TestEncode:
    def test_zero_params_zero_map(self):
        config = tiny_config()
        params = init_params(config)
        for p in (params.enc_w1, params.enc_b1, params.enc_w2, params.enc_b2):
            p.value[...] = 0.0
        images, _ = tiny_inputs(config)
        assert not encode(images, params, config).any()

    def test_output_shape(self):
        config = tiny_config()
        params = init_params(config)
        images, _ = tiny_inputs(config, n=3)
        assert encode(images, params, config).shape == (3, 4, 2, 3)

    def test_trivial_dims_match_scalar_network(self):
        config = ModelConfig(height=1, width=1, in_channels=1, feat_channels=1,
                             embed_dim=1, num_classes=2,
                             drop_scheme=UniformRowDrop(m=1))
        params = init_params(config)
        x = 0.7
        out = encode(np.full((1, 1, 1, 1), x), params, config)
        w1, b1 = params.enc_w1.value[0, 0], params.enc_b1.value[0]
        w2, b2 = params.enc_w2.value[0, 0], params.enc_b2.value[0]
        expected = max(x * w1 + b1, 0.0) * w2 + b2
        assert out.reshape(()) == pytest.approx(expected, rel=1e-15)

    def test_shape_mismatch(self):
        config = tiny_config()
        params = init_params(config)
        with pytest.raises(ShapeError):
            _encode_cells(np.zeros((2, 5, 2, 2)), params, config)


def branch_ce_sum(out, params, ids):
    """Each branch's cross entropy, its logits recomputed from its
    descriptor through the classifier, summed in branch order."""
    total = 0.0
    for desc in out.branch_descriptors:
        total += softmax_cross_entropy(
            linear_forward(desc, params.cls_w, params.cls_b), ids)[0]
    return total


class TestForwardTrain:
    def test_single_branch_no_drop_reduction(self):
        config = tiny_config(drop_scheme=NoDrop())
        params = init_params(config)
        images, ids = tiny_inputs(config)
        out = forward_train(images, ids, params, config)
        assert len(out.branch_descriptors) == 1
        # the one unmasked branch equals the inference path exactly
        assert np.array_equal(out.branch_descriptors[0],
                              infer(images, params, config))
        # total decomposes into one elastic term plus one cross entropy
        elastic, _ = batch_elastic_loss(np.stack(out.branch_descriptors), ids,
                                        config.eta)
        ce = branch_ce_sum(out, params, ids)
        assert out.ce_loss == ce
        assert out.total_loss == pytest.approx(elastic + ce, abs=1e-12)

    @pytest.mark.parametrize("over, branches", [
        ({}, 2), (dict(use_global_branch=True), 3),
        (dict(use_global_branch=True, drop_scheme=DropBlock(block_h=2,
                                                             block_w=1)), 2)],
        ids=["uniform_m2", "global_branch", "dropblock"])
    def test_ce_loss_sums_branch_ces(self, over, branches):
        config = tiny_config(**over)
        params = init_params(config)
        images, ids = tiny_inputs(config)
        out = forward_train(images, ids, params, config,
                            rng=np.random.default_rng(0))
        assert len(out.branch_descriptors) == branches
        assert out.ce_loss == branch_ce_sum(out, params, ids)

    @pytest.mark.parametrize("ids_shape", [(3,), (5,), (4, 1)],
                             ids=["short", "long", "column"])
    def test_ids_shape_mismatch_rejected(self, ids_shape):
        config = tiny_config()
        images, _ = tiny_inputs(config)
        ids = np.arange(np.prod(ids_shape)).reshape(ids_shape) % 2
        with pytest.raises(ShapeError, match="ids"):
            forward_train(images, ids, init_params(config), config)

    def test_paper_scale_shape_trace(self):
        # 24 x 8 map with six branches produces six descriptors of width 512
        # (feature width scaled down to keep the trace fast)
        config = ModelConfig(height=24, width=8, in_channels=4,
                             feat_channels=16, embed_dim=512,
                             num_classes=2, drop_scheme=UniformRowDrop(m=6))
        params = init_params(config)
        images, ids = tiny_inputs(config)
        out = forward_train(images, ids, params, config)
        assert len(out.branch_descriptors) == 6
        for desc in out.branch_descriptors:
            assert desc.shape == (4, 512)

    def test_additivity(self):
        config = tiny_config()
        params = init_params(config)
        images, ids = tiny_inputs(config)
        out = forward_train(images, ids, params, config)
        assert out.total_loss == out.elastic_loss + out.ce_loss

    def test_branch_count_with_global(self):
        config = tiny_config(use_global_branch=True)
        params = init_params(config)
        images, ids = tiny_inputs(config)
        out = forward_train(images, ids, params, config)
        assert len(out.branch_descriptors) == 3
        assert np.array_equal(out.branch_descriptors[-1],
                              infer(images, params, config))

    def test_sample_permutation_equivariance(self):
        config = tiny_config()
        params = init_params(config)
        images, ids = tiny_inputs(config)
        out = forward_train(images, ids, params, config)
        perm = np.array([2, 0, 3, 1])
        out_p = forward_train(images[perm], ids[perm], params, config)
        for d, dp in zip(out.branch_descriptors, out_p.branch_descriptors):
            assert np.array_equal(d[perm], dp)

    def test_shared_resblock_affects_all_branches(self):
        config = tiny_config()
        params = init_params(config)
        images, ids = tiny_inputs(config)
        before = forward_train(images, ids, params, config)
        params.res_w.value = params.res_w.value + 0.05
        after = forward_train(images, ids, params, config)
        for d0, d1 in zip(before.branch_descriptors, after.branch_descriptors):
            assert not np.array_equal(d0, d1)

    def test_mask_gating(self):
        # zeroing input rows that branch i drops anyway leaves its descriptor
        config = tiny_config()
        params = init_params(config)
        images, ids = tiny_inputs(config)
        out = forward_train(images, ids, params, config)
        zeroed = images.copy()
        zeroed[:, 2:, :, :] = 0.0  # rows dropped by branch 2 of m=2
        out_z = forward_train(zeroed, ids, params, config)
        assert np.allclose(out.branch_descriptors[1],
                           out_z.branch_descriptors[1], atol=1e-12)
        assert not np.allclose(out.branch_descriptors[0],
                               out_z.branch_descriptors[0], atol=1e-6)

    def test_overflow_behind_closed_relu_gate_raises_at_adam(self):
        # relu_backward is a product, so an overflowed upstream behind a
        # closed gate is NaN, where the select-based oracle drops it; the
        # first Adam step then raises instead of training on
        config = tiny_config()
        params = init_params(config)
        params.enc_w1.value[:, 0] = 0.0
        params.enc_b1.value[0] = -1.0  # hidden unit 0 is shut for every cell
        params.enc_w2.value[0] = 1e308  # so d_feat @ enc_w2.T overflows there
        params.emb_w.value *= 1e3
        params.cls_w.value *= 1e6
        ref = copy.deepcopy(params)
        images, ids = tiny_inputs(config)
        with np.errstate(over="ignore", invalid="ignore"):
            forward_train(images, ids, params, config)
            naive_forward_train(images, ids, ref, config)
        assert np.isnan(params.enc_b1.grad[0]) and ref.enc_b1.grad[0] == 0.0
        assert np.array_equal(params.enc_b1.grad[1:], ref.enc_b1.grad[1:])
        for name, p in params.named().items():
            assert np.isfinite(p.grad).all() != (name in ("enc_w1", "enc_b1")), \
                name
        with pytest.raises(NumericError):
            adam_step(params.enc_b1, lr=1e-3)

    def test_single_id_batch_raises(self):
        config = tiny_config()
        params = init_params(config)
        images, _ = tiny_inputs(config)
        with pytest.raises(DegenerateBatchError):
            forward_train(images, np.zeros(4, dtype=int), params, config)

    def test_gradient_end_to_end(self):
        assert check_model_end_to_end(seed=0, trials=3) < 1e-5

    @pytest.mark.parametrize("name", sorted(model_variants()))
    def test_gradient_every_variant(self, name):
        config = model_variants()[name]
        assert check_model_end_to_end(seed=1, trials=2, config=config) < MODEL_TOL

    def test_randomized_scheme_needs_rng(self):
        from elasticdrop.dropmask import ElementDropout
        config = tiny_config(drop_scheme=ElementDropout(0.3))
        params = init_params(config)
        images, ids = tiny_inputs(config)
        with pytest.raises(ConfigError):
            forward_train(images, ids, params, config)
        out = forward_train(images, ids, params, config,
                            rng=np.random.default_rng(0))
        assert np.isfinite(out.total_loss)

    @pytest.mark.parametrize("over", [
        {}, dict(detach_weight=True), dict(loss="triplet"),
        dict(use_global_branch=True),
        dict(use_global_branch=True, drop_scheme=DropBlock(block_h=2,
                                                            block_w=1))],
        ids=["elastic", "detached", "triplet", "global_branch", "dropblock"])
    def test_metric_weights_are_the_mined_ones(self, over):
        config = tiny_config(**over)
        params = init_params(config)
        images, ids = tiny_inputs(config)
        out = forward_train(images, ids, params, config,
                            rng=np.random.default_rng(0))
        branches = len(out.branch_descriptors)
        assert out.metric_weights.shape == (branches, len(ids))
        if config.loss == "triplet":
            expected = np.ones((branches, len(ids)))
        else:
            expected = mined_weights(out.branch_descriptors, ids)
        assert np.array_equal(out.metric_weights, expected)

    def test_keep_branches_truncates(self):
        config = tiny_config(keep_branches=1)
        params = init_params(config)
        images, ids = tiny_inputs(config)
        out = forward_train(images, ids, params, config)
        assert len(out.branch_descriptors) == 1


def oracle_config(**over):
    shape = dict(height=8, width=4, in_channels=3, feat_channels=6,
                 embed_dim=4, num_classes=4)
    return tiny_config(**{**shape, **over})


SHARED_TRUNK_VARIANTS = {
    "uniform_m2": {},
    "uniform_m4": dict(drop_scheme=UniformRowDrop(m=4)),
    "overlap": dict(drop_scheme=OverlapRowDrop(patch_h=3, overlap=1)),
    "none": dict(drop_scheme=NoDrop()),
    "keep_branches": dict(drop_scheme=UniformRowDrop(m=4), keep_branches=3),
    "global_branch": dict(use_global_branch=True),
    "no_resblock": dict(use_resblock=False),
    "triplet": dict(loss="triplet"),
    "detached_weight": dict(detach_weight=True),
}


def run_against_oracle(config, seed):
    """One training step on both paths from identical params and inputs."""
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(8, config.height, config.width,
                              config.in_channels))
    ids = np.arange(8) % 4
    params = init_params(config, rng)
    ref = copy.deepcopy(params)
    out = forward_train(images, ids, params, config,
                        rng=np.random.default_rng([seed, 1]))
    ref_total, ref_descs = naive_forward_train(
        images, ids, ref, config, rng=np.random.default_rng([seed, 1]))
    assert len(out.branch_descriptors) == len(ref_descs)
    grads = {name: (p.grad, ref.named()[name].grad)
             for name, p in params.named().items()}
    return (out.total_loss, ref_total), list(zip(out.branch_descriptors, ref_descs)), grads


class TestSharedTrunkOracle:
    """forward_train against the per-branch path kept in tests/oracles.py."""

    # the shared trunk reorders the pooled sums, so floats move in the last bits
    TOL = 1e-12

    @pytest.mark.parametrize("name", sorted(SHARED_TRUNK_VARIANTS))
    def test_fixed_masks_match(self, name):
        config = oracle_config(**SHARED_TRUNK_VARIANTS[name])
        for seed in range(3):
            (total, ref_total), descs, grads = run_against_oracle(config, seed)
            assert abs(total - ref_total) <= self.TOL
            for d, r in descs:
                assert np.max(np.abs(d - r)) <= self.TOL
            for param, (g, r) in grads.items():
                assert np.max(np.abs(g - r)) <= self.TOL, param

    @pytest.mark.parametrize("global_branch", [False, True])
    def test_randomized_mask_exact(self, global_branch):
        # every randomized kind, with and without the resblock; ElementDropout's
        # rescaled (non-0/1) mask checks the backward mask multiply
        schemes = (ElementDropout(rate=0.25), SpatialDropout(rate=0.25),
                   BatchDropout(rate=0.25), DropBlock(block_h=2, block_w=2),
                   BatchDropBlock(rows_fraction=0.25))
        for scheme, resblock in itertools.product(schemes, (True, False)):
            config = oracle_config(use_global_branch=global_branch,
                                   use_resblock=resblock, drop_scheme=scheme)
            case = f"{scheme} use_resblock={resblock}"
            for seed in range(3):
                (total, ref_total), descs, grads = run_against_oracle(config,
                                                                      seed)
                assert total == ref_total, case
                for d, r in descs:
                    assert np.array_equal(d, r), case
                for param, (g, r) in grads.items():
                    assert np.array_equal(g, r), f"{case} {param}"


@st.composite
def trunk_cases(draw):
    """(config, keep, seed): 0/1 keep rows over a small grid.

    Any grid, feature width and row count, with the widths that are a
    multiple of 8 (the default 32 and criterion 7's 64 among them) and the
    one all-ones row of the global branch and ``infer`` drawn often.
    """
    height, width = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    channels = draw(st.one_of(st.integers(1, 12),
                              st.integers(1, 8).map(lambda k: 8 * k)))
    config = ModelConfig(height=height, width=width, feat_channels=channels,
                         use_resblock=draw(st.booleans()),
                         drop_scheme=NoDrop())
    keep = draw(st.one_of(st.just(np.ones((1, height * width), dtype=bool)),
                          st.integers(1, 6).flatmap(lambda rows: arrays(
                              np.bool_, (rows, height * width)))))
    return config, keep.astype(np.float64), draw(st.integers(0, 2 ** 32 - 1))


def sums_in_index_order(config, keep):
    """Whether the batched products sum the cells in index order, as einsum
    does, on OpenBLAS 0.3.31's Haswell kernels (numpy 2.4): at least two
    cells, a feature width that is a multiple of 8, and two or more keep
    rows or the one all-ones row. One partial row goes to gemv, and a width
    whose remainder mod 8 is 1-4 to a gemm edge kernel; both may sum in
    another order."""
    return (keep.shape[1] > 1 and config.feat_channels % 8 == 0
            and (len(keep) > 1 or keep.all()))


def trunk_against_einsum(config, keep, seed, n):
    """(new, einsum) pairs of the pooled maps, the encoder grad and every
    parameter grad of one shared-trunk forward and backward."""
    rng = np.random.default_rng(seed)
    params = init_params(config, rng)
    ref = copy.deepcopy(params)
    feat = rng.normal(size=(n * config.height * config.width,
                            config.feat_channels))
    d_pooled = rng.normal(size=(len(keep), n, config.feat_channels))
    pooled, cache = _shared_forward(feat, keep, params, config)
    ref_pooled, ref_cache = einsum_shared_forward(feat, keep, ref, config)
    d_feat = _shared_backward(d_pooled, cache, params, config)
    ref_d_feat = einsum_shared_backward(d_pooled, ref_cache, ref, config)
    return [(pooled, ref_pooled), (d_feat, ref_d_feat)] + [
        (p.grad, ref.named()[name].grad) for name, p in params.named().items()]


class TestTrunkContractions:
    """The shared trunk's batched-matmul keep-row sums against the einsum
    forms kept in tests/oracles.py. The keep rows are 0/1, so every product
    is exact and only the order of the sum over cells can move a bit."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(trunk_cases(), st.integers(0, 5))
    def test_match_einsum(self, case, n):
        # bit for bit where the kernels measured keep index order; a byte
        # failure on another BLAS build says that build orders the sums
        # otherwise, since every product is exact
        exact = sums_in_index_order(*case[:2])
        for new, old in trunk_against_einsum(*case, n):
            assert new.shape == old.shape
            if exact:
                assert new.tobytes() == old.tobytes()
            else:
                assert np.max(np.abs(new - old), initial=0.0) <= \
                    TestSharedTrunkOracle.TOL


class TestInfer:
    def test_output_dim(self):
        config = tiny_config()
        params = init_params(config)
        images, _ = tiny_inputs(config, n=5)
        assert infer(images, params, config).shape == (5, config.embed_dim)

    def test_deterministic(self):
        config = tiny_config()
        params = init_params(config)
        images, _ = tiny_inputs(config)
        assert np.array_equal(infer(images, params, config),
                              infer(images, params, config))

    def test_no_resblock_variant(self):
        config = tiny_config(use_resblock=False)
        params = init_params(config)
        assert params.res_w is None
        images, _ = tiny_inputs(config)
        assert infer(images, params, config).shape == (4, 2)


class TestLearningRate:
    def test_linear_warmup(self):
        config = tiny_config(base_lr=1e-3, warmup_epochs=5, epochs=40,
                             decay_epochs=(25, 35), decay_factor=0.1)
        assert learning_rate(config, 1) == pytest.approx(2e-4)
        assert learning_rate(config, 5) == pytest.approx(1e-3)
        assert learning_rate(config, 10) == pytest.approx(1e-3)

    def test_decay_at_epoch(self):
        config = tiny_config(base_lr=1e-3, warmup_epochs=5, epochs=40,
                             decay_epochs=(25, 35), decay_factor=0.1)
        assert learning_rate(config, 24) == pytest.approx(1e-3)
        assert learning_rate(config, 25) == pytest.approx(1e-4)
        assert learning_rate(config, 35) == pytest.approx(1e-5)
        assert learning_rate(config, 40) == pytest.approx(1e-5)

    def test_epoch_zero_rejected(self):
        with pytest.raises(ConfigError):
            learning_rate(tiny_config(), 0)


def tiny_dataset(num_ids=4, samples_per_id=6):
    cfg = SynthConfig(seed=0, num_ids=num_ids, samples_per_id=samples_per_id,
                      num_cameras=2, height=4, width=2, channels=2,
                      part_count=2, occluded_query_prob=0.0)
    return generate(cfg)


class TestTrain:
    def test_zero_epochs_returns_init(self):
        ds = tiny_dataset()
        config = tiny_config(epochs=0, num_classes=4)
        params, log = train(ds.train, config)
        fresh = init_params(config, np.random.default_rng([config.seed, 0]))
        for name, p in params.named().items():
            assert np.array_equal(p.value, fresh.named()[name].value)
        assert log == []

    def test_deterministic(self):
        ds = tiny_dataset()
        config = tiny_config(epochs=3, num_classes=4)
        pa, la = train(ds.train, config)
        pb, lb = train(ds.train, config)
        for name, p in pa.named().items():
            assert np.array_equal(p.value, pb.named()[name].value)
        assert la == lb

    def test_loss_decreases(self):
        cfg = SynthConfig(seed=0, num_ids=6, samples_per_id=10, num_cameras=2,
                          height=4, width=2, channels=3, part_count=2,
                          occluded_query_prob=0.0)
        ds = generate(cfg)
        config = tiny_config(in_channels=3, feat_channels=16, embed_dim=8,
                             num_classes=6, batch_p=3, batch_k=3, epochs=15,
                             warmup_epochs=3, decay_epochs=(12,))
        _, log = train(ds.train, config)
        assert log[-1]["total_loss"] < log[0]["total_loss"]

    def test_log_columns(self):
        ds = tiny_dataset()
        config = tiny_config(epochs=2, num_classes=4)
        _, log = train(ds.train, config)
        assert [row["epoch"] for row in log] == [1, 2]
        for row in log:
            assert set(row) == {"epoch", "lr", "elastic_loss", "ce_loss",
                                "total_loss"}

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train([], tiny_config())

    def test_id_outside_classes_rejected(self):
        ds = tiny_dataset(num_ids=4)
        with pytest.raises(ConfigError):
            train(ds.train, tiny_config(num_classes=2))


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        config = tiny_config()
        params = init_params(config, np.random.default_rng(5))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, config, config_hash="abc123")
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == config
        for name, p in params.named().items():
            assert np.array_equal(p.value, loaded.named()[name].value)

    @pytest.mark.parametrize("use_resblock", [True, False])
    def test_named_in_layer_order(self, use_resblock):
        # Adam, checkpoints and gradcheck iterate this order
        res = ["res_w", "res_b"] if use_resblock else []
        params = init_params(tiny_config(use_resblock=use_resblock))
        assert list(params.named()) == ["enc_w1", "enc_b1", "enc_w2", "enc_b2",
                                        *res, "emb_w", "emb_b", "cls_w",
                                        "cls_b"]

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format_version": 2,')
        with pytest.raises(ConfigError, match="malformed json in checkpoint"):
            load_checkpoint(path)

    def test_version_checked(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_infer_same_after_roundtrip(self, tmp_path):
        config = tiny_config()
        params = init_params(config, np.random.default_rng(7))
        images, _ = tiny_inputs(config)
        before = infer(images, params, config)
        save_checkpoint(tmp_path / "c.json", params, config)
        loaded, loaded_cfg = load_checkpoint(tmp_path / "c.json")
        assert np.array_equal(before, infer(images, loaded, loaded_cfg))


class TestConfigSerialization:
    @pytest.mark.parametrize("scheme", [
        UniformRowDrop(m=2), OverlapRowDrop(patch_h=2, overlap=1), NoDrop(),
        ElementDropout(rate=0.25), SpatialDropout(rate=0.25),
        BatchDropout(rate=0.25), DropBlock(block_h=2, block_w=1, rate=0.5),
        BatchDropBlock(rows_fraction=0.25),
    ], ids=lambda s: type(s).__name__)
    def test_roundtrip(self, scheme):
        config = tiny_config(use_global_branch=True, detach_weight=True,
                             drop_scheme=scheme)
        doc = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(doc) == config

    def test_unknown_key_rejected(self):
        doc = config_to_dict(tiny_config())
        doc["bogus"] = 1
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            scheme_from_dict({"kind": "mystery"})

    def test_scheme_extra_key_rejected(self):
        with pytest.raises(ConfigError):
            scheme_from_dict({"kind": "uniform", "m": 2, "x": 1})

    def test_uniform_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            tiny_config(drop_scheme=UniformRowDrop(m=3))

    @pytest.mark.parametrize("over", [
        dict(keep_branches=3),
        dict(keep_branches=2, drop_scheme=NoDrop()),
        dict(keep_branches=4, drop_scheme=OverlapRowDrop(patch_h=2, overlap=1)),
        dict(drop_scheme=OverlapRowDrop(patch_h=5, overlap=1)),
        dict(drop_scheme=DropBlock(block_h=5, block_w=1)),
        dict(eta=0.0),
        dict(base_lr=-1.0),
        dict(decay_factor=-0.5),
        dict(keep_branches=2, drop_scheme=DropBlock(block_h=2, block_w=2)),
    ])
    def test_schedule_checked_on_construction(self, over):
        with pytest.raises(ConfigError):
            tiny_config(**over)

    @pytest.mark.parametrize("over, fragment", [
        (dict(num_classes=1), "at least 2 classes"),
        (dict(loss="softmax"), "loss must be one of"),
        (dict(epochs=-1), "epochs must be non-negative"),
        (dict(batch_p=1), "need batch_p >= 2"),
        (dict(batch_k=1), "batch_k >= 2"),
        (dict(keep_branches=0), "keep_branches must be >= 1"),
    ], ids=["num_classes", "loss", "epochs", "batch_p", "batch_k",
            "keep_branches"])
    def test_field_checks_name_the_field(self, over, fragment):
        with pytest.raises(ConfigError, match=fragment):
            tiny_config(**over)


class TestBranchPlan:
    """The keep rows and branch count each ModelConfig builds once."""

    def test_keep_rows_read_only(self):
        keep = tiny_config().keep_rows
        with pytest.raises(ValueError, match="read-only"):
            keep[0, 0] = 1.0

    @pytest.mark.parametrize("over, rows", [
        ({}, [[0, 0, 0, 0, 1, 1, 1, 1], [1, 1, 1, 1, 0, 0, 0, 0]]),
        (dict(use_global_branch=True, keep_branches=1),
         [[0, 0, 0, 0, 1, 1, 1, 1], [1] * 8]),
        (dict(drop_scheme=NoDrop()), [[1] * 8]),
        (dict(drop_scheme=ElementDropout(rate=0.25), use_global_branch=True),
         [[1] * 8]),
    ], ids=["schedule", "cut_plus_global", "none", "randomized_global"])
    def test_keep_rows(self, over, rows):
        keep = tiny_config(**over).keep_rows
        assert keep.dtype == np.float64
        assert np.array_equal(keep, np.array(rows, dtype=np.float64))

    def test_randomized_scheme_has_no_fixed_rows(self):
        config = tiny_config(drop_scheme=SpatialDropout(rate=0.25))
        assert config.keep_rows is None and config.scheme_branches == 1

    def test_plan_is_not_a_field(self):
        config = tiny_config(use_global_branch=True)
        assert config.keep_rows.shape == (3, 8)
        names = {f.name for f in fields(ModelConfig)}
        assert not {"keep_rows", "scheme_branches"} & names
        assert not {"keep_rows", "scheme_branches"} & set(config_to_dict(config))
        assert config == tiny_config(use_global_branch=True)

    def test_replace_rebuilds_plan(self):
        config = replace(tiny_config(), keep_branches=1)
        assert config.keep_rows.shape == (1, 8)
        assert config.scheme_branches == 2
