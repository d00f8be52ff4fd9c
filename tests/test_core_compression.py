"""Compressor tests: sparsity patterns, unbiasedness, payload accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    IdentityCompressor,
    QuantizationCompressor,
    RandomKCompressor,
    TopKCompressor,
)

finite = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


class TestIdentity:
    def test_passthrough(self, rng):
        v = rng.normal(size=50)
        out, nbytes = IdentityCompressor().compress(v)
        np.testing.assert_array_equal(out, v)
        assert nbytes == 400
        assert IdentityCompressor().ratio(50) == 1.0


class TestTopK:
    def test_keeps_largest_magnitudes(self):
        v = np.array([0.1, -5.0, 0.2, 3.0, -0.05])
        out, _ = TopKCompressor(0.4).compress(v)
        np.testing.assert_array_equal(out, [0.0, -5.0, 0.0, 3.0, 0.0])

    @given(arrays(np.float64, (64,), elements=finite),
           st.sampled_from([0.1, 0.25, 0.5]))
    @settings(max_examples=30)
    def test_sparsity_and_support(self, v, frac):
        out, nbytes = TopKCompressor(frac).compress(v)
        k = max(1, int(round(frac * 64)))
        assert (out != 0).sum() <= k
        assert nbytes == k * 12
        # surviving entries are unchanged
        nz = out != 0
        np.testing.assert_array_equal(out[nz], v[nz])

    def test_full_fraction_is_lossless(self, rng):
        v = rng.normal(size=20)
        out, nbytes = TopKCompressor(1.0).compress(v)
        np.testing.assert_array_equal(out, v)
        assert nbytes == 160

    def test_error_decreases_with_fraction(self, rng):
        v = rng.normal(size=256)
        errs = [
            np.linalg.norm(TopKCompressor(f).compress(v)[0] - v)
            for f in (0.1, 0.5, 0.9)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_ratio_below_one(self):
        assert TopKCompressor(0.1).ratio(1000) < 0.2

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            TopKCompressor(0.0)
        with pytest.raises(ValueError):
            TopKCompressor(1.1)


class TestRandomK:
    def test_unbiased(self):
        v = np.arange(1.0, 41.0)
        rng = np.random.default_rng(0)
        comp = RandomKCompressor(0.25, rng)
        mean = np.mean([comp.compress(v)[0] for _ in range(3000)], axis=0)
        np.testing.assert_allclose(mean, v, rtol=0.15, atol=1.0)

    def test_sparsity(self, rng):
        comp = RandomKCompressor(0.1, rng)
        out, _ = comp.compress(np.ones(100))
        assert (out != 0).sum() == 10


class TestQuantization:
    def test_constant_vector_exact(self, rng):
        comp = QuantizationCompressor(4, rng)
        v = np.full(20, 3.7)
        out, _ = comp.compress(v)
        np.testing.assert_array_equal(out, v)

    def test_range_preserved(self, rng):
        comp = QuantizationCompressor(3, rng)
        v = rng.normal(size=100)
        out, _ = comp.compress(v)
        assert out.min() >= v.min() - 1e-12
        assert out.max() <= v.max() + 1e-12

    def test_unbiased(self):
        rng = np.random.default_rng(1)
        comp = QuantizationCompressor(2, rng)
        v = np.linspace(-1, 1, 16)
        mean = np.mean([comp.compress(v)[0] for _ in range(4000)], axis=0)
        np.testing.assert_allclose(mean, v, atol=0.03)

    def test_more_bits_less_error(self):
        v = np.random.default_rng(3).normal(size=500)
        errs = []
        for bits in (2, 4, 8):
            comp = QuantizationCompressor(bits, np.random.default_rng(0))
            errs.append(np.linalg.norm(comp.compress(v)[0] - v))
        assert errs[0] > errs[1] > errs[2]

    def test_payload_scales_with_bits(self, rng):
        v = np.zeros(800)
        b4 = QuantizationCompressor(4, rng).compress(v)[1]
        b8 = QuantizationCompressor(8, rng).compress(v)[1]
        assert b8 == pytest.approx(2 * b4, rel=0.05)

    def test_invalid_bits(self, rng):
        with pytest.raises(ValueError):
            QuantizationCompressor(0, rng)
        with pytest.raises(ValueError):
            QuantizationCompressor(17, rng)


class TestCompressBlock:
    """The engine's CHOCO aggregation compresses all node deltas in one
    block call; its contract is row-for-row bit-identity with per-row
    ``compress`` in ascending row order (rng streams included)."""

    def test_topk_block_bitwise_equal_rows(self, rng):
        block = rng.normal(size=(9, 64))
        comp = TopKCompressor(0.25)
        out, total = comp.compress_block(block)
        expect = 0
        for i in range(block.shape[0]):
            row, nbytes = comp.compress(block[i])
            np.testing.assert_array_equal(out[i], row)
            expect += nbytes
        assert total == expect

    def test_topk_block_with_ties(self):
        """Duplicate magnitudes exercise argpartition tie handling: the
        vectorized row-wise selection must pick the same survivors as
        the 1-D call."""
        base = np.array([3.0, -3.0, 3.0, 1.0, -1.0, 1.0, 0.5, 0.5])
        block = np.stack([base, base[::-1].copy(), np.roll(base, 3)])
        comp = TopKCompressor(0.4)
        out, _ = comp.compress_block(block)
        for i in range(block.shape[0]):
            np.testing.assert_array_equal(out[i], comp.compress(block[i])[0])

    def test_topk_full_fraction_block(self, rng):
        block = rng.normal(size=(4, 10))
        out, nbytes = TopKCompressor(1.0).compress_block(block)
        np.testing.assert_array_equal(out, block)
        assert nbytes == block.size * 8

    def test_identity_block(self, rng):
        block = rng.normal(size=(5, 20))
        out, nbytes = IdentityCompressor().compress_block(block)
        np.testing.assert_array_equal(out, block)
        assert nbytes == 800

    @pytest.mark.parametrize("make", [
        lambda rng: RandomKCompressor(0.3, rng),
        lambda rng: QuantizationCompressor(4, rng),
    ], ids=["random-k", "quantize"])
    def test_rng_compressors_fall_back_to_row_loop(self, make):
        """Stochastic compressors must consume their rng stream in node
        order — the base-class block fallback reproduces the per-row
        loop exactly when both start from the same generator state."""
        block = np.random.default_rng(7).normal(size=(6, 40))
        by_row = make(np.random.default_rng(42))
        by_block = make(np.random.default_rng(42))
        rows = [by_row.compress(block[i]) for i in range(block.shape[0])]
        out, total = by_block.compress_block(block)
        np.testing.assert_array_equal(out, np.stack([r[0] for r in rows]))
        assert total == sum(r[1] for r in rows)

    def test_non_2d_rejected(self, rng):
        for comp in (IdentityCompressor(), TopKCompressor(0.5)):
            with pytest.raises(ValueError):
                comp.compress_block(rng.normal(size=10))


class TestEngineIntegration:
    def test_compressed_run_still_learns(self):
        """SkipTrain + top-k compression: accuracy degrades gracefully,
        communication energy drops by the compression ratio."""
        from repro.core import DPSGD
        from repro.data import make_classification_images, shard_partition
        from repro.data.synthetic import SyntheticSpec
        from repro.energy import CIFAR10_WORKLOAD, EnergyMeter, build_trace
        from repro.nn import small_mlp
        from repro.simulation import (
            EngineConfig, RngFactory, SimulationEngine, build_nodes,
        )
        from repro.topology import metropolis_hastings_weights, regular_neighbors

        def run(compressor):
            rngs = RngFactory(3)
            spec = SyntheticSpec(num_classes=4, channels=1, image_size=4,
                                 noise_std=1.0, prototype_resolution=2)
            train, protos = make_classification_images(spec, 400,
                                                       rngs.stream("data"))
            test, _ = make_classification_images(spec, 100,
                                                 rngs.stream("test"),
                                                 prototypes=protos)
            parts = shard_partition(train.y, 8, rng=rngs.stream("p"))
            nodes = build_nodes(train, parts, 8, rngs)
            w = metropolis_hastings_weights(regular_neighbors(8, 3, seed=0))
            cfg = EngineConfig(local_steps=2, learning_rate=0.2,
                               total_rounds=20, eval_every=20)
            model = small_mlp(16, 4, hidden=8, rng=rngs.stream("model"))
            meter = EnergyMeter(build_trace(8, CIFAR10_WORKLOAD, 0.1))
            eng = SimulationEngine(model, nodes, w, cfg, test, meter=meter,
                                   compressor=compressor)
            hist = eng.run(DPSGD(8))
            return hist.final_accuracy(), meter.total_comm_wh

        acc_full, comm_full = run(None)
        acc_comp, comm_comp = run(TopKCompressor(0.25))
        assert comm_comp < 0.5 * comm_full
        assert acc_comp > 0.5  # still far above 0.25 chance

    def test_block_compression_exact_in_engine(self):
        """The engine's CHOCO aggregation now compresses all node
        deltas in one block call; forcing the base-class per-row loop
        instead must leave the whole trajectory bit-identical."""
        from repro.core import DPSGD, Compressor
        from repro.data import make_classification_images, shard_partition
        from repro.data.synthetic import SyntheticSpec
        from repro.nn import small_mlp
        from repro.simulation import (
            EngineConfig, RngFactory, SimulationEngine, build_nodes,
        )
        from repro.topology import metropolis_hastings_weights, regular_neighbors

        class LoopTopK(TopKCompressor):
            compress_block = Compressor.compress_block

        def run(compressor):
            rngs = RngFactory(3)
            spec = SyntheticSpec(num_classes=4, channels=1, image_size=4,
                                 noise_std=1.0, prototype_resolution=2)
            train, protos = make_classification_images(spec, 200,
                                                       rngs.stream("data"))
            test, _ = make_classification_images(spec, 60,
                                                 rngs.stream("test"),
                                                 prototypes=protos)
            parts = shard_partition(train.y, 6, rng=rngs.stream("p"))
            nodes = build_nodes(train, parts, 8, rngs)
            w = metropolis_hastings_weights(regular_neighbors(6, 3, seed=0))
            cfg = EngineConfig(local_steps=2, learning_rate=0.2,
                               total_rounds=8, eval_every=4)
            model = small_mlp(16, 4, hidden=8, rng=rngs.stream("model"))
            eng = SimulationEngine(model, nodes, w, cfg, test,
                                   compressor=compressor)
            history = eng.run(DPSGD(6))
            return eng.state, history

        state_block, hist_block = run(TopKCompressor(0.25))
        state_loop, hist_loop = run(LoopTopK(0.25))
        np.testing.assert_array_equal(state_block, state_loop)
        assert ([r.mean_accuracy for r in hist_block.records]
                == [r.mean_accuracy for r in hist_loop.records])
