"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.data import SyntheticSpec, make_classification_images, synthetic_cifar10, synthetic_femnist
from repro.data.synthetic import CIFAR10_SPEC, FEMNIST_SPEC, _prototypes


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=1, channels=1, image_size=8)
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=4, channels=1, image_size=9,
                          prototype_resolution=4)

    def test_paper_shapes(self):
        assert CIFAR10_SPEC.channels == 3 and CIFAR10_SPEC.image_size == 32
        assert FEMNIST_SPEC.num_classes == 62 and FEMNIST_SPEC.image_size == 28


class TestGenerator:
    def test_shapes_and_labels(self, rng):
        spec = SyntheticSpec(num_classes=5, channels=2, image_size=8,
                             prototype_resolution=4)
        ds, protos = make_classification_images(spec, 100, rng)
        assert ds.x.shape == (100, 2, 8, 8)
        assert protos.shape == (5, 2, 8, 8)
        assert ds.y.min() >= 0 and ds.y.max() < 5

    def test_explicit_labels_respected(self, rng):
        spec = SyntheticSpec(num_classes=3, channels=1, image_size=4,
                             prototype_resolution=2)
        labels = np.array([0, 1, 2, 2, 1])
        ds, _ = make_classification_images(spec, 5, rng, labels=labels)
        np.testing.assert_array_equal(ds.y, labels)

    def test_out_of_range_labels_rejected(self, rng):
        """The prototype gather is an unchecked ``take``; labels from
        outside are checked once up front instead."""
        spec = SyntheticSpec(num_classes=3, channels=1, image_size=4,
                             prototype_resolution=2)
        for bad in ([0, 1, 3], [-1, 0, 1]):
            with pytest.raises(ValueError, match="labels must lie in"):
                make_classification_images(spec, 3, rng, labels=np.array(bad))

    def test_empty_dataset(self, rng):
        spec = SyntheticSpec(num_classes=3, channels=1, image_size=4,
                             prototype_resolution=2)
        ds, _ = make_classification_images(spec, 0, rng)
        assert ds.x.shape == (0, 1, 4, 4)

    def test_shared_prototypes_align_train_test(self, rng):
        """Samples of the same class correlate more with their own
        prototype than with others — the class signal is real."""
        spec = SyntheticSpec(num_classes=4, channels=1, image_size=8,
                             noise_std=0.3, jitter_std=0.1,
                             prototype_resolution=4)
        ds, protos = make_classification_images(spec, 200, rng)
        flat_p = protos.reshape(4, -1)
        flat_x = ds.x.reshape(200, -1)
        sims = flat_x @ flat_p.T
        assert (sims.argmax(axis=1) == ds.y).mean() > 0.9

    def test_noise_controls_difficulty(self, rng):
        low = SyntheticSpec(num_classes=4, channels=1, image_size=8,
                            noise_std=0.1, prototype_resolution=4)
        high = SyntheticSpec(num_classes=4, channels=1, image_size=8,
                             noise_std=5.0, prototype_resolution=4)
        ds_l, p = make_classification_images(low, 300, np.random.default_rng(0))
        ds_h, _ = make_classification_images(high, 300, np.random.default_rng(0),
                                             prototypes=p)

        def proto_acc(ds):
            sims = ds.x.reshape(300, -1) @ p.reshape(4, -1).T
            return (sims.argmax(axis=1) == ds.y).mean()

        assert proto_acc(ds_l) > proto_acc(ds_h)

    def test_prototypes_are_low_frequency(self, rng):
        spec = SyntheticSpec(num_classes=2, channels=1, image_size=8,
                             prototype_resolution=4)
        protos = _prototypes(spec, rng)
        # kron upsampling: each 2x2 block is constant
        blocks = protos.reshape(2, 1, 4, 2, 4, 2)
        assert np.allclose(blocks.std(axis=(3, 5)), 0.0)


class TestCifarFemnistPairs:
    def test_cifar_pair(self, rng):
        train, test = synthetic_cifar10(200, 50, rng)
        assert len(train) == 200 and len(test) == 50
        assert train.num_classes == test.num_classes == 10

    def test_femnist_writers(self, rng):
        train, test, tags = synthetic_femnist(300, 60, 10, rng)
        assert tags.writer.shape == (300,)
        assert tags.num_writers == 10
        assert tags.writer.max() < 10

    def test_femnist_writer_styles_differ(self, rng):
        train, _, tags = synthetic_femnist(
            2000, 10, 4, rng, style_strength=1.0, max_shift=0
        )
        means = [train.x[tags.writer == w].mean() for w in range(4)]
        assert np.std(means) > 0.05

    def test_femnist_validation(self, rng):
        with pytest.raises(ValueError):
            synthetic_femnist(10, 5, 0, rng)
        with pytest.raises(ValueError):
            synthetic_femnist(10, 5, 2, rng, max_shift=-1)

    def test_determinism(self):
        a, _ = synthetic_cifar10(50, 10, np.random.default_rng(9))
        b, _ = synthetic_cifar10(50, 10, np.random.default_rng(9))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
