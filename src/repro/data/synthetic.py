"""Synthetic stand-ins for CIFAR-10 and FEMNIST.

The evaluation machines have no network access, so the real datasets
cannot be downloaded. The paper's phenomena, however, do not depend on
natural-image statistics — they depend on (i) a learnable class signal,
(ii) the label-sharded / writer-clustered heterogeneity structure, and
(iii) relative model/workload sizes. These generators produce
class-conditional image data with exactly those properties:

* every class has a smooth (low-frequency) prototype image,
* samples are prototype + structured jitter + white noise, so classes
  are separable but not trivially so,
* ``SyntheticFEMNIST`` additionally assigns each sample to a *writer*
  with a per-writer style transform (gain, bias, spatial shift), which
  makes writer-clustered partitions meaningfully non-IID in feature
  space while remaining label-homogeneous — matching Fig. 7.

DESIGN.md §2 records this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ArrayDataset

__all__ = [
    "SyntheticSpec",
    "make_classification_images",
    "synthetic_cifar10",
    "synthetic_femnist",
    "WriterTags",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape/difficulty knobs for a synthetic image task."""

    num_classes: int
    channels: int
    image_size: int
    noise_std: float = 0.8
    jitter_std: float = 0.4
    prototype_resolution: int = 8

    def __post_init__(self) -> None:
        if self.num_classes <= 1:
            raise ValueError("need at least 2 classes")
        if self.image_size % self.prototype_resolution != 0:
            raise ValueError(
                "image_size must be a multiple of prototype_resolution "
                f"({self.image_size} vs {self.prototype_resolution})"
            )


#: Paper-scale task shapes.
CIFAR10_SPEC = SyntheticSpec(num_classes=10, channels=3, image_size=32)
FEMNIST_SPEC = SyntheticSpec(num_classes=62, channels=1, image_size=28,
                             prototype_resolution=7)

#: Scaled-down shapes used by the fast benchmark/test harness.
CIFAR10_SMALL_SPEC = SyntheticSpec(num_classes=10, channels=1, image_size=8,
                                   prototype_resolution=4)
FEMNIST_SMALL_SPEC = SyntheticSpec(num_classes=16, channels=1, image_size=8,
                                   prototype_resolution=4)


#: bytes per draw of the white-noise field — the one full-size
#: temporary the generator cannot avoid, drawn this much at a time: a
#: buffer the allocator recycles and the cache keeps (a bench preset's
#: 3 MB field drawn whole costs a fresh mapping per dataset, ~25% of
#: ``prepare_data``)
_NOISE_CHUNK_BYTES = 512 << 10


def _prototypes(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Smooth class prototypes, shape ``(K, C, H, W)``.

    Low-resolution Gaussian fields upsampled by ``np.kron`` give
    spatially-correlated patterns, so convolutional models have real
    structure to exploit (pure white-noise prototypes would make conv
    layers pointless).
    """
    k = spec.image_size // spec.prototype_resolution
    low = rng.normal(
        size=(spec.num_classes, spec.channels,
              spec.prototype_resolution, spec.prototype_resolution)
    )
    return np.kron(low, np.ones((1, 1, k, k)))


def make_classification_images(
    spec: SyntheticSpec,
    num_samples: int,
    rng: np.random.Generator,
    prototypes: np.ndarray | None = None,
    labels: np.ndarray | None = None,
) -> tuple[ArrayDataset, np.ndarray]:
    """Sample a dataset from ``spec``.

    Returns ``(dataset, prototypes)`` so train and test sets can share
    the same class prototypes (pass the returned array back in).
    """
    if prototypes is None:
        prototypes = _prototypes(spec, rng)
    if labels is None:
        labels = rng.integers(0, spec.num_classes, size=num_samples)
    else:
        labels = np.asarray(labels)
        if labels.shape != (num_samples,):
            raise ValueError("labels must have shape (num_samples,)")
        if num_samples and not (
            0 <= labels.min() and labels.max() < len(prototypes)
        ):
            raise ValueError(
                f"labels must lie in [0, {len(prototypes)}), got "
                f"[{labels.min()}, {labels.max()}]"
            )

    # per-sample smooth jitter (shared low-res field) + white noise,
    # accumulated into the one full-size array this function returns:
    # at 50k x 3 x 32 x 32 every full-size float64 temporary is 1.2 GB
    # of page faults, and the sums below are the same additions in the
    # same order as ``prototypes[labels] + kron(jitter) + noise``
    res = spec.prototype_resolution
    k = spec.image_size // res
    jitter_low = rng.normal(
        scale=spec.jitter_std, size=(num_samples, spec.channels, res, res)
    )
    x = np.empty((num_samples,) + prototypes.shape[1:])
    # mode="clip": the default "raise" gathers through a full-size
    # buffer before copying into ``out``; the labels are in range
    np.take(
        np.asarray(prototypes, dtype=x.dtype), labels, axis=0, out=x,
        mode="clip",
    )
    # each low-res jitter value covers a k x k block of pixels
    blocks = x.reshape(num_samples, spec.channels, res, k, res, k)
    blocks += jitter_low[:, :, :, None, :, None]
    # the generator fills a normal draw value by value, so chunked
    # draws leave its stream exactly where one whole-array draw would
    step = max(1, _NOISE_CHUNK_BYTES // (x.itemsize * prototypes[0].size))
    for lo in range(0, num_samples, step):
        chunk = x[lo:lo + step]
        chunk += rng.normal(scale=spec.noise_std, size=chunk.shape)
    return ArrayDataset(x, labels, spec.num_classes), prototypes


@dataclass
class WriterTags:
    """Writer assignment for a FEMNIST-like dataset: ``writer[i]`` is the
    writer id of sample ``i``."""

    writer: np.ndarray
    num_writers: int


def synthetic_cifar10(
    num_train: int,
    num_test: int,
    rng: np.random.Generator,
    spec: SyntheticSpec = CIFAR10_SMALL_SPEC,
) -> tuple[ArrayDataset, ArrayDataset]:
    """CIFAR-10-like train/test pair sharing class prototypes.

    Test labels are drawn uniformly (IID), matching the paper's
    observation that the test set is IID while node shards are not.
    """
    train, protos = make_classification_images(spec, num_train, rng)
    test, _ = make_classification_images(spec, num_test, rng, prototypes=protos)
    return train, test


def synthetic_femnist(
    num_train: int,
    num_test: int,
    num_writers: int,
    rng: np.random.Generator,
    spec: SyntheticSpec = FEMNIST_SMALL_SPEC,
    style_strength: float = 0.3,
    max_shift: int = 1,
) -> tuple[ArrayDataset, ArrayDataset, WriterTags]:
    """FEMNIST-like data with per-writer styles.

    Every sample belongs to a writer; a writer's samples share a gain,
    a bias and a small circular spatial shift (``≤ max_shift`` pixels —
    handwriting slant/offset, not a wholesale permutation). Writers see
    (roughly) all classes — the source of FEMNIST's comparatively
    homogeneous label structure in Fig. 7 — but their feature
    distributions differ, so the task is still meaningfully non-IID
    when partitioned by writer.
    """
    if num_writers <= 0:
        raise ValueError("num_writers must be positive")
    if max_shift < 0:
        raise ValueError("max_shift must be non-negative")
    train, protos = make_classification_images(spec, num_train, rng)
    test, _ = make_classification_images(spec, num_test, rng, prototypes=protos)

    writer = rng.integers(0, num_writers, size=num_train)
    gains = 1.0 + style_strength * rng.normal(size=num_writers)
    biases = style_strength * rng.normal(size=num_writers)
    shifts = rng.integers(-max_shift, max_shift + 1, size=num_writers)

    x = train.x
    for w in range(num_writers):
        mask = writer == w
        if not mask.any():
            continue
        styled = gains[w] * x[mask] + biases[w]
        x[mask] = np.roll(styled, shift=int(shifts[w]), axis=-1)

    return train, test, WriterTags(writer=writer, num_writers=num_writers)
