"""Dataset byte pins across the synthetic generators.

``tests/golden/dataset_digests.json`` holds the SHA-256 of whole
synthesized datasets (every array's dtype, shape and bytes, in a fixed
order), recorded from the tree *before*
:func:`~repro.data.synthetic.make_classification_images` stopped
building its four full-size temporaries (``prototypes[labels]``, the
``np.kron`` upsample, their sum, the noise field) and started filling
one preallocated array with the noise drawn in sample chunks:

* ``cifar10-bench`` / ``femnist-bench`` — ``prepare_data`` of the two
  bench presets at seed 0: train, test, validation and every node's
  partition (the writer styles of the FEMNIST analogue included);
* ``cifar10-spec-2000`` — a 2,000-sample train / 500-sample test pair
  at the paper-scale ``CIFAR10_SPEC`` (3 × 32 × 32);
* ``femnist-spec-2000`` — the same at ``FEMNIST_SPEC`` (1 × 28 × 28,
  ``prototype_resolution=7``), 25 writers.

The paper-scale pairs are longer than one noise chunk, so a chunk
boundary falls inside them (asserted below): drawing the noise field
in pieces must leave the generator's stream — and with it every later
draw — where one whole-array draw left it.

Re-record only for an intentional, documented contract change::

    PYTHONPATH=src python tests/test_dataset_digests.py > tests/golden/dataset_digests.json
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.data import synthetic_cifar10, synthetic_femnist
from repro.data.synthetic import (
    _NOISE_CHUNK_BYTES,
    CIFAR10_SPEC,
    FEMNIST_SPEC,
)
from repro.experiments import get_preset
from repro.experiments.runner import prepare_data
from repro.hostinfo import blas_core

GOLDEN = Path(__file__).parent / "golden" / "dataset_digests.json"

#: samples in the paper-scale pairs' training halves
PAIR_SAMPLES = 2000


def arrays_digest(arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(f"{arr.dtype.str}{arr.shape}".encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _prepared(preset_name):
    data = prepare_data(get_preset(preset_name), seed=0)
    return [
        data.train.x, data.train.y, data.test.x, data.test.y,
        data.validation.x, data.validation.y, *data.partition,
    ]


def _cifar10_bench():
    return _prepared("cifar10-bench")


def _femnist_bench():
    return _prepared("femnist-bench")


def _cifar10_spec():
    train, test = synthetic_cifar10(
        PAIR_SAMPLES, 500, np.random.default_rng(7), spec=CIFAR10_SPEC
    )
    return [train.x, train.y, test.x, test.y]


def _femnist_spec():
    train, test, tags = synthetic_femnist(
        PAIR_SAMPLES, 500, 25, np.random.default_rng(7), spec=FEMNIST_SPEC
    )
    return [train.x, train.y, test.x, test.y, tags.writer]


DATASETS = {
    "cifar10-bench": _cifar10_bench,
    "femnist-bench": _femnist_bench,
    "cifar10-spec-2000": _cifar10_spec,
    "femnist-spec-2000": _femnist_spec,
}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_dataset_bytes_match_the_record(name):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(DATASETS)
    assert arrays_digest(DATASETS[name]()) == golden[name], (
        f"{name}: synthesized dataset bytes moved — the generator's "
        f"draw order or its arithmetic changed (on numpy {np.__version__}, "
        f"BLAS core {blas_core()})"
    )


@pytest.mark.parametrize("spec", [CIFAR10_SPEC, FEMNIST_SPEC])
def test_a_noise_chunk_boundary_falls_inside_the_paper_scale_pairs(spec):
    sample_bytes = 8 * spec.channels * spec.image_size ** 2
    assert _NOISE_CHUNK_BYTES // sample_bytes < PAIR_SAMPLES


if __name__ == "__main__":
    print(json.dumps(
        {name: arrays_digest(build()) for name, build in sorted(DATASETS.items())},
        indent=1,
    ))
