"""Rule modules. Importing this package registers every rule.

Current inventory (``repro check --list-rules`` prints it live):

* ``rng-global-state`` / ``rng-module-import`` / ``rng-default-rng`` —
  RNG discipline: every stream flows from RngFactory.
* ``det-wallclock`` / ``det-id-order`` / ``det-set-iter`` —
  determinism hazards in the engine packages.
* ``state-pair`` — state_dict ⇔ load_state_dict pairing.
* ``checkpoint-fields`` — mutated __init__ state must checkpoint.
* ``cache-bound`` — dict caches must show an eviction bound.
* ``artifact-codec`` — result JSON goes through the artifacts codec.
* ``shm-unlink`` — created shared-memory segments must show an unlink
  path (reachable ``.unlink()`` or a registered finalizer).
* ``no-dense-topology`` — no ``.toarray()``/``.todense()``/``np.outer``
  where topology-sized matrices live (simulation/topology/scenarios).
* ``heavy-import`` — no module-level import of ``networkx``,
  ``scipy.sparse`` (and so its ``linalg``), ``scipy.linalg``, ``scipy.stats`` or
  ``matplotlib`` (function bodies and ``TYPE_CHECKING`` are exempt).
"""

from . import (  # noqa: F401  (import side effect: rule registration)
    artifact,
    caches,
    checkpoint,
    determinism,
    heavy_import,
    resources,
    rng,
    state_contract,
    topology_dense,
)
