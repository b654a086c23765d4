"""Deterministic seed derivation shared by training and evaluation.

Every place the reproduction draws randomness for "item ``i`` of a run seeded
``s``" goes through :func:`derive_seed`, so the stream an item sees depends
only on its identity — never on which worker process happens to run it, or
what was drawn before it.  That is the
contract behind the bit-stable sharded evaluation harness
(``tests/test_eval_sharding.py``) and the streaming training data pipeline
(``tests/test_training_batch.py``).

The function lives in its own leaf module because both :mod:`repro.core`
(the training data pipeline) and :mod:`repro.eval` (the sharded runner)
need it; ``repro.eval.common`` re-exports it for backward compatibility.
"""

from __future__ import annotations

import numpy as np


def derive_seed(base_seed: int, index: int) -> int:
    """A per-item seed that depends only on ``(base_seed, index)``.

    Derived through :class:`numpy.random.SeedSequence`, so consecutive items
    get statistically independent streams, and chaining calls
    (``derive_seed(derive_seed(s, i), j)``) yields an independent stream per
    ``(s, i, j)`` path — the idiom for nested per-target / per-draw / per-
    component randomness.
    """
    return int(np.random.SeedSequence([int(base_seed), int(index)]).generate_state(1)[0])
