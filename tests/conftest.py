"""Shared fixtures.

``force_gather`` pins which gather the root-count rule picks, so one test
can drive both the scalar and the vectorized branch of every call site
(``run_view_algorithm``, ``AdviceService``) without a user-facing knob.
"""

import pytest


@pytest.fixture
def force_gather(monkeypatch):
    """Return ``force(branch)``: every later gather call runs ``branch``.

    ``branch`` is ``"scalar"`` or ``"vectorized"``; ``"auto"`` restores the
    real :data:`repro.local.model.AUTO_VECTORIZE_MIN_NODES` threshold.  Each
    call takes effect at the next gather, so a test may switch branches
    between calls.
    """
    from repro.local import model

    thresholds = {
        "auto": model.AUTO_VECTORIZE_MIN_NODES,
        "scalar": float("inf"),
        "vectorized": 0,
    }

    def force(branch):
        monkeypatch.setattr(model, "AUTO_VECTORIZE_MIN_NODES", thresholds[branch])

    return force
