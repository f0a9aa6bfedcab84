"""Every ``repair_advice`` hook hands the caller a map it owns.

The churn runner keeps a returned patch as its advice and edits it in
place, without copying it.  That is sound only if no hook ever returns
(or edits) the map it was given, on the blind path and, where a hook has
one, on the labeled path.
"""

import pytest

from repro.core.api import available_schemas, default_instance, make_schema

#: schemas whose hook offers no patch (the one-bit wrappers).
_NO_HOOK = {"one-bit-2-coloring", "one-bit-lcl", "one-bit-orientation"}
HOOKED = [name for name in available_schemas() if name not in _NO_HOOK]

#: too long to be a legal string of any schema: every hook rewrites it.
CORRUPT = "1111111111111"


def _corrupted(name):
    graph, kwargs = default_instance(name, 60, 0)
    schema = make_schema(name, **kwargs)
    advice = dict(schema.encode(graph))
    site = min(graph.nodes(), key=graph.id_of)
    advice[site] = CORRUPT
    return schema, graph, advice, site


def test_every_hook_owner_is_covered():
    owners = {
        type(make_schema(name, **default_instance(name, 60, 0)[1])).repair_advice.__qualname__
        for name in HOOKED
    }
    # delta-coloring's hook delegates to its composed pipeline.
    assert owners >= {
        "TwoColoringSchema.repair_advice",
        "ThreeColoringSchema.repair_advice",
        "BalancedOrientationSchema.repair_advice",
        "DeltaEdgeColoringSchema.repair_advice",
        "LCLSubexpSchema.repair_advice",
        "ComposedSchema.repair_advice",
    }


@pytest.mark.parametrize("name", HOOKED)
def test_blind_patch_is_a_new_map(name):
    schema, graph, advice, site = _corrupted(name)
    before = dict(advice)
    patched = schema.repair_advice(graph, advice, [site], 1)
    assert patched is not None
    assert patched is not advice
    assert advice == before  # the input is left as it was
    assert patched[site] != CORRUPT


@pytest.mark.parametrize("name", ["2-coloring", "3-coloring"])
def test_labeled_patch_is_a_new_map(name):
    graph, kwargs = default_instance(name, 60, 0)
    schema = make_schema(name, **kwargs)
    advice = dict(schema.encode(graph))
    labeling = dict(schema.decode(graph, advice).labeling)
    site = min(graph.nodes(), key=graph.id_of)
    advice[site] = CORRUPT
    before = dict(advice)
    patched = schema.repair_advice(graph, advice, [site], 1, labeling)
    assert patched is not None
    assert patched is not advice
    assert advice == before
