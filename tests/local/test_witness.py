"""The dynamic locality-witness recorder behind ``repro certify``.

The recorder must be a *tight* observer: it reports exactly the deepest
view layer and longest advice string a decode actually touched, stays
inert outside a ``record_locality_witness`` block (the hot path of every
View accessor checks one flag), and folds the decoder's own round
accounting into the radius via max semantics.
"""

from repro.graphs.generators import cycle
from repro.local.graph import LocalGraph
from repro.local.views import (
    LOCALITY_WITNESS_RECORDER,
    RecordingAdviceMap,
    gather_view,
    record_locality_witness,
)


def _graph(n=12):
    return LocalGraph(cycle(n))


class TestRecordingAdviceMap:
    def test_counts_longest_fetch(self):
        advice = {1: "101", 2: "11111", 3: ""}
        with record_locality_witness() as rec:
            wrapped = RecordingAdviceMap(advice, recorder=rec)
            assert wrapped[1] == "101"
            assert wrapped.get(2) == "11111"
            witness = rec.witness()
        assert witness.advice_bits == 5
        assert witness.advice_reads == 2

    def test_mapping_protocol_preserved(self):
        advice = {1: "0", 2: "1"}
        with record_locality_witness() as rec:
            wrapped = RecordingAdviceMap(advice, recorder=rec)
            assert len(wrapped) == 2
            assert set(wrapped) == {1, 2}
            assert dict(wrapped.items()) == advice
            # items() iteration fetches every value
            assert rec.witness().advice_reads >= 2

    def test_missing_key_with_default_not_counted(self):
        with record_locality_witness() as rec:
            wrapped = RecordingAdviceMap({1: "1"}, recorder=rec)
            assert wrapped.get(99, "") == ""
        assert rec.witness().advice_reads == 0


class TestViewShadowing:
    def test_accessor_depth_is_recorded(self):
        graph = _graph()
        center = next(iter(graph.nodes()))
        view = gather_view(graph, center, 3)
        far = max(view.nodes, key=view.distances.__getitem__)
        with record_locality_witness() as rec:
            view.id_of(far)
            witness = rec.witness()
        assert witness.radius == view.distances[far] == 3
        assert witness.view_accesses == 1

    def test_inert_outside_the_block(self):
        graph = _graph()
        center = next(iter(graph.nodes()))
        view = gather_view(graph, center, 2)
        far = max(view.nodes, key=view.distances.__getitem__)
        before = LOCALITY_WITNESS_RECORDER.view_accesses
        view.id_of(far)  # recorder disarmed: must not count
        assert LOCALITY_WITNESS_RECORDER.view_accesses == before

    def test_advice_of_records_both_axes(self):
        graph = _graph()
        center = next(iter(graph.nodes()))
        advice = {v: "1101" for v in graph.nodes()}
        view = gather_view(graph, center, 1, advice=advice)
        neighbor = next(v for v in view.nodes if view.distances[v] == 1)
        with record_locality_witness() as rec:
            view.advice_of(neighbor)
            witness = rec.witness()
        assert witness.radius == 1
        assert witness.advice_bits == 4
        assert witness.advice_reads == 1


class TestWitnessSemantics:
    def test_rounds_folds_in_by_max(self):
        with record_locality_witness() as rec:
            RecordingAdviceMap({1: "11"}, recorder=rec)[1]
            assert rec.witness(rounds=7).radius == 7
            assert rec.witness(rounds=0).radius == 0
        # rounds below the observed view depth do not shrink the witness
        graph = _graph()
        center = next(iter(graph.nodes()))
        view = gather_view(graph, center, 2)
        far = max(view.nodes, key=view.distances.__getitem__)
        with record_locality_witness() as rec:
            view.id_of(far)
            assert rec.witness(rounds=1).radius == 2

    def test_block_resets_previous_counters(self):
        with record_locality_witness() as rec:
            RecordingAdviceMap({1: "111111"}, recorder=rec)[1]
        with record_locality_witness() as rec:
            witness = rec.witness()
        assert witness.advice_bits == 0
        assert witness.advice_reads == 0


class TestBatchViewShadowing:
    """A batched :class:`LazyView` (the gather on >= 64 roots) reports what
    the equal plain :class:`View` reports, through its center fast paths,
    its lazily built dicts and its materialized ones alike."""

    @staticmethod
    def _reads(view, center, far, outside):
        return [
            lambda: view.advice_of(center),
            lambda: view.id_of(center),
            lambda: view.distance(center),
            lambda: view.input_of(center),
            lambda: view.advice_of(far),
            lambda: view.distance(far),
            lambda: view.id_of(far),
            lambda: view.input_of(far),
            lambda: view.advice_of(outside),
            lambda: view.input_of(outside),
            lambda: view.advice_of(center),
            lambda: view.distance(center),
        ]

    @staticmethod
    def _witness(reads, order):
        with record_locality_witness() as rec:
            results = [reads[i]() for i in order]
            return results, rec.witness()

    def test_equal_counters_to_the_plain_view(self):
        from repro.local.vectorized import gather_ball_batch

        graph = LocalGraph(
            cycle(80), inputs={v: v % 5 for v in range(0, 80, 3)}, seed=1
        )
        advice = {v: "10"[: v % 3] for v in graph.nodes()}
        batch = gather_ball_batch(graph, 3, advice=advice)
        for slot in (0, 41):
            center = graph.compiled.nodes[slot]
            plain = gather_view(graph, center, 3, advice).materialize()
            far = max(plain.nodes, key=plain.distances.__getitem__)
            outside = next(v for v in graph.nodes() if v not in plain.nodes)
            for order in (range(12), range(11, -1, -1), [4, 0, 5, 1, 2, 6, 3, 7]):
                # A fresh lazy view each time: its dicts start unbuilt.
                got = self._witness(
                    self._reads(batch.view(slot), center, far, outside), order
                )
                want = self._witness(self._reads(plain, center, far, outside), order)
                assert got == want
                assert got[1].view_accesses == len(list(order))
