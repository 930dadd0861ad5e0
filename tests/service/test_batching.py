"""Request grouping by compiled artifact and forest sharding."""

from repro.pipeline import CompileOptions
from repro.service.batching import (
    ExecRequest,
    group_requests,
    shard_group,
    shard_indexes,
)

from tests.fixtures import FIG1_SOURCE, FIG2_SOURCE, source_workload


def request(source=FIG2_SOURCE, trees=4, pure_impls=None, **kw):
    return ExecRequest(
        workload=source_workload(source, pure_impls),
        trees=list(range(trees)),
        **kw,
    )


class TestGrouping:
    def test_same_source_and_options_share_a_group(self):
        groups = group_requests([request(), request(), request()])
        assert len(groups) == 1
        assert len(groups[0].requests) == 3
        assert groups[0].tree_count == 12

    def test_different_source_splits(self):
        groups = group_requests([request(FIG2_SOURCE), request(FIG1_SOURCE)])
        assert len(groups) == 2

    def test_different_options_split(self):
        groups = group_requests(
            [
                request(),
                request(options=CompileOptions(mode="treefuser")),
            ]
        )
        assert len(groups) == 2

    def test_different_impls_split(self):
        # two requests for the same text with different bound impls
        # must not share an artifact (the impls are baked in)
        groups = group_requests(
            [
                request(pure_impls={"f": lambda x: x}),
                request(pure_impls={"f": lambda x: -x}),
            ]
        )
        assert len(groups) == 2

    def test_group_key_is_the_cache_key(self):
        req = request()
        [group] = group_requests([req])
        assert group.key == req.compile_key()

    def test_request_ids_are_unique(self):
        ids = {request().request_id for _ in range(10)}
        assert len(ids) == 10


class TestSharding:
    def test_shards_partition_the_range(self):
        for count in (1, 2, 7, 16, 64):
            for shards in (1, 2, 3, 8, 100):
                parts = shard_indexes(count, shards)
                flat = [i for part in parts for i in part]
                assert flat == list(range(count))
                assert len(parts) <= max(1, min(shards, count))
                sizes = [len(p) for p in parts]
                assert max(sizes) - min(sizes) <= 1  # near-equal blocks

    def test_shard_group_scales_with_workers(self):
        [group] = group_requests([request(trees=16)])
        shards = shard_group(group, workers=2, shards_per_worker=2)
        assert len(shards) == 4
        assert sorted(i for s in shards for i in s.indexes) == list(range(16))

    def test_empty_forest_produces_no_shards(self):
        [group] = group_requests([request(trees=0)])
        assert shard_group(group, workers=4) == []

    def test_multiple_requests_shard_independently(self):
        [group] = group_requests([request(trees=6), request(trees=3)])
        shards = shard_group(group, workers=1, shards_per_worker=1)
        assert len(shards) == 2
        by_request = {s.request.request_id: s.indexes for s in shards}
        assert sorted(len(v) for v in by_request.values()) == [3, 6]
