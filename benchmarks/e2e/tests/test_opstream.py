"""Op streams are a pure function of the seed (and of the run ids)."""

import opstream
import workloads
from corpora import SIZES, WORKFLOWS, Corpus


def _corpus(tag, kind, runs):
    return Corpus(
        tag=tag, kind=kind, path="unused", workflow=WORKFLOWS[kind](),
        run_ids=[f"{tag}-{i:05d}" for i in range(runs)],
    )


def _stream(name, seed):
    workload = workloads.BY_NAME[name]
    corpora = {
        tag: _corpus(tag, kind, SIZES[size])
        for tag, kind, size, _shards in workload.corpora
    }
    return workload.stream(seed, corpora)


def test_same_seed_same_digest_for_every_workload():
    for workload in workloads.WORKLOADS:
        first = opstream.digest(_stream(workload.name, 7))
        assert first == opstream.digest(_stream(workload.name, 7)), workload.name


def test_different_seed_different_digest():
    for workload in workloads.WORKLOADS:
        assert opstream.digest(_stream(workload.name, 7)) != opstream.digest(
            _stream(workload.name, 8)
        ), workload.name


def test_engine_workloads_share_one_stream():
    unique = opstream.digest(_stream("engine-unique", 11))
    assert unique == opstream.digest(_stream("engine-sharded", 11))
    assert unique == opstream.digest(_stream("engine-naive", 11))


def test_unique_stream_outgrows_the_caches():
    ops = _stream("engine-unique", 11)
    keys = {(op.query, op.runs) for op in ops}
    shapes = {op.query for op in ops}
    assert len(keys) > 10 * 256  # result cache holds 256 entries
    assert len(shapes) > 4 * 256  # plan registry holds 256 plans


def test_point_stream_is_skewed_but_wider_than_the_result_cache():
    ops = _stream("http-point", 11)
    per_tenant = {}
    for op in ops:
        per_tenant.setdefault(op.tenant, []).append((op.query, op.runs))
    for tenant, keys in per_tenant.items():
        distinct = set(keys)
        assert len(distinct) > 2 * 256, tenant
        hottest = max(distinct, key=keys.count)
        assert keys.count(hottest) > 20 * len(keys) / len(distinct), tenant


def test_mixed_stream_aims_a_tenth_at_the_latest_run():
    ops = _stream("mixed-ingest", 11)
    latest = sum(1 for op in ops if op.runs == (opstream.LATEST,))
    assert 0.07 < latest / len(ops) < 0.13
