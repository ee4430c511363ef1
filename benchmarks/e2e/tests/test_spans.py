"""Self time on hand-built trees, and the recorder's manners."""

import threading

import spans


def _span(sid, parent, start, end, name="x", request=1):
    return (sid, parent, request, name, start, end)


def test_self_time_nested():
    tree = [_span(1, None, 0, 100), _span(2, 1, 10, 60), _span(3, 2, 20, 30)]
    assert spans.self_times(tree) == {1: 50, 2: 40, 3: 10}


def test_self_time_overlapping_siblings_counted_once():
    # Two children overlap on [30, 50]: the parent is covered on [10, 70].
    tree = [_span(1, None, 0, 100), _span(2, 1, 10, 50), _span(3, 1, 30, 70)]
    assert spans.self_times(tree)[1] == 40


def test_self_time_cross_thread_child_clipped_to_parent():
    # A child on another thread may outlive its parent; only the part
    # inside the parent's interval is taken off the parent.
    tree = [_span(1, None, 0, 100), _span(2, 1, 80, 130)]
    assert spans.self_times(tree) == {1: 80, 2: 50}


def test_recorder_follows_a_call_onto_a_pool_thread():
    from concurrent.futures import ThreadPoolExecutor

    recorder = spans.Recorder()
    inner = recorder._wrap_sync("inner.call", lambda: threading.get_ident())

    def outer_body():
        with ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(inner).result()

    outer = recorder._wrap_sync("service.lineage", outer_body)
    recorder.install()
    try:
        worker = outer()
    finally:
        recorder.uninstall()
    assert worker != threading.get_ident()
    by_name = {s[3]: s for s in recorder.spans}
    assert by_name["inner.call"][1] == by_name["service.lineage"][0]  # parent
    assert by_name["inner.call"][2] == by_name["service.lineage"][2]  # request


def test_missing_boundary_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(
        spans, "BOUNDARIES",
        spans.BOUNDARIES + (
            ("gone.layer.call", "repro.service", "ProvenanceService.no_such_method"),
            ("gone.module.call", "repro.no_such_module", "thing"),
        ),
    )
    recorder = spans.Recorder()
    try:
        missing = recorder.install()
    finally:
        recorder.uninstall()
    assert "repro.service.ProvenanceService.no_such_method" in missing
    assert "repro.no_such_module.thing" in missing


def test_uninstall_restores_every_callable():
    from repro.server.http import Response
    from repro.service import ProvenanceService

    before = (vars(ProvenanceService)["lineage"], vars(Response)["json"])
    recorder = spans.Recorder()
    recorder.install()
    assert vars(ProvenanceService)["lineage"] is not before[0]
    recorder.uninstall()
    assert (vars(ProvenanceService)["lineage"], vars(Response)["json"]) == before


def test_spans_round_trip_through_jsonl(tmp_path):
    recorder = spans.Recorder()
    recorder.spans.append(_span(1, None, 5, 9, "service.lineage"))
    recorder.missing.append("a.b")
    path = tmp_path / "spans.jsonl"
    recorder.dump(str(path))
    loaded, missing = spans.load(str(path))
    assert loaded == [_span(1, None, 5, 9, "service.lineage")]
    assert missing == ["a.b"]
