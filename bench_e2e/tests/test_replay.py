"""Self-time arithmetic on a hand-built span file."""

from bench_e2e.replay import (Span, median_ns, read_spans, self_times,
                              unbalanced, write_spans)


def chain(req, durations):
    """Spans of one request; each starts where the replay would."""
    parents = {"client.check": None, "http_router.http": "client.check",
               "http_router.exchange": "http_router.http",
               "hashing.route": "http_router.exchange",
               "udp_server.exchange": "http_router.exchange"}
    t = req * 10_000
    spans = []
    for name, parent in parents.items():
        spans.append(Span(req, name, parent, t, t + durations[name]))
        t += durations[name]
    return spans


BASE = {"client.check": 1000, "http_router.http": 700,
        "http_router.exchange": 300, "hashing.route": 20,
        "udp_server.exchange": 200}


def test_self_time_is_median_minus_children(tmp_path):
    spans = []
    for req, outlier in enumerate((0, 0, 5000)):      # one slow request
        spans += chain(req, {**BASE,
                             "client.check": BASE["client.check"] + outlier})
    path = tmp_path / "trace.jsonl"
    write_spans(spans, path)
    loaded = read_spans(path)
    assert loaded == spans

    assert median_ns(loaded)["client.check"] == 1000   # median, not mean
    assert self_times(loaded) == {
        "client.check": 300, "http_router.http": 400,
        "http_router.exchange": 300 - 200 - 20,        # two children
        "hashing.route": 20, "udp_server.exchange": 200}
    assert sum(self_times(loaded).values()) == 1000    # telescopes
    assert not unbalanced(loaded)


def test_deeper_replay_slower_than_its_parent_is_unbalanced():
    spans = chain(0, {**BASE, "http_router.http": 1400})
    assert self_times(spans)["client.check"] == -400
    assert unbalanced(spans)
