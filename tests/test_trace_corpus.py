"""Every corpus fit and bench artifact keeps its recorded digest (trace_corpus.py)."""

import json

import trace_corpus


def _changed(recorded: dict, now: dict) -> list:
    return sorted(name for name in recorded.keys() | now.keys() if recorded.get(name) != now.get(name))


def test_every_corpus_fit_keeps_its_digest():
    recorded = json.loads(trace_corpus.CORPUS_FILE.read_text())
    fits, bench = trace_corpus.fit_digests(), trace_corpus.bench_digests()
    changed = _changed(recorded["fits"], fits) + _changed(recorded["bench"], bench)
    assert not changed, f"{len(changed)} corpus digests changed: {changed}"
    assert trace_corpus.combined(fits, bench) == recorded["combined"]
