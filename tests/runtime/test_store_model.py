"""Model-based test of the indicator store against a plain dict.

A hypothesis state machine saves random rows (with repeated keys, so
last-write-wins is exercised), compacts, sweeps with ``gc``, tears
segment tails the way a crashed writer would, and reads the store back
two ways: a full replay into a fresh cache, and a follow into a
resident cache that lives as long as the machine.  There are two
followers: one follows only when the ``follow`` rule fires, so it meets
several changes at once, and one follows after every step.  After every
read the cache must equal the model — a dict that just records the last
value written per key — float for float.
"""

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.engine.cache import IndicatorCache
from repro.proxies.base import ProxyConfig
from repro.runtime.store import RuntimeStore, cache_fingerprint
from repro.searchspace.network import MacroConfig

pytestmark = pytest.mark.store

FINGERPRINT = cache_fingerprint(ProxyConfig(), MacroConfig.full())

keys = st.builds(lambda kind, index: (kind, index, 1, ()),
                 st.sampled_from(["ntk", "linear_regions"]),
                 st.integers(0, 5))
# Equal-length values make a rewritten file keep its byte size, the case
# a follower tracking sizes alone would miss.
values = st.one_of(st.sampled_from([0.5, 1.5, 2.5]),
                   st.floats(allow_nan=False, width=64))


def as_hex(items):
    return {key: float(value).hex() for key, value in items}


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="store-model-")
        self.model = {}
        self.lazy = (IndicatorCache(), {})
        self.eager = (IndicatorCache(), {})

    def segments(self):
        directory = self.store.cache_dir(FINGERPRINT)
        return sorted(directory.glob("seg-*.jsonl"))

    @initialize(auto_compact=st.sampled_from([None, 3]))
    def open_store(self, auto_compact):
        self.store = RuntimeStore(self.root,
                                  auto_compact_segments=auto_compact)

    @rule(rows=st.lists(st.tuples(keys, values), min_size=1, max_size=12))
    def save(self, rows):
        cache = IndicatorCache()
        for key, value in rows:
            cache.put(key, value)
            self.model[key] = value
        assert self.store.save_cache(cache, FINGERPRINT) == len(cache)

    @precondition(lambda self: self.segments())
    @rule()
    def compact(self):
        self.store.compact_cache(FINGERPRINT)

    @rule()
    def gc(self):
        self.store.gc(max_age_seconds=0.0)

    @precondition(lambda self: self.segments())
    @rule(data=st.data())
    def tear_a_segment_tail(self, data):
        """Append a truncated copy of a real row line to a segment, as a
        writer that crashed mid-line would leave it."""
        segment = data.draw(st.sampled_from(self.segments()))
        line = segment.read_text(encoding="utf-8").splitlines()[0]
        cut = data.draw(st.integers(1, len(line) - 1))
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write(line[:cut])

    @rule()
    def replay(self):
        cache = IndicatorCache()
        self.store.load_cache_into(cache, FINGERPRINT, strict=True)
        assert as_hex(cache.items()) == as_hex(self.model.items())

    def check_follower(self, follower):
        cache, seen = follower
        self.store.follow_cache_into(cache, FINGERPRINT, seen)
        assert as_hex(cache.items()) == as_hex(self.model.items())

    @rule()
    def follow(self):
        self.check_follower(self.lazy)

    @invariant()
    def follow_every_step(self):
        if hasattr(self, "store"):
            self.check_follower(self.eager)

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)


StoreMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None)
TestStoreModel = StoreMachine.TestCase
