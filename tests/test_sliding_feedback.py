"""Tests for the general-s lazy-feedback sliding-window system."""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
import pytest

from repro import (
    CentralizedWindowSampler,
    Engine,
    EventBatch,
    SamplerConfig,
    make_sampler,
    restore,
    snapshot,
)
from repro.core.sliding_feedback import (
    SILENT,
    FeedbackBottomSSite,
    SlidingWindowBottomSFeedback,
)
from repro.core.sliding_general import SlidingWindowBottomS
from repro.errors import ConfigurationError, ProtocolError
from repro.hashing import UnitHasher
from repro.netsim import MessageKind
from repro.structures.dominance import SortedDominanceSet, brute_force_survivors
from feedback_oracle import AnswerEveryPush


def random_schedule(rng, num_sites, universe, slots, max_per_slot=5):
    for slot in range(1, slots + 1):
        burst = int(rng.integers(0, max_per_slot))
        yield slot, [
            (int(rng.integers(0, num_sites)), int(rng.integers(0, universe)))
            for _ in range(burst)
        ]


class TestExactness:
    @pytest.mark.parametrize("sample_size", [2, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_oracle_every_slot(self, sample_size, seed):
        hasher = UnitHasher(seed * 31 + sample_size)
        system = SlidingWindowBottomSFeedback(
            num_sites=3, window=20, sample_size=sample_size, hasher=hasher
        )
        oracle = CentralizedWindowSampler(20, sample_size, hasher)
        rng = np.random.default_rng(seed)
        for slot, arrivals in random_schedule(rng, 3, 50, 500):
            system.advance(slot)
            system.observe_batch(arrivals)
            for _site, element in arrivals:
                oracle.observe(element, slot)
            oracle.advance(slot)
            assert system.sample() == oracle.sample(), f"slot {slot}"

    def test_heavy_churn_tiny_window(self):
        hasher = UnitHasher(99)
        system = SlidingWindowBottomSFeedback(
            num_sites=2, window=3, sample_size=3, hasher=hasher
        )
        oracle = CentralizedWindowSampler(3, 3, hasher)
        rng = np.random.default_rng(9)
        for slot, arrivals in random_schedule(rng, 2, 12, 400, max_per_slot=7):
            system.advance(slot)
            system.observe_batch(arrivals)
            for _site, element in arrivals:
                oracle.observe(element, slot)
            oracle.advance(slot)
            assert system.sample() == oracle.sample()

    def test_window_empties(self):
        system = SlidingWindowBottomSFeedback(
            num_sites=2, window=5, sample_size=3, seed=2
        )
        system.advance(1)
        system.observe_batch([(0, "a"), (1, "b")])
        assert system.sample() == sorted(
            ["a", "b"], key=system.hasher.unit
        )
        for slot in range(2, 12):
            system.advance(slot)
        assert system.sample() == []


class TestThresholdInvariants:
    def test_site_threshold_always_safe(self):
        # Whenever a site's threshold is valid (t_i > now), there exist s
        # live elements (at the coordinator) hashing below u_i — so a
        # skipped arrival could not be in the global bottom-s.
        hasher = UnitHasher(10)
        system = SlidingWindowBottomSFeedback(
            num_sites=3, window=15, sample_size=3, hasher=hasher
        )
        rng = np.random.default_rng(3)
        for slot, arrivals in random_schedule(rng, 3, 40, 400):
            system.advance(slot)
            system.observe_batch(arrivals)
            coordinator = system.coordinator
            u, valid = coordinator._threshold(slot)
            for site in system.sites:
                if site.valid_until > slot and site.u_local < 1.0:
                    # Site threshold is some past (u, t_u) with t_u > now:
                    # its backing bottom-s is still live, so the current
                    # coordinator u can only be <= the site's view.
                    assert u <= site.u_local + 1e-15

    def test_messages_two_way(self):
        # Every report travels one way; every reply answers a report.
        # Only the pushes of a lapse before its final one go unanswered,
        # which the answer-every-push oracle counts.
        system = SlidingWindowBottomSFeedback(
            num_sites=3, window=15, sample_size=2, seed=4
        )
        oracle = AnswerEveryPush(num_sites=3, window=15, sample_size=2, seed=4)
        rng = np.random.default_rng(1)
        for slot, arrivals in random_schedule(rng, 3, 40, 300):
            for sampler in (system, oracle):
                sampler.advance(slot)
                sampler.observe_batch(arrivals)
        stats = system.network.stats
        reports = stats.by_kind[MessageKind.SW_REPORT]
        replies = stats.by_kind[MessageKind.SW_SAMPLE]
        assert reports == stats.site_to_coordinator
        assert replies == stats.coordinator_to_site
        assert stats.total_messages == reports + replies
        assert replies == reports - oracle.non_final_pushes
        assert oracle.non_final_pushes > 0


class Outbox:
    """A network stand-in that keeps what a site sends, undelivered."""

    def __init__(self):
        self.sent = []

    def send(self, src, dst, kind, payload, size_bytes=16):
        self.sent.append(payload)

    def take(self):
        """The ``(element, hash, expiry)`` of each report since the last
        take."""
        sent, self.sent = self.sent, []
        return [payload[:3] for payload in sent]


def reply(site, element, expiry, u, valid_until, lapse=None):
    """Deliver the coordinator's answer to ``site``'s report of
    ``(element, expiry)`` with lapse field ``lapse``."""
    site.handle_message(
        MessageKind.SW_SAMPLE, (u, valid_until, element, expiry, lapse), None
    )


class TestDeltaFallback:
    """A lapse re-pushes only what the coordinator has not acknowledged,
    and repeats until its pushes are acknowledged."""

    def acknowledged_site(self):
        # a and b reported at slot 1 and acknowledged; c reported at slot
        # 2, its reply lost.  The held threshold lapses at slot 5.
        site = FeedbackBottomSSite(0, window=10, sample_size=2)
        outbox = Outbox()
        site.observe_hashed("a", 0.1, 1, outbox)
        site.observe_hashed("b", 0.2, 1, outbox)
        reply(site, "a", 11, 1.0, math.inf)
        reply(site, "b", 11, 0.2, 5)
        site.observe_hashed("c", 0.05, 2, outbox)
        assert outbox.take() == [("a", 0.1, 11), ("b", 0.2, 11), ("c", 0.05, 12)]
        assert site.known == {"a": 11, "b": 11}
        return site, outbox

    def test_lapse_pushes_only_unacknowledged_entries(self):
        site, outbox = self.acknowledged_site()
        site.tick(4, outbox)
        assert outbox.take() == []  # still valid, nothing pending
        site.tick(5, outbox)
        # Local bottom-2 is c, a; a is acknowledged at its expiry.
        assert outbox.take() == [("c", 0.05, 12)]
        assert site.known == {"a": 11}
        assert site.pending == {"c": 12}
        assert (site.u_local, site.valid_until) == (1.0, math.inf)

    def test_unacknowledged_lapse_repeats(self):
        site, outbox = self.acknowledged_site()
        site.tick(5, outbox)
        outbox.take()
        # The push was lost: the next boundary lapses again, though the
        # reset threshold never expires.
        site.tick(6, outbox)
        assert outbox.take() == [("c", 0.05, 12)]
        assert site.fallbacks == 2
        reply(site, "c", 12, 0.1, 11)
        assert site.pending == {}
        assert site.known == {"a": 11, "c": 12}
        site.tick(7, outbox)
        assert outbox.take() == []
        assert site.fallbacks == 2

    def test_fully_acknowledged_lapse_pushes_one_entry(self):
        site, outbox = self.acknowledged_site()
        site.tick(5, outbox)
        reply(site, "c", 12, 0.1, 8)
        outbox.take()
        site.tick(8, outbox)
        # Both bottom-2 entries are known; one push still fetches a fresh
        # threshold.
        assert outbox.take() == [("c", 0.05, 12)]
        assert site.known == {"c": 12, "a": 11}

    def test_stale_reply_never_raises_the_threshold(self):
        site, outbox = self.acknowledged_site()
        # Overtaken on a reordering link: a reply computed while the
        # coordinator knew less would raise u_i.
        reply(site, "c", 12, 1.0, math.inf)
        assert (site.u_local, site.valid_until) == (0.2, 5)
        assert site.known["c"] == 12  # the acknowledgement still counts
        reply(site, "c", 12, 0.1, 9)
        assert (site.u_local, site.valid_until) == (0.1, 9)

    def test_known_record_stays_bounded(self):
        # With fewer than s live elements every reply is valid until
        # infinity, so the site never lapses; the record still forgets
        # expired entries once it outgrows 2s.
        s = 16
        system = SlidingWindowBottomSFeedback(
            num_sites=1, window=2, sample_size=s, seed=1
        )
        site = system.sites[0]
        peak = 0
        for slot in range(1, 10_001):
            system.observe(0, slot, slot=slot)
            peak = max(peak, len(site.known))
        assert site.fallbacks == 0
        assert len(site.candidates) == 2
        assert peak <= 2 * s + 1


    def lapse_of_two(self):
        # a, b and c reported at slot 1 and only b answered, with a
        # threshold valid until 12: the site lapses at 12, when its
        # bottom-2 is c, a, neither of them acknowledged.
        site = FeedbackBottomSSite(0, window=20, sample_size=2)
        outbox = Outbox()
        for element, h in (("a", 0.1), ("b", 0.2), ("c", 0.05)):
            site.observe_hashed(element, h, 1, outbox)
        reply(site, "b", 21, 0.2, 12)
        outbox.take()
        site.tick(12, outbox)
        return site, outbox

    def test_only_the_final_push_asks_for_a_reply(self):
        site, outbox = self.lapse_of_two()
        assert site.fallbacks == 1
        assert [payload[4] for payload in outbox.sent] == [SILENT, 1]
        assert outbox.take() == [("c", 0.05, 21), ("a", 0.1, 21)]
        assert site.pending == {"c": 21, "a": 21}
        # Arrival reports ask for a reply and carry no lapse number.
        site.observe_hashed("d", 0.01, 12, outbox)
        assert outbox.sent[-1][4] is None

    def test_the_final_reply_settles_the_lapse_in_push_order(self):
        site, outbox = self.lapse_of_two()
        outbox.take()
        reply(site, "a", 21, 0.1, 21, lapse=1)
        assert site.pending == {}
        assert list(site.known.items()) == [("c", 21), ("a", 21)]
        assert (site.u_local, site.valid_until) == (0.1, 21)
        site.tick(13, outbox)
        assert outbox.take() == []

    def test_a_reply_from_another_lapse_settles_only_its_entry(self):
        # The answer to another lapse's final push (or to an arrival)
        # acknowledges its own entry and leaves the lapse pending.
        site, outbox = self.lapse_of_two()
        outbox.take()
        reply(site, "a", 21, 0.1, 21, lapse=7)
        assert site.pending == {"c": 21}
        assert site.known == {"a": 21}
        site.tick(13, outbox)
        assert site.fallbacks == 2
        assert outbox.take() == [("c", 0.05, 21)]

    def test_the_coordinator_answers_all_but_silent_pushes(self):
        system = SlidingWindowBottomSFeedback(
            num_sites=1, window=5, sample_size=2, seed=6
        )
        coordinator, network = system.coordinator, system.network
        for element, lapse in (("a", SILENT), ("b", None), ("c", 3)):
            coordinator.handle_message(
                MessageKind.SW_REPORT, (element, 0.5, 5, 0, lapse), network
            )
        assert coordinator.reports_received == 3
        assert network.kind_count(MessageKind.SW_SAMPLE) == 2
        assert system.sites[0].known == {"b": 5, "c": 5}


class TestOneReplyPerLapse:
    """On the synchronous network, answering only a lapse's final push
    reaches what answering every push reaches, slot by slot, and saves
    exactly the replies to the other pushes."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_answer_every_push_oracle(self, seed):
        rng = np.random.default_rng(seed)
        params = dict(
            num_sites=int(rng.integers(1, 6)),
            window=int(rng.integers(2, 24)),
            sample_size=int(rng.integers(2, 7)),
            seed=seed,
        )
        system = SlidingWindowBottomSFeedback(**params)
        oracle = AnswerEveryPush(**params)
        universe = int(rng.integers(10, 80))
        schedule = random_schedule(
            rng, params["num_sites"], universe, 250, max_per_slot=8
        )
        for slot, arrivals in schedule:
            for sampler in (system, oracle):
                sampler.advance(slot)
                sampler.observe_batch(arrivals)
            assert system.sample() == oracle.sample(), slot
            # Columns keep the records' insertion order, so this checks
            # the order of known and pending too.
            assert system.state_dict()["system"] == oracle.state_dict()["system"]
            ours, theirs = system.network.stats, oracle.network.stats
            assert (
                ours.by_kind[MessageKind.SW_REPORT]
                == theirs.by_kind[MessageKind.SW_REPORT]
            )
            assert (
                theirs.by_kind[MessageKind.SW_SAMPLE]
                - ours.by_kind[MessageKind.SW_SAMPLE]
                == oracle.non_final_pushes
            ), slot
        assert oracle.non_final_pushes > 0


class TestVsLocalPush:
    def test_same_samples_different_costs(self):
        hasher = UnitHasher(11)
        feedback = SlidingWindowBottomSFeedback(
            num_sites=4, window=25, sample_size=3, hasher=hasher
        )
        push = SlidingWindowBottomS(
            num_sites=4, window=25, sample_size=3, hasher=hasher
        )
        rng = np.random.default_rng(5)
        schedule = list(random_schedule(rng, 4, 60, 600))
        for slot, arrivals in schedule:
            feedback.advance(slot)
            feedback.observe_batch(arrivals)
            push.advance(slot)
            push.observe_batch(arrivals)
            assert feedback.sample() == list(push.sample().items)
        # Both are exact; costs differ by strategy, not correctness.
        assert feedback.total_messages > 0
        assert push.total_messages > 0


class TestErrors:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlidingWindowBottomSFeedback(num_sites=0, window=5, sample_size=1)
        with pytest.raises(ConfigurationError):
            SlidingWindowBottomSFeedback(num_sites=2, window=0, sample_size=1)
        with pytest.raises(ConfigurationError):
            SlidingWindowBottomSFeedback(num_sites=2, window=5, sample_size=0)

    def test_s1_points_at_the_sliding_variant(self):
        # s = 1 is the paper's own system; the general-s core refuses it.
        with pytest.raises(ConfigurationError, match="'sliding'"):
            SlidingWindowBottomSFeedback(num_sites=2, window=5, sample_size=1)
        system = SlidingWindowBottomSFeedback(num_sites=2, window=5, sample_size=2)
        assert system.config.variant == "sliding"
        assert type(make_sampler(system.config)) is SlidingWindowBottomSFeedback

    def test_foreign_messages_rejected(self):
        system = SlidingWindowBottomSFeedback(
            num_sites=1, window=5, sample_size=2, seed=6
        )
        with pytest.raises(ProtocolError):
            system.sites[0].handle_message(
                MessageKind.THRESHOLD, 0.5, system.network
            )
        with pytest.raises(ProtocolError):
            system.coordinator.handle_message(
                MessageKind.REPORT, None, system.network
            )


class TestFactoryIntegration:
    def test_registry_dispatch(self):
        from repro.core.sliding import SlidingWindowSystem

        assert isinstance(
            make_sampler("sliding", num_sites=2, window=10), SlidingWindowSystem
        )
        assert isinstance(
            make_sampler("sliding", num_sites=2, window=10, sample_size=4),
            SlidingWindowBottomSFeedback,
        )
        assert isinstance(
            make_sampler(
                "sliding-local-push", num_sites=2, window=10, sample_size=4
            ),
            SlidingWindowBottomS,
        )


class TestRetiredVariantName:
    """``sliding-feedback`` built the same class as ``sliding`` at s >= 2
    and is no longer registered; its snapshots still restore there."""

    def test_name_is_gone_from_the_registry(self):
        with pytest.raises(ConfigurationError, match="unknown sampler variant"):
            make_sampler("sliding-feedback", num_sites=2, window=5, sample_size=3)

    @pytest.mark.parametrize(
        "retired,survivor,shards",
        [
            ("sliding-feedback", "sliding", 1),
            ("sharded:sliding-feedback", "sharded:sliding", 2),
        ],
    )
    def test_s2_plus_snapshots_restore_onto_sliding(
        self, retired, survivor, shards
    ):
        source = make_sampler(
            survivor, num_sites=3, window=9, sample_size=3, shards=shards, seed=4
        )
        schedule = list(random_schedule(np.random.default_rng(2), 3, 40, 60))
        for slot, arrivals in schedule[:30]:
            source.advance(slot)
            source.observe_batch(arrivals)
        blob = json.loads(json.dumps(snapshot(source)))
        blob["config"]["variant"] = retired
        revived = restore(blob)
        assert revived.config.variant == survivor
        assert revived.sample() == source.sample()
        assert revived.stats() == source.stats()
        for slot, arrivals in schedule[30:]:
            for system in (source, revived):
                system.advance(slot)
                system.observe_batch(arrivals)
        assert revived.state_dict() == source.state_dict()

    @pytest.mark.parametrize(
        "retired", ["sliding-feedback", "sharded:sliding-feedback"]
    )
    def test_s1_snapshots_are_a_typed_error(self, retired):
        config = SamplerConfig(
            variant=retired, num_sites=2, window=5, sample_size=1
        )
        blob = {"version": 2, "config": config.to_dict(), "state": {}}
        with pytest.raises(ConfigurationError, match="sample_size=1"):
            restore(blob)


#: Sites, shards, sample size and window of the churn stream below.
CHURN = dict(num_sites=8, shards=4, sample_size=16, window=32)


def churn_slots(slots, per_slot=512, seed=3):
    """Slots of Zipf(1.2) keys over 200,000 ids: heavy keys refresh every
    slot while the tail keeps arriving fresh, as sliding traffic does."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(np.arange(1, 200_001, dtype=np.float64) ** -1.2)
    cdf /= cdf[-1]
    for slot in range(slots):
        yield slot, np.searchsorted(cdf, rng.random(per_slot), side="right")


def churn_sampler():
    sampler = make_sampler(
        "sharded:sliding", seed=2015, algorithm="mix64", **CHURN
    )
    return sampler, Engine(sampler, policy="hash", seed=2015)


def sites_of(sampler):
    return [site for group in sampler.groups for site in group.sites]


def candidate_sets(sampler):
    return [
        node.candidates
        for group in sampler.groups
        for node in (*group.sites, group.coordinator)
    ]


class TestDeferredPruning:
    """Candidate sets prune lazily: on their growth bound or a read, never
    once per delivered run."""

    def test_sets_stay_bounded_and_settle_to_the_survivors(self):
        sampler, engine = churn_sampler()
        for step, (slot, keys) in enumerate(churn_slots(48)):
            engine.observe_batch(EventBatch(keys), slot=slot)
            # No raw list outgrows its growth bound between sweeps.
            sets = candidate_sets(sampler)
            assert all(len(ds._entries) <= ds._limit for ds in sets)
            if step % 8 != 7:
                continue
            # What a checkpoint writes is exactly the s-dominance
            # survivors of the unswept raw lists (the coordinators' read
            # expires theirs first).
            raw = [
                [(e.element, e.expiry, e.hash) for e in ds._entries]
                for ds in sets
            ]
            state = sampler.state_dict()
            written = [
                node["entries"]
                for group in state["groups"]
                for node in (*group["system"]["sites"], group["system"]["coordinator"])
            ]
            assert len(written) == len(raw) == 4 * (CHURN["num_sites"] + 1)
            s = CHURN["sample_size"]
            for i, (rows, entries) in enumerate(zip(written, raw)):
                if i % (CHURN["num_sites"] + 1) == CHURN["num_sites"]:
                    entries = [row for row in entries if row[1] > slot]
                want = brute_force_survivors(entries, s)
                assert rows == {
                    "elements": [element for element, _, _ in want],
                    "expiries": [expiry for _, expiry, _ in want],
                }

    def test_sweeps_and_recounts_stay_batched(self, monkeypatch):
        # A deterministic work count, not a timing.  Settling every set
        # after each delivered run swept 2,237 times on this stream and
        # recounted the bottom-s 290 times; pruning on the growth bound
        # and on reads sweeps 125 times, and the one-pass runs recount
        # 291 times.  Recounting on every reply (2,063 of them) would
        # exceed the recount bound.
        calls = Counter()

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(SortedDominanceSet, "_sweep")
        counted(SortedDominanceSet, "_recount")
        counted(SlidingWindowBottomSFeedback, "_deliver_columns")
        sampler, engine = churn_sampler()
        for slot, keys in churn_slots(64):
            engine.observe_batch(EventBatch(keys), slot=slot)
            sampler.sample()
        fallbacks = sum(site.fallbacks for site in sites_of(sampler))
        assert calls["_deliver_columns"] == 256
        assert (calls["_sweep"], calls["_recount"]) == (125, 291)
        assert calls["_sweep"] * 10 <= 2_237
        # Bounded by counts the delta fallback leaves alone (366 lapses +
        # 256 delivered runs here), which per-reply recounting exceeds.
        assert 0 < calls["_recount"] <= fallbacks + calls["_deliver_columns"]

    def test_lapses_push_only_what_the_coordinator_lacks(self):
        # Pushing the whole local bottom-s at every lapse sent 13,430
        # messages on this stream; re-pushing only unacknowledged entries
        # sends under a third of that from the very same 366 lapses.
        sampler, engine = churn_sampler()
        for slot, keys in churn_slots(64):
            engine.observe_batch(EventBatch(keys), slot=slot)
        assert sum(site.fallbacks for site in sites_of(sampler)) == 366
        assert sampler.total_messages <= 13_430 / 3
