"""Resource and Store queueing semantics."""

import pytest

from repro.sim import Resource, Store


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_grant_within_capacity_is_immediate(self, sim):
        resource = Resource(sim, capacity=2)

        def body(sim, resource):
            yield resource.request()
            return sim.now

        assert sim.run_process(body(sim, resource)) == 0.0

    def test_fifo_over_capacity(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def user(sim, resource, name, hold):
            yield resource.request()
            order.append((name, sim.now))
            yield sim.timeout(hold)
            resource.release()

        sim.process(user(sim, resource, "first", 2.0))
        sim.process(user(sim, resource, "second", 1.0))
        sim.process(user(sim, resource, "third", 1.0))
        sim.run()
        assert order == [("first", 0.0), ("second", 2.0), ("third", 3.0)]

    def test_release_without_request_rejected(self, sim):
        resource = Resource(sim)
        with pytest.raises(RuntimeError):
            resource.release()

    def test_release_hands_slot_directly(self, sim):
        resource = Resource(sim, capacity=1)

        def holder(sim, resource):
            yield resource.request()
            yield sim.timeout(1)
            resource.release()

        def waiter(sim, resource):
            yield resource.request()
            in_use = resource.in_use
            resource.release()
            return in_use

        sim.process(holder(sim, resource))
        waiter_proc = sim.process(waiter(sim, resource))
        sim.run()
        # Slot moved holder -> waiter without dipping to zero.
        assert waiter_proc.value == 1

    def test_queue_length_tracks_waiters(self, sim):
        resource = Resource(sim, capacity=1)

        def user(sim, resource):
            yield resource.request()
            yield sim.timeout(5)
            resource.release()

        for _ in range(4):
            sim.process(user(sim, resource))
        sim.run(until=1.0)
        assert resource.in_use == 1
        assert resource.queue_length == 3

    def test_claim_takes_a_free_slot_without_an_event(self, sim):
        resource = Resource(sim, capacity=2)
        assert resource.claim() is None
        assert resource.claim() is None
        assert resource.in_use == 2
        sim.run()
        assert sim.events_executed == 0

    def test_claim_queues_a_fifo_grant_when_busy(self, sim):
        resource = Resource(sim, capacity=1)
        assert resource.claim() is None
        first = resource.claim()
        second = resource.claim()
        assert resource.queue_length == 2
        assert not first.triggered
        resource.release()
        assert first.triggered and first.value is resource
        assert not second.triggered
        assert resource.in_use == 1

    def test_cancel_withdraws_a_queued_grant(self, sim):
        resource = Resource(sim, capacity=1)
        held = resource.request()
        queued = resource.claim()
        assert resource.cancel(queued) is True
        assert resource.queue_length == 0
        resource.release()
        assert resource.in_use == 0
        assert not queued.triggered
        # Already granted, or never queued here: nothing to withdraw.
        assert resource.cancel(held) is False
        assert resource.cancel(queued) is False

    def test_waiter_queue_allocated_on_first_contention(self, sim):
        resource = Resource(sim, capacity=1)
        other = Resource(sim, capacity=1)
        assert other.claim() is None
        stray = other.claim()  # a grant queued on another resource
        assert resource.claim() is None
        resource.release()
        sim.run_process(self._hold(sim, resource))
        # Never contended: no queue, and nothing to cancel.
        assert resource._waiters is None
        assert resource.queue_length == 0
        assert resource.cancel(stray) is False
        assert resource._waiters is None
        resource.release()
        assert resource.claim() is None
        queued = resource.claim()
        assert resource._waiters is not None
        assert resource.queue_length == 1
        assert resource.cancel(queued) is True

    @staticmethod
    def _hold(sim, resource):
        yield resource.request()
        yield sim.timeout(1.0)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def producer(sim, store):
            yield store.put("item")

        def consumer(sim, store):
            item = yield store.get()
            return item

        sim.process(producer(sim, store))
        consumer_proc = sim.process(consumer(sim, store))
        sim.run()
        assert consumer_proc.value == "item"

    def test_get_parks_until_put(self, sim):
        store = Store(sim)

        def consumer(sim, store):
            item = yield store.get()
            return item, sim.now

        def producer(sim, store):
            yield sim.timeout(5)
            yield store.put("late")

        consumer_proc = sim.process(consumer(sim, store))
        sim.process(producer(sim, store))
        sim.run()
        assert consumer_proc.value == ("late", 5.0)

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        received = []

        def producer(sim, store):
            for index in range(5):
                yield store.put(index)

        def consumer(sim, store):
            for _ in range(5):
                item = yield store.get()
                received.append(item)

        sim.process(producer(sim, store))
        sim.process(consumer(sim, store))
        sim.run()
        assert received == [0, 1, 2, 3, 4]

    def test_capacity_blocks_putter(self, sim):
        store = Store(sim, capacity=1)
        times = []

        def producer(sim, store):
            for index in range(2):
                yield store.put(index)
                times.append(sim.now)

        def consumer(sim, store):
            yield sim.timeout(3)
            yield store.get()

        sim.process(producer(sim, store))
        sim.process(consumer(sim, store))
        sim.run()
        # Second put only completed once the consumer drained one item.
        assert times[0] == 0.0
        assert times[1] == pytest.approx(3.0)

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)

    def test_filtered_get_skips_non_matching(self, sim):
        store = Store(sim)

        def producer(sim, store):
            yield store.put(("b", 1))
            yield store.put(("a", 2))

        def consumer(sim, store):
            item = yield store.get(lambda i: i[0] == "a")
            return item

        sim.process(producer(sim, store))
        consumer_proc = sim.process(consumer(sim, store))
        sim.run()
        assert consumer_proc.value == ("a", 2)
        # The non-matching item stays queued.
        assert len(store) == 1

    def test_filtered_get_preserves_order_for_others(self, sim):
        store = Store(sim)
        got = []

        def producer(sim, store):
            for item in [("x", 1), ("y", 2), ("x", 3)]:
                yield store.put(item)

        def picky(sim, store):
            item = yield store.get(lambda i: i[0] == "y")
            got.append(("picky", item))

        def greedy(sim, store):
            for _ in range(2):
                item = yield store.get()
                got.append(("greedy", item))

        sim.process(producer(sim, store))
        sim.process(picky(sim, store))
        sim.process(greedy(sim, store))
        sim.run()
        assert ("picky", ("y", 2)) in got
        greedy_items = [item for who, item in got if who == "greedy"]
        assert greedy_items == [("x", 1), ("x", 3)]

    def test_waiting_counters(self, sim):
        store = Store(sim)

        def consumer(sim, store):
            yield store.get()

        sim.process(consumer(sim, store))
        sim.run()  # drains: consumer parked
        assert store.waiting_getters == 1
        assert store.waiting_putters == 0
