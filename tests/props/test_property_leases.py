"""Property test: the lease state machine loses nothing, counts once.

The distributed campaign's correctness argument has two halves: the
:class:`~repro.engine.coordination.LeaseBook` guarantees every batch is
eventually executable (expired leases requeue, done batches never
regrant, a batch is never live-leased twice), and the lease executor's
key-deduplicated fold guarantees a batch executed twice (a requeue
whose presumed-dead worker later delivers) counts once.  This property
drives random interleavings of lease / complete / abandon / clock-
advance / add operations - the abandon op is a silently dying worker,
the add op the engine dispatching its next wave while earlier batches
are leased or expired - and checks both halves against a model, then
proves the drain: however the interleaving went, a recovery pass always
completes the campaign with every spec counted exactly once.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.engine.coordination import LeaseBook

TIMEOUT = 10.0

ops = st.lists(
    st.one_of(
        st.tuples(st.just("lease"), st.integers(0, 3)),
        st.tuples(st.just("complete"), st.integers(0, 7)),
        st.tuples(st.just("abandon"), st.integers(0, 7)),
        st.tuples(st.just("advance"), st.integers(1, 15)),
        st.tuples(st.just("add"), st.integers(1, 3)),
    ),
    max_size=50,
)


@settings(deadline=None, max_examples=200)
@given(n_batches=st.integers(0, 5), sequence=ops)
def test_no_spec_lost_or_double_counted(n_batches, sequence):
    specs: dict[int, list[str]] = {}
    book = LeaseBook((), lease_timeout=TIMEOUT)

    def add_batch() -> None:
        bid = len(specs)
        specs[bid] = [f"batch{bid}-spec{j}" for j in range(3)]
        book.add(bid)

    for _ in range(n_batches):
        add_batch()
    now = 0.0
    seen: set[str] = set()  # the coordinator's key-dedup
    tallied: dict[str, int] = {}  # times a key was *accepted* into the fold
    live: list[tuple[int, float]] = []  # outstanding grants (incl. stale)
    acked: set[int] = set()

    def fold_submission(bid: int) -> None:
        """A worker submits its batch: first delivery of a key is
        tallied, duplicates are dropped, then the batch is acked -
        exactly ``LeaseExecutor.submit``'s fold."""
        for key in specs[bid]:
            if key in seen:
                continue
            seen.add(key)
            tallied[key] = tallied.get(key, 0) + 1
        first = book.ack(bid, now)
        assert first == (bid not in acked)  # ack fires exactly once
        acked.add(bid)

    for op, arg in sequence:
        if op == "advance":
            now += float(arg)
        elif op == "add":
            for _ in range(arg):
                add_batch()
        elif op == "lease":
            bid = book.lease(f"w{arg}", now)
            if bid is not None:
                assert bid not in acked  # done batches never regrant
                for other, granted_at in live:
                    if other == bid:  # regrant only after expiry
                        assert now >= granted_at + TIMEOUT
                live.append((bid, now))
        elif live:  # complete / abandon an outstanding grant
            bid, granted_at = live.pop(arg % len(live))
            if op == "complete":
                # Late delivery from an expired lease is accepted: the
                # work is real and the fold dedups it.
                fold_submission(bid)

    # The drain property: whatever happened above, a recovery worker
    # that outlives every lease deadline finishes the campaign.
    rounds = 0
    while not book.all_done:
        now += TIMEOUT
        bid = book.lease("recovery", now)
        assert bid is not None, "not done, yet nothing grantable: lost batch"
        fold_submission(bid)
        rounds += 1
        assert rounds <= 2 * len(specs), "drain did not converge"

    every_key = {key for keys in specs.values() for key in keys}
    assert set(tallied) == every_key  # nothing lost
    assert all(count == 1 for count in tallied.values())  # nothing doubled
    assert book.done == len(specs)
    assert book.pending == book.leased == 0
