"""Reader threads beside a writer, under a tiny switch interval.

Four reader threads send wildcard and ``WHERE`` queries under fresh
and bounded-lag policies while one writer applies batches through the
server.  The writer records the store's state for every publication it
makes; afterwards each answer must equal the brute-force reference on
the state of the publication it reports (``EpochAnswer.seq``).  No
reader may evaluate on a reclaimed epoch, and no pin may outlive its
read.
"""

import random
import sys
import threading
import time

from repro.gsdb import ObjectStore
from repro.gsdb.database import DatabaseRegistry
from repro.gsdb.indexes import ParentIndex
from repro.gsdb.updates import Delete, Insert, Modify
from repro.query.parser import parse_query
from repro.serving import EpochServer
from tests.property.support import build_store, reference_answer

QUERIES = (
    "SELECT root0.* X WHERE X.b > 40",
    "SELECT root0.*.c X",
    "SELECT root0.?.b X",
    "SELECT root0.a X WHERE X.c < 50",
    "SELECT root0.a.* X",
    "SELECT root0.* X WHERE X.a > 20 AND X.c < 80",
)
POLICIES = ("fresh", 1, 2, "any")
READERS = 4
BATCHES = 40


def copy_of(store: ObjectStore) -> ObjectStore:
    """A detached copy of *store*'s objects (what one epoch froze)."""
    copy = ObjectStore(check_references=False)
    for oid in sorted(store.oids()):
        obj = store.peek(oid)
        if obj.is_set:
            copy.add_set(oid, obj.label, sorted(obj.children()))
        else:
            copy.add_atomic(oid, obj.label, obj.atomic_value())
    return copy


def draw_batch(store: ObjectStore, rng: random.Random) -> list:
    sets = sorted(oid for oid in store.oids() if store.peek(oid).is_set)
    atoms = sorted(oid for oid in store.oids() if not store.peek(oid).is_set)
    batch = []
    for _ in range(3):
        op = rng.randrange(3)
        parent = rng.choice(sets)
        children = store.peek(parent).children()
        if op == 0:
            child = rng.choice(sets + atoms)
            if child not in children and all(
                u != Insert(parent, child) for u in batch
            ):
                batch.append(Insert(parent, child))
        elif op == 1 and children:
            child = rng.choice(sorted(children))
            if all(getattr(u, "child", None) != child for u in batch):
                batch.append(Delete(parent, child))
        elif op == 2:
            atom = rng.choice(atoms)
            if all(getattr(u, "oid", None) != atom for u in batch):
                old = store.peek(atom).atomic_value()
                batch.append(Modify(atom, old, rng.randint(0, 100)))
    return batch


def test_readers_beside_a_writer_answer_their_epochs():
    store, _ = build_store(3, 40)
    registry = DatabaseRegistry(store)
    server = EpochServer(
        registry, parent_index=ParentIndex(store), retention_capacity=2,
        cache_size=4,
    )
    states: dict[int, ObjectStore] = {}
    with server.write_mutex:
        states[server.checkpoint().seq] = copy_of(store)

    pinned = threading.local()
    bad_epochs: list = []
    pin, evaluate = server.retention.pin, server._evaluate_on_epoch

    def pin_and_remember(entry):
        ok = pin(entry)
        if ok:
            pinned.entry = entry
        return ok

    def evaluate_checked(view, query, entry_oid):
        entry = pinned.entry
        if entry.view is not view or entry.reclaimed:
            bad_epochs.append(entry)
        answer = evaluate(view, query, entry_oid)
        if entry.reclaimed:
            bad_epochs.append(entry)
        return answer

    server.retention.pin = pin_and_remember
    server._evaluate_on_epoch = evaluate_checked

    served: list = []
    errors: list = []

    written = threading.Event()

    def reader(seed: int) -> None:
        rng = random.Random(seed)
        try:
            while not written.is_set():
                text = rng.choice(QUERIES)
                answer = server.read(text, rng.choice(POLICIES))
                served.append((text, answer))
        except Exception as exc:  # surfaced after the join
            errors.append(exc)

    def writer() -> None:
        rng = random.Random(11)
        try:
            for _ in range(BATCHES):
                with server.write_mutex:
                    server.apply_batch(draw_batch(store, rng))
                    states[server.retention.latest().seq] = copy_of(store)
                time.sleep(0.002)  # let readers see this epoch
        except Exception as exc:
            errors.append(exc)
        finally:
            written.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(seed,))
            for seed in range(READERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)

    assert not errors, errors
    assert not bad_epochs
    assert all(entry.pins == 0 for entry in server.retention.entries())
    assert {answer.source for _, answer in served} >= {
        "kernel", "carry", "epoch-cache"
    }
    assert len({answer.seq for _, answer in served}) > BATCHES // 2
    references: dict = {}
    for text, answer in served:
        key = (text, answer.seq)
        if key not in references:
            state = states[answer.seq]
            references[key] = reference_answer(
                state, DatabaseRegistry(state), parse_query(text)
            )
        assert answer.oids == references[key], (text, answer)
    report = server.freshness_report()
    assert report["violations"] == 0
    assert report["reads"] == len(served)
