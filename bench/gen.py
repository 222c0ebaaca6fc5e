"""Seeded inputs for the ``catalog-64x32`` base, and the model that
says what the library's answers must be.

Nothing here imports the library: the generator emits plain tuples and
query strings, and :mod:`sut` turns them into library objects before
the clock starts.  The same seed always gives the same inputs.

The base is ``root`` -> 64 category sets labelled ``c0``..``c63`` (OIDs
``C0``..``C63``) -> ``item`` sets -> atoms ``price`` and ``stock`` plus
a ``review`` set holding one ``score`` atom: five objects per item.

The generator keeps its own *census* of the base -- the live items of
each category and the three atom values of each item -- so producing an
update is O(1), and so every answer the library gives can be checked
against a model that shares no code with it.
"""

from __future__ import annotations

import bisect
import heapq
import operator
import random
from dataclasses import dataclass

CATEGORIES = 64
FIELDS = ("price", "stock", "score")
#: OID suffix of each object of an item's subtree.
SUFFIX = {"item": "", "price": "p", "stock": "s", "review": "r", "score": "rs"}
_FIELD_PATH = {
    "price": "X.price", "stock": "X.stock", "score": "X.review.score", "self": "X",
}
_OPS = {
    ">": operator.gt, ">=": operator.ge, "<": operator.lt,
    "<=": operator.le, "=": operator.eq,
}
ALL = tuple(range(CATEGORIES))

#: Update mixes: the share of modifies; the rest splits evenly between
#: inserts and deletes.
STREAM_MODIFY_SHARE = 0.6
BATCH_MODIFY_SHARE = 0.3
#: Per generated batch slot: chance of starting a flip pair (an insert
#: whose delete follows within the batch) or of re-modifying an atom the
#: batch already modified.  Both coalesce away; together ~10 % of a batch.
FLIP_CHANCE = 0.035
CHAIN_CHANCE = 0.035


@dataclass(frozen=True)
class QuerySpec:
    """A query string plus what the model needs to answer it."""

    text: str
    cats: tuple[int, ...]  # categories whose live items the path reaches
    select: str  # which object of each item is selected (a SUFFIX key)
    cond: tuple | None  # ("cmp", field, op, value) | ("and"|"or", a, b)


def _render(cond: tuple) -> str:
    if cond[0] == "cmp":
        _, name, op, value = cond
        return f"{_FIELD_PATH[name]} {op} {value}"
    return f"{_render(cond[1])} {cond[0].upper()} {_render(cond[2])}"


def _holds(cond: tuple, values: list[int], own: int | None) -> bool:
    if cond[0] == "cmp":
        _, name, op, value = cond
        left = own if name == "self" else values[FIELDS.index(name)]
        return _OPS[op](left, value)
    if cond[0] == "and":
        return _holds(cond[1], values, own) and _holds(cond[2], values, own)
    return _holds(cond[1], values, own) or _holds(cond[2], values, own)


def query(path: str, cats: tuple[int, ...], select: str, cond: tuple | None) -> QuerySpec:
    text = f"SELECT {path} X"
    if cond is not None:
        text += f" WHERE {_render(cond)}"
    return QuerySpec(text, cats, select, cond)


def cmp(name: str, op: str, value: int) -> tuple:
    return ("cmp", name, op, value)


class Generator:
    """One seed's inputs.  Sub-streams are seeded by purpose, so every
    workload of a seed starts from the identical base."""

    def __init__(self, seed: int, items_per_category: int = 32) -> None:
        self.seed = seed
        self.items_per_category = items_per_category
        self.live: list[list[str]] = [[] for _ in range(CATEGORIES)]
        self.slot: dict[str, int] = {}  # live item -> index in its category
        self.values: dict[str, list[int]] = {}  # live item -> FIELDS values
        self.serial = 0
        self.rng = self.rng_for("base")
        # Category popularity is Zipf(1.0) over a fixed ranking (c0, c37,
        # c10, ...): which categories are hot decides how many views an
        # update reaches, and that must not change with the seed.
        self._ranked_cats = [(rank * 37) % CATEGORIES for rank in ALL]
        self._cat_cum = _zipf_cumulative(CATEGORIES, 1.0)

    def rng_for(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}:{purpose}")

    # -- base and views ---------------------------------------------------

    def base_spec(self) -> tuple:
        """The whole base as one ``add_tree`` spec; fills the census."""
        categories = []
        for cat in range(CATEGORIES):
            items = []
            for _ in range(self.items_per_category):
                item, spec = self._new_item()
                self._attach(cat, item, spec)
                items.append(spec)
            categories.append((f"C{cat}", f"c{cat}", items))
        return ("root", "root", categories)

    def views(self) -> list[tuple[str, QuerySpec]]:
        """64 materialized views: 48 with disjoint prefixes, 12 sharing
        the prefixes of c0..c3 (the shape a discrimination network would
        factor), 4 wildcard ones that every category's updates reach."""
        out = []
        for cat in range(4, 52):
            out.append((f"P{cat}", query(
                f"root.c{cat}.item", (cat,), "item", cmp("price", ">", 50))))
        shared = [("price", ">", 25), ("stock", "<", 40), ("score", ">=", 60)]
        for j in range(12):
            cat, (name, op, value) = j % 4, shared[j // 4]
            out.append((f"S{j}", query(
                f"root.c{cat}.item", (cat,), "item", cmp(name, op, value + 5 * cat))))
        for j in range(4):
            out.append((f"W{j}", query(
                "root.?.item", ALL, "item", cmp("price", ">", 90 + j))))
        return out

    # -- census -----------------------------------------------------------

    def _new_item(self) -> tuple[str, tuple]:
        item = f"i{self.serial}"
        self.serial += 1
        price, stock, score = (self.rng.randrange(100) for _ in FIELDS)
        spec = (item, "item", [
            (item + "p", "price", price),
            (item + "s", "stock", stock),
            (item + "r", "review", [(item + "rs", "score", score)]),
        ])
        return item, spec

    def _attach(self, cat: int, item: str, spec: tuple) -> None:
        children = spec[2]
        self.values[item] = [children[0][2], children[1][2], children[2][2][0][2]]
        self.slot[item] = len(self.live[cat])
        self.live[cat].append(item)

    def _detach(self, cat: int, item: str) -> None:
        live = self.live[cat]
        index = self.slot.pop(item)
        last = live.pop()
        if last != item:
            live[index] = last
            self.slot[last] = index
        del self.values[item]

    def _category(self) -> int:
        point = self.rng.random() * self._cat_cum[-1]
        return self._ranked_cats[bisect.bisect_right(self._cat_cum, point)]

    def answer(self, spec: QuerySpec) -> frozenset[str]:
        """What *spec* must return on the base as the census has it."""
        suffix = SUFFIX[spec.select]
        own_index = FIELDS.index(spec.select) if spec.select in FIELDS else None
        out = []
        for cat in spec.cats:
            for item in self.live[cat]:
                values = self.values[item]
                own = None if own_index is None else values[own_index]
                if spec.cond is None or _holds(spec.cond, values, own):
                    out.append(item + suffix)
        return frozenset(out)

    def expected_extents(self) -> dict[str, list[str]]:
        return {name: sorted(self.answer(spec)) for name, spec in self.views()}

    # -- updates ----------------------------------------------------------

    def _plain(self, modify_share: float):
        """One update against the census.  Returns the update tuple and,
        for a modify, the (item, field index) it touched."""
        cat = self._category()
        live = self.live[cat]
        rng = self.rng
        if live and rng.random() < modify_share:
            item = live[rng.randrange(len(live))]
            index = rng.randrange(len(FIELDS))
            return self._modify(item, index), (item, index)
        # Inserts and deletes are equally likely, but a category is kept
        # between half and one-and-a-half times its initial size so the
        # base, and with it the cost of an update, stays stationary.
        size, start = len(live), self.items_per_category
        if size <= start // 2 or (size < start * 3 // 2 and rng.random() < 0.5):
            item, spec = self._new_item()
            self._attach(cat, item, spec)
            return ("insert", f"C{cat}", item, spec), None
        item = live[rng.randrange(size)]
        self._detach(cat, item)
        return ("delete", f"C{cat}", item), None

    def _modify(self, item: str, index: int) -> tuple:
        values = self.values[item]
        old = values[index]
        new = self.rng.randrange(99)
        if new >= old:
            new += 1
        values[index] = new
        return ("modify", item + SUFFIX[FIELDS[index]], old, new)

    def stream(self, count: int, modify_share: float = STREAM_MODIFY_SHARE) -> list[tuple]:
        return [self._plain(modify_share)[0] for _ in range(count)]

    def batch(self, size: int, modify_share: float = BATCH_MODIFY_SHARE) -> list[tuple]:
        """*size* updates, valid when applied in order, ~10 % of which
        coalesce away (flip pairs cancel, modify chains fold)."""
        rng = self.rng
        out: list[tuple] = []
        due: list[tuple[int, int, tuple]] = []  # (position, tiebreak, delete)
        touched: list[tuple[str, int]] = []
        while len(out) + len(due) < size:
            if due and due[0][0] <= len(out):
                out.append(heapq.heappop(due)[2])
                continue
            roll = rng.random()
            if roll < FLIP_CHANCE and len(out) + len(due) + 2 <= size:
                cat = self._category()
                item, spec = self._new_item()  # never enters the census
                out.append(("insert", f"C{cat}", item, spec))
                heapq.heappush(due, (
                    len(out) + rng.randrange(1, 8), len(out), ("delete", f"C{cat}", item)))
            elif roll < FLIP_CHANCE + CHAIN_CHANCE and touched:
                item, index = touched[rng.randrange(len(touched))]
                if item in self.slot:
                    out.append(self._modify(item, index))
            else:
                update, touch = self._plain(modify_share)
                out.append(update)
                if touch is not None:
                    touched.append(touch)
        out.extend(entry[2] for entry in sorted(due))
        return out

    # -- queries ----------------------------------------------------------

    def cold_pool(self) -> list[QuerySpec]:
        """4,096 distinct queries, 64 *slots* for each category (entry
        ``64 * cat + slot``): constant paths with one or two comparisons
        (slots 0-39), subtree-entry paths (40-55), ``*`` below the
        category (56-62) and one ``?`` over the whole base (63)."""
        pool = []
        for cat in ALL:
            for t in range(24):
                pool.append(query(f"root.c{cat}.item", (cat,), "item",
                                  cmp("price", ">", 4 * t + 2)))
            for t in range(16):
                pool.append(query(f"root.c{cat}.item", (cat,), "item", (
                    "and", cmp("price", ">", 6 * t), cmp("stock", "<", 99 - 5 * t))))
            for t in range(16):
                pool.append(query(f"C{cat}.item", (cat,), "item",
                                  cmp("score", ">=", 6 * t + 3)))
            for t in range(7):
                pool.append(query(f"C{cat}.*.score", (cat,), "score",
                                  cmp("self", ">", 13 * t + 5)))
            pool.append(query("root.?.item", ALL, "item", (
                "and", cmp("price", ">", 95), cmp("stock", "<", cat + 1))))
        assert len(pool) == len({q.text for q in pool}) == 4096
        return pool

    def serve_pool(self) -> list[QuerySpec]:
        """512 distinct queries (8 shapes x 64 categories): four times
        the serving tier's cache, in a fixed popularity order that
        spreads shapes and categories over the ranks."""
        pool = []
        for cat in ALL:
            one = (cat,)
            pool += [
                query(f"root.c{cat}.item", one, "item", cmp("price", ">", 50)),
                query(f"root.c{cat}.item", one, "item", cmp("stock", "<", 30)),
                query(f"root.c{cat}.item", one, "item", cmp("score", ">=", 70)),
                query(f"root.c{cat}.item", one, "item", (
                    "and", cmp("price", ">", 40), cmp("stock", ">", 40))),
                query(f"root.c{cat}.item.price", one, "price", None),
                query(f"root.c{cat}.?", one, "item", None),
                query(f"C{cat}.*.score", one, "score", cmp("self", ">", 60)),
                query(f"C{cat}.item", one, "item", (
                    "or", cmp("price", "<=", 20), cmp("stock", ">=", 90))),
            ]
        return [pool[(rank * 197) % len(pool)] for rank in range(len(pool))]


def _zipf_cumulative(n: int, exponent: float) -> list[float]:
    total, out = 0.0, []
    for rank in range(1, n + 1):
        total += 1.0 / rank**exponent
        out.append(total)
    return out


class ZipfPicker:
    """Draws indices 0..n-1 with Zipf(*exponent*) popularity by rank."""

    def __init__(self, n: int, exponent: float, rng: random.Random) -> None:
        self._cum = _zipf_cumulative(n, exponent)
        self._rng = rng

    def pick(self) -> int:
        point = self._rng.random() * self._cum[-1]
        return bisect.bisect_right(self._cum, point)


def poisson_times(rng: random.Random, rate: float, count: int) -> list[float]:
    """Arrival offsets (seconds) of *count* requests at *rate* per second."""
    now, out = 0.0, []
    for _ in range(count):
        now += rng.expovariate(rate)
        out.append(now)
    return out
