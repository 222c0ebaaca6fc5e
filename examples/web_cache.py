"""Web-page caching: the paper's Section 1 motivation.

"Say that a user is interested in all Web pages containing the word
'flower' and would like to copy them to his local disk for faster
access."  We model a site as a GSDB (pages with word/url children),
define a materialized view selecting the flower pages, copy it into a
separate "local disk" store, swizzle the inter-page links so cached
pages reference each other locally, and keep the cache fresh while the
site changes.

Run:  python examples/web_cache.py
"""

from repro.gsdb import DatabaseRegistry, ObjectStore, ParentIndex
from repro.query import QueryEvaluator
from repro.views import (
    ExtendedViewMaintainer,
    MaterializedView,
    ViewDefinition,
    check_consistency,
    populate_view,
)
from repro.workloads import web_db


def flower_pages(store, root) -> set[str]:
    return QueryEvaluator(DatabaseRegistry(store)).evaluate_oids(
        f"SELECT {root}.*.page X WHERE X.word = 'flower'"
    )


def main() -> None:
    site, root = web_db(pages=40, words_per_page=4, seed=21)
    print(f"site has {sum(1 for o in site.scan() if o.label == 'page')} pages")

    # The cache lives in its own store: the user's "local disk".
    local_disk = ObjectStore()
    definition = ViewDefinition.parse(
        f"define mview FLOWERS as: SELECT {root}.*.page X "
        "WHERE X.word = 'flower'"
    )
    cache = MaterializedView(definition, site, local_disk)
    populate_view(cache)
    print(f"cached flower pages: {sorted(cache.members())}")

    # Swizzle: links between cached pages now point at local copies.
    rewritten = cache.swizzle_all()
    print(f"swizzled {rewritten} inter-page links to local copies")

    # Keep the cache fresh as the site changes (wildcard view -> the
    # extended maintainer of paper Section 6).
    index = ParentIndex(site)
    site.subscribe(ExtendedViewMaintainer(cache, parent_index=index).handle)

    # A page gains the word 'flower': it enters the cache.
    site.add_atomic("w_new", "word", "flower")
    site.insert_edge("page7", "w_new")
    print(f"page7 now cached: {cache.contains('page7')}")

    # An author rewrites a word on a cached page: copy refreshed or
    # evicted depending on whether 'flower' remains.
    flower_words = [
        oid
        for oid in site.get("page7").sorted_children()
        if site.get(oid).label == "word"
        and site.get(oid).value == "flower"
    ]
    for word in flower_words:
        site.modify_value(word, "concrete")
    print(f"page7 still cached after edits: {cache.contains('page7')}")

    # A whole subtree of pages is unlinked from the site.
    removed_child = next(
        child
        for child in site.get("page0").sorted_children()
        if site.get(child).label == "page"
    )
    site.delete_edge("page0", removed_child)
    print(f"unlinked subtree under {removed_child}; "
          f"cache now has {len(cache)} pages")

    # Validate the cache against ground truth.
    truth = flower_pages(site, root)
    assert cache.members() == truth, "cache diverged from site!"
    assert check_consistency(cache).ok
    print("cache verified against a full site crawl")


if __name__ == "__main__":
    main()
