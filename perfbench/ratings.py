"""Seeded synthetic rating log with the MovieLens-100k shape.

``gen-synth`` emits only graphs, so the recommender workload draws its log
here: 943 users, 1682 items, 100k timestamped ratings, written as
``user<TAB>item<TAB>rating<TAB>timestamp`` lines with unique (user, item)
pairs, the format ``load_interaction_dataset`` parses.

Users and items are planted in clusters, and a user's items are drawn mostly
from its own cluster, at every point in its timeline. The held-out (latest)
items of a user therefore co-occur with its training items, so the
item-similarity recommender's top-K' hits them.
"""
from __future__ import annotations

import numpy as np

USERS = 943
ITEMS = 1682
CLUSTERS = 12
IN_CLUSTER_WEIGHT = 20.0  # relative weight of an in-cluster item
RATINGS = 100_000
MIN_RATINGS = 20  # MovieLens-100k keeps users with >= 20 ratings
FIRST_TIMESTAMP = 874_724_710


def _activity_degrees() -> np.ndarray:
    """Ratings per user: 20 plus exponential quantiles, summing to RATINGS."""
    quantiles = -np.log1p(-(np.arange(USERS) + 0.5) / USERS)
    share = quantiles / quantiles.sum() * (RATINGS - MIN_RATINGS * USERS)
    extra = np.floor(share).astype(np.int64)
    short = RATINGS - MIN_RATINGS * USERS - int(extra.sum())
    extra[np.argsort(extra - share, kind="stable")[:short]] += 1
    return MIN_RATINGS + extra


def generate_ratings(seed: int) -> list[tuple[int, int, int, int]]:
    """(user id, item id, rating, timestamp) records, ids 1-based, for ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # Equal cluster sizes and one fixed multiset of user activities, dealt
    # out by the seed, so that every seed asks for about the same work.
    user_cluster = rng.permutation(np.arange(USERS) % CLUSTERS)
    item_cluster = rng.permutation(np.arange(ITEMS) % CLUSTERS)
    popularity = (1.0 / np.arange(1, ITEMS + 1) ** 0.8)[rng.permutation(ITEMS)]
    degrees = _activity_degrees()[rng.permutation(USERS)]

    chosen = []
    for u in range(USERS):
        weight = popularity * np.where(item_cluster == user_cluster[u],
                                       IN_CLUSTER_WEIGHT, 1.0)
        chosen.append(rng.choice(ITEMS, size=degrees[u], replace=False,
                                 p=weight / weight.sum()))

    # Give every item at least one rating, so the log keeps all 1682 items.
    rated = np.zeros(ITEMS, dtype=bool)
    for items in chosen:
        rated[items] = True
    for item in np.flatnonzero(~rated):
        members = np.flatnonzero(user_cluster == item_cluster[item])
        u = members[rng.integers(members.size)] if members.size else rng.integers(USERS)
        chosen[u] = np.append(chosen[u], item)

    records = []
    for u, items in enumerate(chosen):
        start = FIRST_TIMESTAMP + int(rng.integers(0, 10_000_000))
        stamps = start + np.cumsum(rng.integers(1, 5_000, size=items.size))
        stars = rng.integers(1, 6, size=items.size)
        records.extend((u + 1, int(i) + 1, int(s), int(t))
                       for i, s, t in zip(items, stars, stamps))
    return records


def write_ratings(records, path) -> None:
    """Write records in the tab-separated four-field rating-log format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in records)
