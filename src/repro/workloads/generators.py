"""Object-size ladders and access-pattern generators from §6/§7."""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.common.rng import make_rng

#: Fig. 1 / Fig. 9 object sizes (bytes).
FIG1_SIZES: Sequence[int] = (128, 256, 512, 1024, 2048, 4096, 8192)
#: Fig. 7 object sizes (starts at one cache block).
FIG7_SIZES: Sequence[int] = (64, 128, 256, 512, 1024, 2048, 4096, 8192)
#: Fig. 8 studies three representative sizes.
FIG8_SIZES: Sequence[int] = (128, 1024, 8192)

#: Key-popularity distributions :func:`make_picker` builds.
DISTRIBUTIONS = ("uniform", "zipfian")


class UniformPicker:
    """Readers access all objects uniformly at random (§7.2)."""

    def __init__(self, object_ids: Sequence[int], seed: int, label: object = ""):
        if not object_ids:
            raise ValueError("need at least one object")
        # Kept as given, not copied: ``make_picker`` hands every picker
        # of a run the same ``range``.
        self._ids = object_ids
        self._rng = make_rng(seed, "uniform", label)

    def pick(self) -> int:
        return self._rng.choice(self._ids)


class CrewPartition:
    """Concurrent-Reads-Exclusive-Writes (§7.2, after MICA [25]):
    each writer repeatedly updates a predefined disjoint subset."""

    def __init__(self, object_ids: Sequence[int], writers: int):
        if writers < 0:
            raise ValueError(f"writer count must be >= 0: {writers}")
        self._subsets: List[List[int]] = [[] for _ in range(max(writers, 1))]
        if writers > 0:
            for idx, obj in enumerate(object_ids):
                self._subsets[idx % writers].append(obj)

    def subset(self, writer_id: int) -> List[int]:
        return list(self._subsets[writer_id])


class ZipfianPicker:
    """Zipf-distributed object picker.

    The paper's motivation (§1) is large-scale online services, whose
    key popularity is famously skewed; YCSB's default is Zipfian with
    theta ~ 0.99.  Used by the skew ablation to study hot-object
    conflict behavior beyond the paper's uniform microbenchmark.

    Sampling uses a precomputed **alias table** (Vose's method): O(n)
    construction, then O(1) per draw with exactly one ``rng.random()``
    call.  The chi-squared tests pin the table against the analytic
    Zipf probabilities.
    """

    def __init__(
        self,
        object_ids: Sequence[int],
        seed: int,
        theta: float = 0.99,
        label: object = "",
    ):
        if not object_ids:
            raise ValueError("need at least one object")
        if not 0.0 < theta < 2.0:
            raise ValueError(f"theta out of range: {theta}")
        self._ids = object_ids
        self._rng = make_rng(seed, "zipfian", theta, label)
        n = len(self._ids)
        weights = [1.0 / math.pow(rank, theta) for rank in range(1, n + 1)]
        total = 0.0
        self._cdf: List[float] = []
        for w in weights:
            total += w
            self._cdf.append(total)
        self._total = total
        # Vose alias construction: scale each probability by n, split
        # into sub-unit ("small") and super-unit ("large") columns, and
        # let each column donate its excess to fill one small column.
        scaled = [w * n / total for w in weights]
        prob = [0.0] * n
        alias = [0] * n
        small = [i for i, s in enumerate(scaled) if s < 1.0]
        large = [i for i, s in enumerate(scaled) if s >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            prob[s] = scaled[s]
            alias[s] = g
            scaled[g] = (scaled[g] + scaled[s]) - 1.0
            if scaled[g] < 1.0:
                small.append(g)
            else:
                large.append(g)
        for i in large:
            prob[i] = 1.0
        for i in small:  # float-residue leftovers: probability ~1
            prob[i] = 1.0
        self._prob = prob
        self._alias = alias

    def pick(self) -> int:
        # One uniform draw supplies both the column and the coin flip.
        u = self._rng.random() * len(self._ids)
        i = int(u)
        if u - i < self._prob[i]:
            return self._ids[i]
        return self._ids[self._alias[i]]

    def hot_fraction(self, top_n: int) -> float:
        """Probability mass on the ``top_n`` most popular objects."""
        if top_n <= 0:
            return 0.0
        top_n = min(top_n, len(self._cdf))
        return self._cdf[top_n - 1] / self._total


def make_picker(
    n_objects: int, seed: int, distribution: str, theta: float, label: object
):
    """The picker over object ids ``0..n_objects-1`` every workload
    draws keys from.  ``label`` names the RNG stream, so two pickers
    with one seed are independent exactly when their labels differ."""
    ids = range(n_objects)
    if distribution == "zipfian":
        return ZipfianPicker(ids, seed, theta=theta, label=label)
    return UniformPicker(ids, seed, label=label)
