"""The selection core `placement.best_upto_two` against a brute
`selection_key` minimum."""

import random

import numpy as np

from sofl.placement import best_upto_two, selection_key


def brute_upto_two(sizes, w, pairs):
    """Per row, (weight, positions) of the `selection_key` minimum over the
    empty selection, each single and each listed pair, position keyed."""
    out, start = [], 0
    for size in sizes:
        sets = [(0.0, ())] + [(w[start + a], (a,)) for a in range(size)]
        sets += [(pw, (i - start, j - start)) for i, j, pw in pairs if start <= i < start + size]
        out.append(min(sets, key=lambda s: selection_key(s[0], list(s[1]))))
        start += size
    return out


def test_best_upto_two_equals_the_brute_minimum():
    # Integer weights make ties frequent; rows may be empty, and a row
    # whose best weight is at most 0 keeps the empty selection.
    rng = random.Random(5)
    ties = empty = nonpositive = 0
    for _ in range(400):
        sizes = [rng.choice([0, 0, 1, 2, 3, 5, 7]) for _ in range(rng.randint(1, 6))]
        row = np.repeat(np.arange(len(sizes)), sizes)
        w = [float(rng.randint(-3, 3)) for _ in row]
        pairs, start = [], 0
        for size in sizes:
            pairs += [(start + a, start + b, float(rng.randint(-4, 6)))
                      for a in range(size) for b in range(a + 1, size) if rng.random() < 0.6]
            start += size
        rng.shuffle(pairs)
        cuts = sorted(rng.randint(0, len(pairs)) for _ in range(rng.randint(0, 3)))
        blocks = [pairs[a:b] for a, b in zip([0, *cuts], [*cuts, len(pairs)])]
        got = best_upto_two(len(sizes), row, np.array(w), (
            (np.array([p[0] for p in b], dtype=int), np.array([p[1] for p in b], dtype=int),
             np.array([p[2] for p in b])) for b in blocks))
        expect = brute_upto_two(sizes, w, pairs)
        assert got == expect, (sizes, w, pairs)
        assert all(type(p) is int for _, ids in got for p in ids)
        assert all(type(weight) is float for weight, _ in got)
        for (weight, _), size in zip(expect, sizes):
            empty += size == 0
            nonpositive += size > 0 and weight <= 0
        start = 0
        for (weight, _), size in zip(expect, sizes):
            if weight > 0:
                at = [x for x in w[start:start + size] if x == weight]
                at += [pw for i, _, pw in pairs if start <= i < start + size and pw == weight]
                ties += len(at) > 1
            start += size
    assert min(ties, empty, nonpositive) > 100, (ties, empty, nonpositive)
