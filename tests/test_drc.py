from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from drc_reference import best_multiset_plain
from ramsey_forge import generators as gen
from ramsey_forge.bandwidth import heuristic_labeling
from ramsey_forge.drc import (
    DEFAULT_TUPLE_BUDGET,
    DegenerateBudget,
    bad_supports,
    bad_tuple_count,
    bipartition_of,
    default_bandwidth_beta,
    drc_bandwidth_embed,
    drc_properties,
    drc_select,
    surjection_count,
)
from ramsey_forge.drc import _best_multiset, _high_nondegree
from ramsey_forge.graphs import Graph, mask_of
from ramsey_forge.morphisms import verify_homomorphism


def test_surjection_count():
    assert surjection_count(3, 1) == 1
    assert surjection_count(3, 2) == 6
    assert surjection_count(3, 3) == 6
    assert surjection_count(2, 1) == 1
    assert surjection_count(2, 2) == 2


def brute_bad_tuples(g, members, d, threshold):
    bad = 0
    full = (1 << g.n) - 1
    for tup in itertools.product(members, repeat=d):
        common = full
        for v in tup:
            common &= g.adj[v]
        if common.bit_count() < threshold:
            bad += 1
    return bad


def test_bad_tuple_count_matches_brute_force():
    g = gen.random_bounded_degree_graph(10, 5, seed=4)
    members = list(range(g.n))
    x_mask = mask_of(members)
    for d in (1, 2, 3):
        for threshold in (Fraction(2), Fraction(4), Fraction(7)):
            assert bad_tuple_count(g, x_mask, d, threshold) == brute_bad_tuples(
                g, members, d, threshold
            )


def test_bad_supports_min_degree_shortcut():
    g = gen.complete(12)
    # codegree of any pair is 10 >= 5, shortcut applies
    assert bad_supports(g, (1 << 12) - 1, 2, Fraction(5)) == []


def _nondegree_groups(g, scope):
    """(nondegree, mask) for every vertex of g, highest nondegree first; a
    vertex's nondegree counts the scope vertices it is not adjacent to."""
    n_scope = scope.bit_count()
    groups = {}
    for v, row in enumerate(g.adj):
        k = n_scope - (row & scope).bit_count()
        groups[k] = groups.get(k, 0) | 1 << v
    return sorted(groups.items(), reverse=True)


def _no_bad_support(groups, x_mask, n_scope, max_deg, need):
    """The shortcut by the largest nondegree in X: n' - max_deg * k >= need."""
    for nondeg, mask in groups:
        if mask & x_mask:
            return n_scope - max_deg * nondeg >= need
    return True  # X is empty


def test_high_nondegree_mask_matches_group_scan():
    rng = random.Random(3)
    hosts = [gen.complete(9), Graph(7)]
    hosts += [gen.random_min_degree_host(n, eps, s)
              for n in (8, 20, 33) for eps in (Fraction(1, 4), Fraction(1, 2)) for s in range(2)]
    for g in hosts:
        n = g.n
        full = (1 << n) - 1
        for scope in (full, rng.getrandbits(n), full & ~1, 0):
            groups = _nondegree_groups(g, scope)
            xs = [0, full] + [1 << v for v in range(n)] + [rng.getrandbits(n) for _ in range(8)]
            for d in (1, 2, 3):
                for need in range(n + 1):
                    high = _high_nondegree(g, scope, d, need)
                    for x in xs:
                        expect = _no_bad_support(groups, x, scope.bit_count(), d, need)
                        assert (not x & high) == expect, (n, scope, d, need, x)


def brute_bad_supports(g, x_mask, d, threshold, scope):
    members = sorted(v for v in range(g.n) if x_mask >> v & 1)
    out = []
    for size in range(1, d + 1):
        for support in itertools.combinations(members, size):
            common = scope
            for v in support:
                common &= g.adj[v]
            if common.bit_count() < threshold:
                out.append(support)
    return sorted(out)


def test_bad_supports_within_matches_brute_force():
    for seed in range(6):
        g = gen.random_min_degree_host(18, Fraction(1, 3), seed)
        x_mask = mask_of(range(seed, 18, 2))
        scope = mask_of(v for v in range(18) if v % 3 != seed % 3)
        for d in (1, 2, 3):
            for threshold in (Fraction(0), Fraction(3), Fraction(7, 2), Fraction(6), Fraction(11)):
                for within in (None, scope):
                    full = scope if within is not None else (1 << 18) - 1
                    got = sorted(bad_supports(g, x_mask, d, threshold, within=within))
                    assert got == brute_bad_supports(g, x_mask, d, threshold, full)
    assert bad_supports(gen.complete(6), 0, 2, Fraction(9)) == []


def test_bad_tuple_count_sums_surjections_per_support():
    # counted by support size, xi(X) is still the sum over the bad supports
    for seed in range(6):
        g = gen.random_min_degree_host(18, Fraction(1, 3), seed)
        x_mask = mask_of(range(seed, 18, 2))
        for d in (1, 2, 3):
            for threshold in (Fraction(0), Fraction(3), Fraction(7, 2), Fraction(6), Fraction(11)):
                supports = brute_bad_supports(g, x_mask, d, threshold, (1 << 18) - 1)
                expect = sum(surjection_count(d, len(s)) for s in supports)
                assert bad_tuple_count(g, x_mask, d, threshold) == expect


def reference_select(g, x0, d, beta, trials=100, seed=0, alpha=Fraction(1, 2),
                     tuple_budget=DEFAULT_TUPLE_BUDGET):
    """drc_select's winner by Fraction scores and brute-force xi(X)."""
    n = g.n
    x0_mask = mask_of(x0)
    x0_size = x0_mask.bit_count()
    if math.comb(n + d - 1, d) <= tuple_budget:
        candidates = list(itertools.combinations_with_replacement(range(n), d))
    else:
        rng = random.Random(seed)
        candidates = [tuple(sorted(rng.randrange(n) for _ in range(d))) for _ in range(trials)]
    e1 = alpha ** (2 * d * d) * Fraction(x0_size) ** d * Fraction(n) ** d
    e2 = beta**d * Fraction(n) ** d * Fraction(x0_size) ** d
    best = None
    for tup in candidates:
        common = (1 << n) - 1
        for v in tup:
            common &= g.adj[v]
        size = common.bit_count()
        overlap = (common & x0_mask).bit_count()
        score = Fraction(overlap**d * size**d) / e1 if e1 > 0 else Fraction(0)
        if e2 > 0:
            members = [v for v in range(n) if common >> v & 1]
            xi = brute_bad_tuples(g, members, d, beta * n)
            score -= Fraction(xi * overlap**d) / (2 * e2)
        if best is None or score > best[0] or (score == best[0] and tup < best[1]):
            best = (score, tup)
    return best[1]


@pytest.mark.parametrize(
    "d, beta, alpha, x0, tuple_budget",
    [
        (2, Fraction(1, 16), Fraction(3, 4), "all", DEFAULT_TUPLE_BUDGET),
        (2, Fraction(1, 2), Fraction(1, 2), "even", DEFAULT_TUPLE_BUDGET),
        (3, Fraction(2, 5), Fraction(2, 3), "even", DEFAULT_TUPLE_BUDGET),
        (2, Fraction(0), Fraction(3, 4), "all", DEFAULT_TUPLE_BUDGET),
        (2, Fraction(1, 3), Fraction(0), "all", DEFAULT_TUPLE_BUDGET),
        (2, Fraction(0), Fraction(0), "all", DEFAULT_TUPLE_BUDGET),
        (2, Fraction(1, 3), Fraction(3, 4), "none", DEFAULT_TUPLE_BUDGET),
        (1, Fraction(3, 5), Fraction(1, 2), "even", DEFAULT_TUPLE_BUDGET),
        (3, Fraction(1, 2), Fraction(3, 4), "all", 40),
        # near alpha = 1 the size and xi terms trade off, so the scale matters
        (2, Fraction(3, 5), Fraction(9, 10), "even", DEFAULT_TUPLE_BUDGET),
        (2, Fraction(1, 2), Fraction(1), "all", DEFAULT_TUPLE_BUDGET),
        (3, Fraction(2, 5), Fraction(9, 10), "all", DEFAULT_TUPLE_BUDGET),
    ],
)
def test_drc_select_winner_matches_fraction_reference(d, beta, alpha, x0, tuple_budget):
    for seed in range(4):
        g = gen.random_min_degree_host(12, Fraction(2, 5), seed)
        x0_set = {"all": range(12), "even": range(0, 12, 2), "none": []}[x0]
        sel = drc_select(g, x0_set, d, beta, trials=30, seed=seed, alpha=alpha,
                         tuple_budget=tuple_budget)
        want = reference_select(g, x0_set, d, beta, 30, seed, alpha, tuple_budget)
        assert sel.chosen_tuple == want, seed
        members = sorted(sel.x)
        assert sel.bad_tuples == brute_bad_tuples(g, members, d, beta * 12)


# (n, host eps, max_deg, beta, alpha, x0) per host seed; x0 "even" is every
# other vertex, "none" the empty set
SELECTION_SETTINGS = (
    (40, Fraction(1, 4), 2, Fraction(1, 64), Fraction(3, 4), "all"),
    (40, Fraction(1, 4), 2, Fraction(3, 5), Fraction(1, 2), "even"),
    (24, Fraction(1, 3), 3, Fraction(1, 3), Fraction(2, 3), "even"),
    (24, Fraction(1, 4), 2, Fraction(0), Fraction(3, 4), "all"),
    (24, Fraction(1, 4), 2, Fraction(2, 3), Fraction(0), "all"),
    (20, Fraction(1, 4), 1, Fraction(1, 2), Fraction(1, 2), "none"),
)


def _selection_batch(mode: str) -> list[tuple]:
    budget = DEFAULT_TUPLE_BUDGET if mode == "exhaustive" else 10
    out = []
    for seed in range(5):
        for n, eps, d, beta, alpha, x0 in SELECTION_SETTINGS:
            g = gen.random_min_degree_host(n, eps, seed)
            x0_set = {"all": range(n), "even": range(0, n, 2), "none": []}[x0]
            sel = drc_select(g, x0_set, d, beta, trials=60, seed=seed, alpha=alpha,
                             tuple_budget=budget)
            assert sel.mode == mode
            out.append((sorted(sel.x), sel.chosen_tuple, sel.size, sel.overlap,
                        sel.bad_tuples, sel.mode))
    return out


# sha256 of repr(batch), captured while tuples were scored with Fractions and
# bad_supports scanned X for its largest nondegree on every call
PINNED_SELECTIONS = {
    "exhaustive": "52c723ecede5819ec2f02af02eb2d23594b5dea2d554eb858d6cf898810ebc02",
    "sampled": "14458b3b360b545170231eaccae614d5feaaed3d06cb3c3abdf1cb4eb4c4be42",
}


@pytest.mark.parametrize("mode", sorted(PINNED_SELECTIONS))
def test_drc_select_outputs_pinned(mode):
    batch = _selection_batch(mode)
    assert hashlib.sha256(repr(batch).encode()).hexdigest() == PINNED_SELECTIONS[mode]


def _scan_case(case: str):
    """(rows, depth, x0_mask, d, w_size, open_mask, xi) for one _best_multiset
    case; xi(X) is bad_tuple_count at the case's threshold."""
    g = gen.random_min_degree_host(16, Fraction(1, 4), 3)
    d, threshold, w_size = 2, Fraction(8), 3
    x0_mask = mask_of(range(0, 16, 2))
    if case.startswith("depth"):
        d = int(case[-1])
    elif case == "ties":
        g = gen.complete(12)  # its rows pairwise tie
        x0_mask = (1 << 12) - 1
    elif case == "empty_x0":
        x0_mask = 0
    elif case == "zero_w_size":
        w_size, threshold = 0, Fraction(12)
    elif case == "penalised":
        threshold = Fraction(12)
    else:
        raise ValueError(case)
    # each row twice: a repeated row ties with its copy
    rows = [row for row in g.adj for _ in range(2)] if case == "ties" else g.adj
    open_mask = _high_nondegree(g, (1 << g.n) - 1, d, math.ceil(threshold))

    def xi(common):
        return bad_tuple_count(g, common, d, threshold)

    return rows, d, x0_mask, d, w_size, open_mask, xi


SCAN_CASES = ("depth1", "depth2", "depth3", "ties", "empty_x0", "zero_w_size", "penalised")


@pytest.mark.parametrize("case", SCAN_CASES)
def test_best_multiset_matches_plain_scan(case):
    rows, depth, x0_mask, d, w_size, open_mask, xi = _scan_case(case)
    plain_calls, bounded_calls = [], []
    for w_bad in (1, 5):
        want = best_multiset_plain(
            rows, depth, x0_mask, d, w_size, open_mask,
            lambda c: plain_calls.append(c) or w_bad * xi(c),
        )
        got = _best_multiset(
            rows, depth, x0_mask, d, w_size, open_mask,
            lambda c: bounded_calls.append(c) or w_bad * xi(c),
        )
        assert got == want, (case, w_bad)
    # the bounded scan prices a subset of the plain scan's leaves, in order
    rest = iter(plain_calls)
    assert all(any(c == p for p in rest) for c in bounded_calls)
    if case == "empty_x0":
        # every score is 0, so the first multiset wins and no penalty is priced
        assert want == ((0,) * depth, rows[0]) and not bounded_calls
    if case in ("zero_w_size", "penalised"):
        assert any(xi(c) for c in plain_calls)  # penalties fire


def test_drc_select_on_complete_graph():
    g = gen.complete(16)
    sel = drc_select(g, range(16), 2, Fraction(1, 8), seed=0, alpha=Fraction(1, 2))
    # best tuple is the repeated vertex: X = N(v), size n-1
    assert sel.size == 15
    assert sel.mode == "exhaustive"
    assert sel.bad_tuples == 0
    # returned set equals the exact common neighborhood of the chosen tuple
    common = (1 << 16) - 1
    for v in sel.chosen_tuple:
        common &= g.adj[v]
    assert mask_of(sel.x) == common


def test_drc_select_edgeless():
    g = Graph(6)
    sel = drc_select(g, range(6), 2, Fraction(1, 8), seed=0, alpha=Fraction(1, 2))
    assert sel.size == 0


def test_drc_select_validation():
    with pytest.raises(ValueError):
        drc_select(gen.complete(4), range(4), 0, Fraction(1, 8))
    with pytest.raises(ValueError):
        drc_select(gen.complete(4), range(4), 2, Fraction(1, 8), trials=0)
    with pytest.raises(ValueError):
        drc_select(Graph(0), [], 1, Fraction(1, 8))


def test_drc_properties_on_min_degree_hosts():
    ok = 0
    for seed in range(20):
        host = gen.random_min_degree_host(48, Fraction(1, 4), seed)
        sel = drc_select(host, range(48), 2, Fraction(1, 48), seed=seed, alpha=Fraction(3, 4))
        props = drc_properties(
            host, (1 << 48) - 1, mask_of(sel.x), 2, Fraction(3, 4), Fraction(1, 48)
        )
        ok += all(props)
    assert ok >= 19


def test_bipartition():
    a, b = bipartition_of(gen.cycle(6))
    assert a | b == (1 << 6) - 1 and a & b == 0
    with pytest.raises(ValueError):
        bipartition_of(gen.cycle(5))


def ladder(rungs: int) -> Graph:
    edges = []
    for i in range(rungs - 1):
        edges.append((2 * i, 2 * i + 2))
        edges.append((2 * i + 1, 2 * i + 3))
    for i in range(rungs):
        edges.append((2 * i, 2 * i + 1))
    return Graph(2 * rungs, edges)


def test_default_beta_constant():
    assert default_bandwidth_beta(Fraction(1, 2), 3) == Fraction(1, 2) ** 19 / 768
    assert default_bandwidth_beta(Fraction(1, 2), 3) == Fraction(1, 402653184)


def test_degenerate_budget_detected():
    host = gen.complete(128)
    h = ladder(8)
    labels, _ = heuristic_labeling(h)
    with pytest.raises(DegenerateBudget):
        drc_bandwidth_embed(host, h, labels, Fraction(1, 2), max_deg=3)


def test_matching_into_complete_host():
    # perfect matching with pairwise-adjacent labels: bandwidth 1
    q = 6
    h = Graph(2 * q, [(2 * i, 2 * i + 1) for i in range(q)])
    labels = list(range(2 * q))
    host = gen.complete(40)
    vmap = drc_bandwidth_embed(
        host, h, labels, Fraction(1, 2), seed=0, max_deg=1, beta=Fraction(1, 8)
    )
    assert vmap is not None
    assert vmap.is_injective()
    assert verify_homomorphism(h, host, vmap).valid


def test_odd_cycle_rejected():
    host = gen.complete(40)
    h = gen.cycle(5)
    labels = list(range(5))
    with pytest.raises(ValueError):
        drc_bandwidth_embed(host, h, labels, Fraction(1, 2), beta=Fraction(1, 8))


def test_width_over_budget_rejected():
    host = gen.complete(32)
    h = Graph(8, [(0, 7)])
    labels = list(range(8))
    with pytest.raises(ValueError):
        drc_bandwidth_embed(host, h, labels, Fraction(1, 2), beta=Fraction(1, 16))


def test_ladder_into_complete_host_verified():
    host = gen.complete(128)
    h = ladder(16)
    labels, width = heuristic_labeling(h)
    assert width <= 8
    succ = 0
    for seed in range(10):
        vmap = drc_bandwidth_embed(
            host, h, labels, Fraction(1, 2), seed=seed, max_deg=3, beta=Fraction(1, 16)
        )
        if vmap is not None:
            succ += 1
            assert vmap.is_injective()
            assert verify_homomorphism(h, host, vmap).valid
    assert succ >= 9


# drc_bandwidth_embed's full result per seed (the image tuple, or None for
# greedy starvation), captured while the embedder walked its blocks with a
# per-iteration rescan of the embedded sets
PINNED_BANDWIDTH_EMBEDS = {
    # ladder(16) into K_128: 2 blocks
    "ladder_k128": [
        (40, 5, 35, 65, 48, 70, 67, 82, 126, 55, 125, 28, 73, 108, 115, 107,
         127, 41, 19, 93, 21, 113, 13, 49, 14, 96, 123, 118, 10, 38, 86, 111),
        (108, 34, 16, 27, 12, 67, 104, 70, 3, 61, 65, 127, 119, 91, 52, 111,
         125, 63, 92, 35, 90, 116, 118, 17, 49, 0, 107, 5, 4, 69, 41, 7),
        (41, 10, 47, 34, 82, 112, 22, 29, 84, 101, 111, 4, 81, 91, 120, 66,
         76, 63, 95, 39, 5, 58, 124, 3, 57, 110, 75, 74, 50, 55, 83, 62),
        (1, 49, 122, 125, 115, 81, 64, 63, 35, 86, 79, 76, 31, 9, 85, 33,
         100, 108, 72, 21, 82, 87, 89, 57, 120, 73, 59, 2, 111, 103, 23, 11),
        (57, 13, 97, 78, 127, 54, 66, 42, 113, 20, 11, 108, 9, 8, 2, 35,
         4, 81, 85, 103, 44, 59, 46, 48, 33, 122, 31, 29, 58, 19, 47, 55),
    ],
    # C16 into random_min_degree_host(64, 1/4, seed): 4 blocks
    "c16_min_degree": [
        (60, 2, 37, 30, 38, 47, 36, 9, 40, 7, 26, 15, 19, 63, 57, 18),
        (35, 17, 27, 33, 1, 7, 0, 49, 40, 61, 60, 38, 30, 46, 59, 8),
        (18, 6, 23, 21, 20, 50, 40, 46, 37, 36, 27, 59, 22, 49, 61, 30),
    ],
    # ladder(16) into K_24: 32 vertices cannot fit, so every seed starves
    "ladder_k24": [None, None, None],
    # two edges and six isolated vertices into K_40
    "isolated_k40": [(34, 3, 33, 18, 0, 1, 2, 4, 5, 6)],
}


def _bandwidth_embeds(case: str) -> list:
    if case == "ladder_k128":
        h = ladder(16)
        hosts = [gen.complete(128)] * 5
        alpha, d, beta = Fraction(1, 2), 3, Fraction(1, 16)
    elif case == "c16_min_degree":
        h = gen.cycle(16)
        hosts = [gen.random_min_degree_host(64, Fraction(1, 4), s) for s in range(3)]
        alpha, d, beta = Fraction(3, 4), 2, Fraction(1, 32)
    elif case == "ladder_k24":
        h = ladder(16)
        hosts = [gen.complete(24)] * 3
        alpha, d, beta = Fraction(3, 4), 3, Fraction(1, 12)
    else:
        h = Graph(10, [(0, 1), (2, 3)])
        hosts = [gen.complete(40)]
        alpha, d, beta = Fraction(1, 2), 1, Fraction(1, 16)
    labels = list(range(10)) if case == "isolated_k40" else heuristic_labeling(h)[0]
    out = []
    for seed, host in enumerate(hosts):
        vmap = drc_bandwidth_embed(host, h, labels, alpha, seed=seed, max_deg=d, beta=beta)
        out.append(None if vmap is None else vmap.image)
    return out


@pytest.mark.parametrize("case", sorted(PINNED_BANDWIDTH_EMBEDS))
def test_drc_bandwidth_embed_results_pinned(case):
    assert _bandwidth_embeds(case) == PINNED_BANDWIDTH_EMBEDS[case]


# ladder(4) into a min-degree host at beta = 1/16: every drc_select is
# exhaustive (C(42, 3) multisets) and its no-bad-support shortcut leaves
# nearly every set open, so only the bounded scan makes these calls cheap;
# images captured from the unbounded scan
PINNED_LADDER_MIN_DEGREE = {
    0: (25, 2, 19, 34, 17, 30, 23, 28),
    1: (34, 17, 8, 15, 7, 33, 27, 21),
}


@pytest.mark.parametrize("seed", sorted(PINNED_LADDER_MIN_DEGREE))
def test_ladder_into_min_degree_host_pinned(seed):
    h = ladder(4)
    labels, _ = heuristic_labeling(h)
    host = gen.random_min_degree_host(40, Fraction(1, 4), seed)
    vmap = drc_bandwidth_embed(
        host, h, labels, Fraction(1, 2), seed=seed, max_deg=3, beta=Fraction(1, 16)
    )
    assert vmap.image == PINNED_LADDER_MIN_DEGREE[seed]
