"""Canonical query identities: isomorphism, dedup, schedule expansion."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AndTree, DnfTree, Leaf
from repro.core.cost import dnf_schedule_cost
from repro.core.heuristics import get_scheduler
from repro.core.schedule import validate_schedule
from repro.errors import InvalidScheduleError, InvalidTreeError
from repro.generators.random_trees import random_dnf_tree
from repro.lang.parser import parse_query
from repro.service import (
    canonical_key,
    canonicalize,
    quantize_prob,
    shuffled_isomorph,
)
from tests.service.reference_canonical import reference_canonicalize


def tree_abc() -> DnfTree:
    return DnfTree(
        [
            [Leaf("A", 2, 0.3), Leaf("B", 1, 0.5)],
            [Leaf("C", 3, 0.2)],
        ],
        costs={"A": 1.0, "B": 2.0, "C": 0.5},
    )


class TestCanonicalKey:
    def test_key_is_stable(self):
        assert canonical_key(tree_abc()) == canonical_key(tree_abc())

    def test_isomorphic_trees_hash_equal(self):
        tree = tree_abc()
        reordered = DnfTree(
            [
                [Leaf("C", 3, 0.2)],
                [Leaf("B", 1, 0.5), Leaf("A", 2, 0.3)],
            ],
            costs=tree.costs,
        )
        assert canonical_key(tree) == canonical_key(reordered)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_shuffles_hash_equal(self, seed):
        """Every isomorph lands on one canonical tree, so one cached plan
        serves them all: same key, same canonical schedule, and the same
        expected cost once expanded back to each original."""
        rng = np.random.default_rng(seed)
        tree = random_dnf_tree(rng, n_ands=3, leaves_per_and=3, rho=2.0)
        twin_tree = shuffled_isomorph(tree, rng)
        form, twin = canonicalize(tree), canonicalize(twin_tree)
        assert twin.key == form.key
        assert twin.tree == form.tree
        scheduler = get_scheduler("and-inc-c-over-p-dynamic")
        schedule = tuple(scheduler.schedule(form.tree))
        assert tuple(scheduler.schedule(twin.tree)) == schedule
        assert dnf_schedule_cost(
            twin_tree, twin.expand_schedule(schedule)
        ) == pytest.approx(dnf_schedule_cost(tree, form.expand_schedule(schedule)))

    def test_distinct_probability_hashes_differ(self):
        tree = tree_abc()
        other = DnfTree(
            [[Leaf("A", 2, 0.31), Leaf("B", 1, 0.5)], [Leaf("C", 3, 0.2)]],
            costs=tree.costs,
        )
        assert canonical_key(tree) != canonical_key(other)

    def test_distinct_items_hashes_differ(self):
        tree = tree_abc()
        other = DnfTree(
            [[Leaf("A", 3, 0.3), Leaf("B", 1, 0.5)], [Leaf("C", 3, 0.2)]],
            costs=tree.costs,
        )
        assert canonical_key(tree) != canonical_key(other)

    def test_distinct_costs_hash_differ(self):
        tree = tree_abc()
        other = DnfTree([list(g) for g in tree.ands], {"A": 9.0, "B": 2.0, "C": 0.5})
        assert canonical_key(tree) != canonical_key(other)

    def test_distinct_grouping_hashes_differ(self):
        one_and = DnfTree([[Leaf("A", 1, 0.5), Leaf("B", 1, 0.5)]])
        two_ands = DnfTree([[Leaf("A", 1, 0.5)], [Leaf("B", 1, 0.5)]])
        assert canonical_key(one_and) != canonical_key(two_ands)

    def test_and_tree_matches_its_dnf_view(self):
        tree = AndTree([Leaf("A", 1, 0.75), Leaf("A", 2, 0.1), Leaf("B", 1, 0.5)])
        assert canonical_key(tree) == canonical_key(tree.to_dnf())

    def test_labels_do_not_affect_key(self):
        bare = DnfTree([[Leaf("A", 1, 0.5)]])
        labeled = DnfTree([[Leaf("A", 1, 0.5, "AVG(A,1) < 3")]])
        assert canonical_key(bare) == canonical_key(labeled)

    def test_query_tree_accepted_when_dnf_shaped(self):
        parsed = parse_query("(A[2] p=0.3 AND B[1] p=0.5) OR C[3] p=0.2")
        assert canonical_key(parsed.tree) == canonical_key(parsed.as_dnf())

    def test_non_dnf_query_tree_rejected(self):
        parsed = parse_query("A[1] p=0.5 AND (B[1] p=0.5 OR C[1] p=0.5)")
        assert not parsed.tree.is_dnf()
        with pytest.raises(InvalidTreeError):
            canonicalize(parsed.tree)


class TestQuantizedIdentity:
    """The exact-float ``==`` fold/key bug: sub-quantum noise must not split
    canonical identity, and genuinely different probabilities must."""

    def test_quantize_prob_rounds_at_twelve_decimals(self):
        assert quantize_prob(0.3 + 1e-15) == quantize_prob(0.3)
        assert quantize_prob(0.3 + 1e-9) != quantize_prob(0.3)

    def test_noise_perturbed_isomorphs_share_a_key(self):
        tree = tree_abc()
        noisy = DnfTree(
            [
                [Leaf("C", 3, 0.2 + 1e-15)],
                [Leaf("B", 1, 0.5), Leaf("A", 2, 0.3 + 2e-16)],
            ],
            costs=tree.costs,
        )
        exact = canonicalize(tree)
        perturbed = canonicalize(noisy)
        assert perturbed.key == exact.key

        def quantized(form):
            return [
                (leaf.stream, leaf.items, quantize_prob(leaf.prob))
                for leaf in form.tree.leaves
            ]

        assert quantized(perturbed) == quantized(exact)

    def test_duplicate_leaves_fold_despite_noise(self):
        base, noisy = 0.5, 0.5 + 1e-14
        tree = DnfTree(
            [[Leaf("A", 2, base), Leaf("A", 2, noisy), Leaf("B", 1, 0.9)]],
            costs={"A": 1.0, "B": 3.0},
        )
        form = canonicalize(tree)
        assert form.deduped
        assert form.tree.size == 2

    def test_distinct_probabilities_still_split_keys(self):
        tree = tree_abc()
        other = DnfTree(
            [[Leaf("A", 2, 0.3 + 1e-9), Leaf("B", 1, 0.5)], [Leaf("C", 3, 0.2)]],
            costs=tree.costs,
        )
        assert canonical_key(tree) != canonical_key(other)


class TestDeduplication:
    def test_identical_leaves_fold_with_product_probability(self):
        tree = AndTree([Leaf("A", 2, 0.5), Leaf("A", 2, 0.5), Leaf("B", 1, 0.9)])
        form = canonicalize(tree)
        assert form.deduped
        assert form.tree.size == 2
        folded = [leaf for leaf in form.tree.leaves if leaf.stream == "A"][0]
        assert folded.prob == pytest.approx(0.25)
        assert folded.items == 2

    def test_duplicate_count_distinguishes_keys(self):
        single = AndTree([Leaf("A", 2, 0.5)])
        double = AndTree([Leaf("A", 2, 0.5), Leaf("A", 2, 0.5)])
        assert canonical_key(single) != canonical_key(double)

    def test_near_duplicates_do_not_fold(self):
        tree = AndTree([Leaf("A", 2, 0.5), Leaf("A", 2, 0.6)])
        form = canonicalize(tree)
        assert not form.deduped
        assert form.tree.size == 2

    def test_folding_preserves_expected_cost(self):
        """AND of k identical leaves == one leaf with prob p**k, exactly."""
        tree = DnfTree(
            [[Leaf("A", 2, 0.5), Leaf("A", 2, 0.5), Leaf("B", 1, 0.9)]],
            costs={"A": 1.0, "B": 3.0},
        )
        form = canonicalize(tree)
        canon_schedule = tuple(range(form.tree.size))
        expanded = form.expand_schedule(canon_schedule)
        assert dnf_schedule_cost(form.tree, canon_schedule) == pytest.approx(
            dnf_schedule_cost(tree, expanded)
        )


class TestExpandSchedule:
    def test_round_trip_is_valid_permutation(self):
        tree = DnfTree(
            [
                [Leaf("A", 2, 0.5), Leaf("A", 2, 0.5)],
                [Leaf("B", 1, 0.4), Leaf("A", 1, 0.7)],
            ]
        )
        form = canonicalize(tree)
        for perm in [tuple(range(form.tree.size)), tuple(reversed(range(form.tree.size)))]:
            expanded = form.expand_schedule(perm)
            validate_schedule(tree, expanded)

    def test_duplicates_expand_adjacently(self):
        tree = AndTree([Leaf("A", 2, 0.5), Leaf("B", 1, 0.4), Leaf("A", 2, 0.5)])
        form = canonicalize(tree)
        expanded = form.expand_schedule(tuple(range(form.tree.size)))
        positions = [expanded.index(g) for g in (0, 2)]  # the two A[2] copies
        assert abs(positions[0] - positions[1]) == 1

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_trees_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_dnf_tree(rng, n_ands=3, leaves_per_and=3, rho=1.5)
        form = canonicalize(tree)
        expanded = form.expand_schedule(
            tuple(int(i) for i in rng.permutation(form.tree.size))
        )
        validate_schedule(tree, expanded)


class TestExpandScheduleChecks:
    def test_rejects_a_schedule_that_is_not_a_permutation(self):
        form = canonicalize(tree_abc())
        with pytest.raises(InvalidScheduleError, match="not a permutation"):
            form.expand_schedule((0, 0, 1))
        with pytest.raises(InvalidScheduleError, match="3 leaves"):
            form.expand_schedule((0, 1))


#: A fixed corpus and its keys. A key is a plan-cache identity shared across
#: processes and releases, so its bits must not move.
GOLDEN = {
    "duplicate-leaf folds": (
        DnfTree(
            [
                [Leaf("A", 2, 0.5), Leaf("B", 1, 0.9), Leaf("A", 2, 0.5), Leaf("A", 2, 0.5)],
                [Leaf("C", 3, 0.3), Leaf("C", 3, 0.3 + 1e-15)],
            ],
            {"A": 1.0, "B": 2.5, "C": 0.25},
        ),
        "259601a2feca0df0a232d64414c243b6926dfaf9ea201372d6fafe8bf4a233c0",
        ((0, 2, 3), (1,), (4, 5)),
    ),
    # Folding A[1] p=0.5 twice into p=0.25 puts the AND's folded leaf below
    # its first one; the ANDs still sort by their leaves in canonical order.
    "fold reorders an AND": (
        DnfTree(
            [[Leaf("A", 1, 0.5), Leaf("A", 1, 0.3), Leaf("A", 1, 0.5)], [Leaf("A", 1, 0.28)]]
        ),
        "30ac2431ee1eb901d6d7496b08fb062b3d32f443d7071ce0619da49ef2e38b3d",
        ((3,), (1,), (0, 2)),
    ),
    "probabilities 1e-16 apart": (
        DnfTree(
            [[Leaf("A", 1, 0.3), Leaf("B", 2, 0.7)], [Leaf("A", 1, 0.3 + 1e-16)]],
            {"A": 1.0, "B": 3.0},
        ),
        "90de5cd05beb0bb498721c84c9399286ca53b9668626d8b8e53eab4b06e6e2eb",
        ((2,), (0,), (1,)),
    ),
    "one AND": (
        DnfTree([[Leaf("B", 4, 0.2), Leaf("A", 1, 0.6), Leaf("A", 3, 0.6)]]),
        "2f81baea788bb7df19a43afd4729aa292147cb213eeea86fb81ed4da92c4a017",
        ((1,), (2,), (0,)),
    ),
    "AndTree": (
        AndTree(
            [Leaf("X", 2, 0.75), Leaf("Y", 1, 0.5), Leaf("X", 2, 0.75)], {"X": 2.0, "Y": 0.5}
        ),
        "1dd0e58a284582c0f034060460bf06ad9500d0c201cbc1f460f67a09c73e4eef",
        ((0, 2), (1,)),
    ),
    "DNF-shaped QueryTree": (
        parse_query(
            "(A[2] p=0.3 AND B[1] p=0.5) OR C[3] p=0.2 OR (B[1] p=0.5 AND A[2] p=0.3)"
        ).tree,
        "e9d3e54b62586c714199fed3e1229415eeeecd49a61a95df1300c821c5d37640",
        ((0,), (1,), (4,), (3,), (2,)),
    ),
}


class TestGoldenKeys:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_key_and_leaf_map_are_pinned(self, case):
        tree, key, leaf_map = GOLDEN[case]
        form = canonicalize(tree)
        assert form.key == key
        assert form.leaf_map == leaf_map


#: Few streams, windows and probabilities, so AND nodes repeat leaves (folds)
#: and whole AND nodes (ties in the AND sort); the noise term puts some
#: probabilities 1e-16 apart from their twins.
_leaves = st.builds(
    lambda stream, items, prob, noise: Leaf(stream, items, min(1.0, prob + noise)),
    st.sampled_from("ABC"),
    st.integers(1, 3),
    st.sampled_from((0.0, 0.25, 0.3, 0.5, 1.0)),
    st.sampled_from((0.0, 0.0, 1e-16, 3e-16)),
)
_ands = st.lists(st.lists(_leaves, min_size=1, max_size=4), min_size=1, max_size=4)
_costs = st.fixed_dictionaries(
    {name: st.sampled_from((0.5, 1.0, 2.0)) for name in "ABC"}
)
_trees = st.one_of(
    st.builds(DnfTree, _ands, _costs),
    st.builds(AndTree, st.lists(_leaves, min_size=1, max_size=5), _costs),
    st.builds(lambda ands, costs: DnfTree(ands, costs).to_query_tree(), _ands, _costs),
)


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(tree=_trees)
    def test_form_matches_the_tree_building_construction(self, tree):
        form = canonicalize(tree)
        want = reference_canonicalize(tree)
        assert form.key == want.key
        assert form.leaf_map == want.leaf_map
        assert form.original_size == want.original_size
        assert form.tree == want.tree
        assert form.tree.costs == want.tree.costs
        assert [leaf.prob.hex() for leaf in form.tree.leaves] == [
            leaf.prob.hex() for leaf in want.tree.leaves
        ]
        thawed = pickle.loads(pickle.dumps(form))
        assert thawed == form
        assert thawed.key == want.key
        assert thawed.tree == want.tree
