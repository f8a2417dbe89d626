"""Genotype codec: arch strings, indices, mutations — incl. property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GenotypeError
from repro.searchspace.genotype import Genotype
from repro.searchspace.ops import CANDIDATE_OPS, NUM_EDGES

ops_strategy = st.tuples(
    *[st.sampled_from(CANDIDATE_OPS) for _ in range(NUM_EDGES)]
)


class TestConstruction:
    def test_valid(self):
        g = Genotype(("none",) * 6)
        assert g.ops == ("none",) * 6

    def test_wrong_length_rejected(self):
        with pytest.raises(GenotypeError):
            Genotype(("none",) * 5)

    def test_unknown_op_rejected(self):
        with pytest.raises(GenotypeError):
            Genotype(("none",) * 5 + ("conv_7x7",))

    def test_frozen_and_hashable(self):
        g = Genotype(("skip_connect",) * 6)
        assert g == Genotype(("skip_connect",) * 6)
        assert hash(g) == hash(Genotype(("skip_connect",) * 6))


class TestArchStringCodec:
    CANONICAL = (
        "|nor_conv_3x3~0|+|nor_conv_3x3~0|nor_conv_3x3~1|"
        "+|skip_connect~0|nor_conv_3x3~1|nor_conv_3x3~2|"
    )

    def test_parse_canonical(self):
        g = Genotype.from_arch_str(self.CANONICAL)
        assert g.op_on_edge(0, 3) == "skip_connect"
        assert g.op_on_edge(2, 3) == "nor_conv_3x3"

    def test_roundtrip_canonical(self):
        g = Genotype.from_arch_str(self.CANONICAL)
        assert g.to_arch_str() == self.CANONICAL

    def test_str_dunder(self):
        g = Genotype(("none",) * 6)
        assert str(g) == g.to_arch_str()

    def test_bad_group_count(self):
        with pytest.raises(GenotypeError):
            Genotype.from_arch_str("|none~0|+|none~0|none~1|")

    def test_bad_edge_count_in_group(self):
        with pytest.raises(GenotypeError):
            Genotype.from_arch_str("|none~0|none~1|+|none~0|none~1|+|none~0|none~1|none~2|")

    def test_malformed_token(self):
        with pytest.raises(GenotypeError):
            Genotype.from_arch_str("|none|+|none~0|none~1|+|none~0|none~1|none~2|")

    def test_unknown_op_in_string(self):
        with pytest.raises(GenotypeError):
            Genotype.from_arch_str(
                "|conv_9x9~0|+|none~0|none~1|+|none~0|none~1|none~2|"
            )

    def test_invalid_source_node(self):
        with pytest.raises(GenotypeError):
            Genotype.from_arch_str(
                "|none~1|+|none~0|none~1|+|none~0|none~1|none~2|"
            )

    @given(ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, ops):
        g = Genotype(ops)
        assert Genotype.from_arch_str(g.to_arch_str()) == g


class TestIndexCodec:
    def test_zero_index_is_all_none(self):
        assert Genotype.from_index(0) == Genotype(("none",) * 6)

    def test_max_index(self):
        g = Genotype.from_index(15624)
        assert g == Genotype(("avg_pool_3x3",) * 6)

    def test_out_of_range(self):
        with pytest.raises(GenotypeError):
            Genotype.from_index(15625)
        with pytest.raises(GenotypeError):
            Genotype.from_index(-1)

    def test_bijection_over_sample(self):
        seen = set()
        for idx in range(0, 15625, 97):
            g = Genotype.from_index(idx)
            assert g.to_index() == idx
            seen.add(g.ops)
        assert len(seen) == len(range(0, 15625, 97))

    @given(ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, ops):
        g = Genotype(ops)
        assert Genotype.from_index(g.to_index()) == g

    def test_whole_space_round_trips_through_the_memo(self):
        """``to_index`` is memoized on the op tuple: every genotype, read
        twice (the second time from the memo), codes to its own index."""
        for _ in range(2):
            for idx in range(15625):
                g = Genotype.from_index(idx)
                assert g.to_index() == idx
                assert Genotype.from_index(g.to_index()) == g


class TestManipulation:
    def test_with_op(self):
        g = Genotype(("none",) * 6)
        g2 = g.with_op(3, "skip_connect")
        assert g2.ops[3] == "skip_connect"
        assert g.ops[3] == "none"  # original untouched

    def test_with_op_bad_index(self):
        with pytest.raises(GenotypeError):
            Genotype(("none",) * 6).with_op(6, "none")

    def test_count(self):
        g = Genotype(("none", "none", "skip_connect", "none", "none", "none"))
        assert g.count("none") == 5
        assert g.count("skip_connect") == 1

    def test_op_on_edge_invalid(self):
        with pytest.raises(GenotypeError):
            Genotype(("none",) * 6).op_on_edge(3, 1)

    def test_random_uses_rng(self):
        import numpy as np
        a = Genotype.random(np.random.default_rng(0))
        b = Genotype.random(np.random.default_rng(0))
        assert a == b

    def test_all_genotypes_count_and_order(self):
        gen = Genotype.all_genotypes()
        first = next(gen)
        assert first.to_index() == 0
        assert next(gen).to_index() == 1
