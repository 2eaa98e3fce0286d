"""Bloom filter: the differential-file screen of Section 2.2.2."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.bloom import BloomFilter, optimal_bits, optimal_hashes


class TestSizing:
    def test_optimal_bits_formula(self):
        # m = -n ln(p) / (ln 2)^2
        assert optimal_bits(1000, 0.01) == 9586

    def test_optimal_bits_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            optimal_bits(10, 0.0)
        with pytest.raises(ValueError):
            optimal_bits(10, 1.0)

    def test_optimal_bits_rejects_negative_items(self):
        with pytest.raises(ValueError):
            optimal_bits(-1, 0.01)

    def test_optimal_hashes_formula(self):
        assert optimal_hashes(9586, 1000) == 7

    def test_for_load_builds_consistent_filter(self):
        bf = BloomFilter.for_load(500, 0.01)
        assert bf.bits >= 4000
        assert bf.hashes >= 1


class TestBehaviour:
    def test_empty_filter_contains_nothing(self):
        bf = BloomFilter(128)
        assert not bf.maybe_contains("x")

    @given(st.lists(st.integers(), max_size=200, unique=True))
    @settings(max_examples=50)
    def test_no_false_negatives(self, items):
        """The load-bearing property: added items always report present."""
        bf = BloomFilter.for_load(max(len(items), 1), 0.05)
        for item in items:
            bf.add(item)
        assert all(bf.maybe_contains(item) for item in items)

    def test_false_positive_rate_near_design_target(self):
        bf = BloomFilter.for_load(2000, 0.02)
        for i in range(2000):
            bf.add(("member", i))
        false_hits = sum(bf.maybe_contains(("other", i)) for i in range(20_000))
        assert false_hits / 20_000 < 0.05  # design target 0.02, generous slack

    def test_growing_m_reduces_false_drops(self):
        """Section 2.2.2: screening can be made arbitrarily good by
        increasing m."""
        def fp_rate(bits: int) -> float:
            bf = BloomFilter(bits, hashes=4)
            for i in range(500):
                bf.add(("member", i))
            return sum(bf.maybe_contains(("other", i)) for i in range(5_000)) / 5_000

        assert fp_rate(64_000) < fp_rate(2_000)

    def test_clear_empties_filter(self):
        bf = BloomFilter(256)
        bf.add("x")
        bf.clear()
        assert not bf.maybe_contains("x")
        assert bf.items_added == 0
        assert bf.fill_fraction == 0.0

    def test_probe_stats_track_negatives(self):
        bf = BloomFilter(256)
        assert bf.negative_rate == 0.0  # no probes yet
        bf.add("present")
        bf.maybe_contains("present")
        bf.maybe_contains("absent-1")
        bf.maybe_contains("absent-2")
        assert bf.probes == 3
        assert bf.negatives == 2
        assert bf.negative_rate == pytest.approx(2 / 3)

    def test_probe_stats_survive_clear(self):
        """clear() empties membership, not the lifetime screening stats
        the serving layer exports."""
        bf = BloomFilter(256)
        bf.add("x")
        bf.maybe_contains("y")
        bf.clear()
        assert bf.probes == 1

    def test_estimated_fp_rate_zero_when_empty(self):
        assert BloomFilter(128).estimated_fp_rate() == 0.0

    def test_estimated_fp_rate_grows_with_load(self):
        bf = BloomFilter(256, hashes=3)
        rates = []
        for i in range(50):
            bf.add(i)
            rates.append(bf.estimated_fp_rate())
        assert rates == sorted(rates)

    def test_deterministic_across_instances(self):
        a, b = BloomFilter(512, hashes=4), BloomFilter(512, hashes=4)
        a.add("key-1")
        b.add("key-1")
        probes = [f"probe-{i}" for i in range(100)]
        assert [a.maybe_contains(p) for p in probes] == [b.maybe_contains(p) for p in probes]

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            BloomFilter(0)
        with pytest.raises(ValueError):
            BloomFilter(10, hashes=0)


class TestSerialization:
    """to_dict/from_dict: the checkpoint format for AD-file screens."""

    def test_round_trip_preserves_membership_exactly(self):
        bf = BloomFilter.for_load(300, 0.02)
        for i in range(300):
            bf.add(("member", i))
        restored = BloomFilter.from_dict(bf.to_dict())
        assert (restored.bits, restored.hashes) == (bf.bits, bf.hashes)
        assert restored.items_added == bf.items_added
        probes = [("member", i) for i in range(300)]
        probes += [("other", i) for i in range(2_000)]
        assert [restored.maybe_contains(p) for p in probes] == \
               [bf.maybe_contains(p) for p in probes]

    def test_round_trip_is_json_safe(self):
        import json

        bf = BloomFilter(512, hashes=4)
        bf.add("x")
        doc = json.loads(json.dumps(bf.to_dict()))
        assert BloomFilter.from_dict(doc).maybe_contains("x")

    def test_probe_stats_excluded_from_snapshot(self):
        bf = BloomFilter(256)
        bf.add("x")
        bf.maybe_contains("y")  # one lifetime probe
        restored = BloomFilter.from_dict(bf.to_dict())
        assert restored.probes == 0  # restored filters count afresh

    def test_array_length_mismatch_rejected(self):
        bf = BloomFilter(512, hashes=4)
        doc = bf.to_dict()
        doc["bits"] = 1024  # sizing no longer matches the serialized array
        with pytest.raises(ValueError, match="does not match"):
            BloomFilter.from_dict(doc)


class TestBitBookkeeping:
    """fill_fraction and clear() work on the whole array at once."""

    @given(
        bits=st.integers(min_value=1, max_value=2_000),
        items=st.lists(st.integers(), max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_fill_fraction_and_clear_match_a_per_byte_reference(self, bits, items):
        bf = BloomFilter(bits, hashes=3)
        for item in items:
            bf.add(item)
        reference = sum(bin(byte).count("1") for byte in bf._array) / bits
        assert bf.fill_fraction == reference
        doc = bf.to_dict()
        assert BloomFilter.from_dict(doc).to_dict() == doc
        bf.clear()
        assert bf.fill_fraction == 0.0
        assert bf._array == bytearray(len(bf._array))
        assert len(bf._array) == (bits + 7) // 8


class TestMeasuredFalsePositiveRate:
    """Statistical check of the Severance–Lohman sizing the paper leans on:
    a filter sized by for_load(n, p) must actually screen near p."""

    @pytest.mark.parametrize("target", [0.01, 0.05])
    def test_measured_rate_tracks_design_target(self, target):
        n, probes = 3_000, 30_000
        bf = BloomFilter.for_load(n, target)
        for i in range(n):
            bf.add(("member", i))
        hits = sum(bf.maybe_contains(("outsider", i)) for i in range(probes))
        measured = hits / probes
        # Deterministic hashing makes this a fixed quantity; the bound
        # allows for binomial spread around the design point.
        assert measured < target * 2.5
        assert measured == pytest.approx(bf.estimated_fp_rate(), abs=target)

    def test_estimator_matches_theory_at_design_load(self):
        bf = BloomFilter.for_load(1_000, 0.02)
        for i in range(1_000):
            bf.add(i)
        # (1 - e^{-kn/m})^k evaluated at n items should sit near p.
        assert bf.estimated_fp_rate() == pytest.approx(0.02, rel=0.5)
