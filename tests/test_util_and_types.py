"""Tests for element canonicalisation, errors, and answer types."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import (
    require_even,
    require_non_negative,
    require_positive,
    require_probability,
    to_bytes,
    to_bytes_batch,
)
from repro.core.association_types import Association, AssociationAnswer
from repro.core.interfaces import (
    MultiplicityAnswer,
    largest_candidate,
    smallest_candidate,
)
from repro.errors import (
    CapacityError,
    ConfigurationError,
    CounterOverflowError,
    CounterUnderflowError,
    ReproError,
    UnsupportedOperationError,
)


class TestToBytes:
    def test_bytes_passthrough(self):
        assert to_bytes(b"abc") == b"abc"

    def test_bytearray_and_memoryview(self):
        assert to_bytes(bytearray(b"abc")) == b"abc"
        assert to_bytes(memoryview(b"abc")) == b"abc"

    def test_str_utf8(self):
        assert to_bytes("abc") == b"abc"
        assert to_bytes("héllo") == "héllo".encode("utf-8")

    def test_int_deterministic_and_injective(self):
        values = [0, 1, -1, 255, 256, -256, 2**64, -(2**64)]
        encoded = [to_bytes(v) for v in values]
        assert len(set(encoded)) == len(values)

    def test_int_roundtrip_signed(self):
        for value in (-300, -1, 0, 1, 300, 2**40):
            data = to_bytes(value)
            assert int.from_bytes(data, "big", signed=True) == value

    def test_bool_distinct_from_equal_int(self):
        assert to_bytes(True) != to_bytes(1)
        assert to_bytes(False) != to_bytes(0)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            to_bytes(1.5)

    def test_none_rejected(self):
        with pytest.raises(TypeError):
            to_bytes(None)

    @given(value=st.integers())
    def test_property_int_injective(self, value):
        assert to_bytes(value) != to_bytes(value + 1)


class TestToBytesBatch:
    def test_all_bytes_batch_is_a_fresh_equal_list(self):
        batch = [b"a", b"", b"\x00" * 40]
        got = to_bytes_batch(batch)
        assert got == batch and got is not batch
        assert all(a is b for a, b in zip(got, batch))

    def test_mixed_batch_matches_to_bytes(self):
        batch = [b"a", "b", 7, -1, True, bytearray(b"c"), memoryview(b"d"),
                 "héllo"]
        got = to_bytes_batch(batch)
        assert got == [to_bytes(e) for e in batch]
        assert all(type(e) is bytes for e in got)

    def test_iterables_and_empty(self):
        assert to_bytes_batch(iter([b"x", "y"])) == [b"x", b"y"]
        assert to_bytes_batch(()) == []

    def test_bytes_subclass_is_canonicalised(self):
        class Tagged(bytes):
            pass

        got = to_bytes_batch([b"a", Tagged(b"b")])
        assert got == [b"a", b"b"]

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            to_bytes_batch([b"a", 1.5])

    @given(batch=st.lists(st.one_of(st.binary(), st.text(), st.integers())))
    def test_property_matches_to_bytes(self, batch):
        assert to_bytes_batch(batch) == [to_bytes(e) for e in batch]


class TestValidators:
    def test_require_positive(self):
        assert require_positive("x", 3) == 3
        for bad in (0, -1, 1.5, True, "3"):
            with pytest.raises(ConfigurationError):
                require_positive("x", bad)

    def test_require_non_negative(self):
        assert require_non_negative("x", 0) == 0
        with pytest.raises(ConfigurationError):
            require_non_negative("x", -1)
        with pytest.raises(ConfigurationError):
            require_non_negative("x", True)

    def test_require_probability(self):
        assert require_probability("p", 0.5) == 0.5
        for bad in (0.0, 1.0, -0.1, 1.1, float("nan"), "half"):
            with pytest.raises(ConfigurationError):
                require_probability("p", bad)

    def test_require_even(self):
        assert require_even("k", 8) == 8
        with pytest.raises(ConfigurationError):
            require_even("k", 7)
        with pytest.raises(ConfigurationError):
            require_even("k", 0)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (ConfigurationError, CapacityError,
                    CounterOverflowError, CounterUnderflowError,
                    UnsupportedOperationError):
            assert issubclass(exc, ReproError)

    def test_configuration_error_is_value_error(self):
        assert issubclass(ConfigurationError, ValueError)

    def test_capacity_error_is_runtime_error(self):
        assert issubclass(CapacityError, RuntimeError)

    def test_overflow_is_capacity(self):
        assert issubclass(CounterOverflowError, CapacityError)


class TestAssociationAnswer:
    def test_outcome_numbering_matches_paper(self):
        cases = {
            frozenset({Association.S1_ONLY}): 1,
            frozenset({Association.BOTH}): 2,
            frozenset({Association.S2_ONLY}): 3,
            frozenset({Association.S1_ONLY, Association.BOTH}): 4,
            frozenset({Association.S2_ONLY, Association.BOTH}): 5,
            frozenset({Association.S1_ONLY, Association.S2_ONLY}): 6,
            frozenset(Association): 7,
            frozenset(): 0,
        }
        for candidates, outcome in cases.items():
            answer = AssociationAnswer(candidates=candidates, clear=False)
            assert answer.outcome == outcome

    def test_declarations_are_distinct(self):
        subsets = [
            frozenset({Association.S1_ONLY}),
            frozenset({Association.BOTH}),
            frozenset({Association.S2_ONLY}),
            frozenset({Association.S1_ONLY, Association.BOTH}),
            frozenset({Association.S2_ONLY, Association.BOTH}),
            frozenset({Association.S1_ONLY, Association.S2_ONLY}),
            frozenset(Association),
            frozenset(),
        ]
        declarations = {
            AssociationAnswer(candidates=s, clear=False).declaration
            for s in subsets
        }
        assert len(declarations) == 8

    def test_plain_set_normalised(self):
        answer = AssociationAnswer(
            candidates={Association.BOTH}, clear=True)
        assert isinstance(answer.candidates, frozenset)
        assert answer.is_single

    def test_consistent_with(self):
        answer = AssociationAnswer(
            candidates=frozenset({Association.S1_ONLY, Association.BOTH}),
            clear=False)
        assert answer.consistent_with(Association.S1_ONLY)
        assert answer.consistent_with(Association.BOTH)
        assert not answer.consistent_with(Association.S2_ONLY)


class TestMultiplicityAnswer:
    def test_present_and_correct(self):
        answer = MultiplicityAnswer(candidates=(2, 5), reported=5)
        assert answer.present
        assert answer.correct(5)
        assert not answer.correct(2)

    def test_absent(self):
        answer = MultiplicityAnswer(candidates=(), reported=0)
        assert not answer.present
        assert answer.correct(0)

    def test_reporting_policies(self):
        assert smallest_candidate((2, 5, 9)) == 2
        assert largest_candidate((2, 5, 9)) == 9
        assert smallest_candidate(()) == 0
        assert largest_candidate(()) == 0


class TestLazyExports:
    def test_every_export_resolves(self):
        import repro

        for name in repro.__all__:
            if name == "__version__":
                continue
            assert getattr(repro, name) is not None

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.NotAThing

    def test_dir_lists_exports(self):
        import repro

        assert "ShiftingBloomFilter" in dir(repro)

    def test_version(self):
        import repro

        assert repro.__version__ == "1.1.0"
