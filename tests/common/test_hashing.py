"""Unit tests for deterministic mixing."""

import numpy as np
from hypothesis import given, strategies as st

from repro.common.hashing import mix, mix_array, mix_step, path_key


class TestMix:
    def test_deterministic(self):
        assert mix(1, 2, 3) == mix(1, 2, 3)

    def test_order_sensitive(self):
        assert mix(1, 2) != mix(2, 1)

    def test_64_bit_range(self):
        for args in [(0,), (1, 2, 3), (2 ** 70,)]:
            assert 0 <= mix(*args) < 2 ** 64

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=4))
    def test_bit_balance(self, values):
        assert mix(*values) != mix(*values, 0) or values == [0]

    def test_avalanche(self):
        base = mix(42)
        flipped = mix(43)
        assert bin(base ^ flipped).count("1") > 10

    @given(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=4),
           st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=4))
    def test_steps_continue_a_prefix(self, head, tail):
        acc = mix(*head)
        for value in tail:
            acc = mix_step(acc, value)
        assert acc == mix(*head, *tail)


class TestPathKey:
    def test_root(self):
        assert path_key(()) == 1

    def test_distinguishes_depth(self):
        assert path_key((0,)) != path_key(())
        assert path_key((0, 0)) != path_key((0,))

    def test_distinguishes_bits(self):
        assert path_key((0, 1)) != path_key((1, 0))

    @given(st.lists(st.integers(0, 1), max_size=16),
           st.lists(st.integers(0, 1), max_size=16))
    def test_injective(self, a, b):
        if tuple(a) != tuple(b):
            assert path_key(tuple(a)) != path_key(tuple(b))


class TestMixArray:
    def test_elementwise_equals_scalar(self):
        owners = np.arange(64, dtype=np.uint64)
        keys = np.uint64(5) + owners * np.uint64(3)
        mixed = mix_array(9, owners, keys)
        assert mixed.dtype == np.uint64
        for i in range(64):
            assert int(mixed[i]) == mix(9, int(owners[i]), int(keys[i]))

    def test_broadcasting(self):
        row = mix_array(np.uint64(7), np.arange(8, dtype=np.uint64))
        for i in range(8):
            assert int(row[i]) == mix(7, i)

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=3),
           st.integers(0, 2 ** 64 - 1))
    def test_acc_is_a_premixed_prefix(self, head, value):
        tail = np.arange(4, dtype=np.uint64) + np.uint64(value)
        stepped = mix_array(tail, acc=mix(*head))
        assert stepped.tolist() == mix_array(*map(np.uint64, head),
                                             tail).tolist()
        assert int(stepped[0]) == mix_step(mix(*head), value)

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=4))
    def test_property_matches_scalar(self, values):
        mixed = mix_array(*[np.uint64(v) for v in values])
        assert int(mixed) == mix(*values)
