"""Deterministic integer mixing.

The simulator must be reproducible across processes, so anywhere a peer
makes a "random but stable" choice (e.g. which peer inside a sibling
subtree to link to) we derive it from a splitmix64-style mix of structural
integers instead of Python's per-process ``hash``.

:func:`mix_array` is the batched form: it evaluates :func:`mix` over
whole NumPy arrays of operands at once (64-bit wraparound arithmetic on
``uint64``), producing bit-identical values — the arena builders use it
to resolve millions of link-target descents without a Python-level loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - scalar helpers stay NumPy-free
    import numpy as np

__all__ = ["mix", "mix_array", "mix_step", "path_key"]

_MASK = (1 << 64) - 1


def mix_step(acc: int, value: int) -> int:
    """Fold one more operand into a :func:`mix` value.

    ``mix`` has no finalisation round, so ``mix(*head, value) ==
    mix_step(mix(*head), value)``: a caller hashing many operands behind
    one fixed prefix (every branch bit of a peer's link descents) mixes
    the prefix once and pays one step per operand.
    """
    acc = (acc + (value & _MASK) + 0x9E3779B97F4A7C15) & _MASK
    acc ^= acc >> 30
    acc = (acc * 0xBF58476D1CE4E5B9) & _MASK
    acc ^= acc >> 27
    acc = (acc * 0x94D049BB133111EB) & _MASK
    return acc ^ (acc >> 31)


def mix(*values: int) -> int:
    """Mix any number of integers into a well-scrambled 64-bit value."""
    acc = 0x9E3779B97F4A7C15
    for value in values:
        acc = mix_step(acc, value)
    return acc


def mix_array(*values: "int | np.ndarray",
              acc: int = 0x9E3779B97F4A7C15) -> "np.ndarray":
    """Vectorized :func:`mix`: each operand is a scalar or a ``uint64`` array.

    Operands broadcast against each other; the result equals
    ``[mix(*row) for row in zip(*broadcast(values))]`` bit for bit, but is
    computed with a constant number of NumPy operations per operand.  All
    arithmetic is modulo ``2**64`` (``uint64`` wraparound), exactly like
    the masked Python-integer arithmetic of the scalar form.  ``acc`` is
    an already mixed prefix, as in :func:`mix_step`: ``mix_array(v,
    acc=mix(*head))`` equals ``mix_array(*head, v)``.
    """
    import numpy as np

    with np.errstate(over="ignore"):
        acc = np.asarray(np.uint64(acc))
        golden = np.uint64(0x9E3779B97F4A7C15)
        m1 = np.uint64(0xBF58476D1CE4E5B9)
        m2 = np.uint64(0x94D049BB133111EB)
        for value in values:
            operand = np.asarray(value).astype(np.uint64)
            acc = acc + operand + golden
            acc = acc ^ (acc >> np.uint64(30))
            acc = acc * m1
            acc = acc ^ (acc >> np.uint64(27))
            acc = acc * m2
            acc = acc ^ (acc >> np.uint64(31))
    return acc


def path_key(path: tuple[int, ...]) -> int:
    """A unique integer for a binary tree path (1-prefixed bit string)."""
    key = 1
    for bit in path:
        key = (key << 1) | bit
    return key
