"""``stable_order``: the stable argsort every sort in the stack runs.

Integer keys of 4 or 8 bytes sort as packed ``(key - min) << b |
position`` words; every other input takes ``np.argsort(kind="stable")``.
Either way the permutation must be the stable argsort's, bit for bit,
as a fresh C-contiguous int64 array that owns its data (the CSR build
hands it out as ``Graph.halfedges``).
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.mpc.kernels import stable_order

DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
    np.bool_, np.float64, object,
]


def _boundary_span(n: int, bits: int) -> int:
    """The widest key span that packs for ``n`` keys (``bits = 64``: its
    bit length plus ``b``, the bit length of ``n - 1``, is 64), or one
    more, the narrowest that does not (``bits = 65``)."""
    packed = (1 << (64 - (n - 1).bit_length())) - 1
    return packed if bits == 64 else packed + 1


def _boundary_keys(dtype, n: int, bits: int, lo: int) -> np.ndarray:
    """``n ≥ 2`` unsorted keys from ``lo`` to ``lo + _boundary_span(n,
    bits)``."""
    span = _boundary_span(n, bits)
    middle = [lo + span * i // (n - 1) for i in range(n - 2, 0, -1)]
    return np.array([lo + span, lo, *middle], dtype=dtype)


@st.composite
def key_arrays(draw):
    """1-D keys of every dtype: narrow windows anywhere in an integer
    range (ties, and uint64 keys above 2**63 that still pack), whole
    ranges, spans at the packing boundary, and float and object keys."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    n = draw(st.integers(0, 300))
    if dtype.kind == "b":
        elements = st.booleans()
    elif dtype.kind == "f":
        elements = st.floats(width=64)
    elif dtype.kind == "O":
        elements = st.integers(-(2**70), 2**70)
    else:
        info = np.iinfo(dtype)
        if dtype.itemsize == 8 and n >= 2 and draw(st.booleans()):
            bits = draw(st.sampled_from([64, 65]))
            span = _boundary_span(n, bits)
            lo = draw(st.integers(int(info.min), int(info.max) - span))
            keys = _boundary_keys(dtype, n, bits, lo)
            return keys[draw(st.permutations(range(n)))]
        full = int(info.max) - int(info.min)
        width = min(full, draw(st.sampled_from([3, 2**20, full])))
        lo = draw(st.integers(int(info.min), int(info.max) - width))
        elements = st.integers(lo, lo + width)
    return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(keys=key_arrays())
@example(keys=np.empty(0, dtype=np.int64))
@example(keys=np.array([5], dtype=np.int64))
@example(keys=np.array([2, 2], dtype=np.int32))
@example(keys=np.array([-3, -7, -3, 0, -7], dtype=np.int64))
@example(keys=np.array([2**63 + 9, 2**63, 2**63 + 9, 2**63 + 1], dtype=np.uint64))
@example(keys=_boundary_keys(np.int64, 5, 64, -(2**63)))
@example(keys=_boundary_keys(np.int64, 5, 65, -(2**63)))
@example(keys=_boundary_keys(np.uint64, 1000, 64, 0))
@example(keys=_boundary_keys(np.uint64, 1000, 65, 2**20))
@example(keys=np.array([0.5, -0.0, 0.0, np.nan, 0.5, -np.inf]))
@example(keys=np.array([3, 2**80, 3, -1], dtype=object))
def test_stable_order_is_the_stable_argsort(keys):
    got = stable_order(keys)
    assert got.dtype == np.int64
    assert got.flags.c_contiguous
    assert got.base is None
    assert np.array_equal(got, np.argsort(keys, kind="stable"))
