"""The replay bundle's columnar batch encoding (repro.forensics.capture)."""

from __future__ import annotations

import json

from hypothesis import given, strategies as st

from repro.forensics.capture import _decode_batch, _encode_batch, _fids_json
from repro.model.packet import Packet

_FIDS = st.one_of(
    st.text(max_size=6),
    st.text(alphabet='ab"\\\n\x7f é', max_size=4),
    st.integers(-5, 5),
    st.tuples(st.integers(0, 9), st.text(max_size=3)),
)


@given(st.lists(_FIDS, max_size=12))
def test_fid_column_is_byte_identical_to_json_dumps(fids):
    """The joined fast path for plain names and the general encoder both
    write exactly what json.dumps writes."""
    assert _fids_json(fids) == json.dumps(fids, separators=(",", ":"))


_ROWS = st.tuples(st.integers(0, 2**62), st.integers(1, 9000), _FIDS)


@given(st.lists(_ROWS, max_size=12))
def test_batch_round_trips(rows):
    batch = [Packet(time=t, size=s, fid=f) for t, s, f in rows]
    decoded = [
        (t, s, tuple(f) if isinstance(f, list) else f)
        for t, s, f in _decode_batch(_encode_batch(batch))
    ]
    assert decoded == [(p.time, p.size, p.fid) for p in batch]
