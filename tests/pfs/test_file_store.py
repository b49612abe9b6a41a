"""Property tests for LustreFile's extent store against a bytearray model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pfs.layout import StripeLayout
from repro.pfs.lustre import LustreFile

LAYOUT = StripeLayout(stripe_size=64, stripe_count=2, start_ost=0, num_osts=4)


def new_file(store_data=True):
    return LustreFile(1, "f", LAYOUT, store_data)


def as_buffer(data: bytes, kind: int):
    """``data`` as one of the immutable buffer kinds writers hand over."""
    if kind == 0:
        return data
    if kind == 1:
        return bytearray(data)  # an owned buffer
    return memoryview(data).toreadonly()


payloads = st.binary(min_size=0, max_size=40)
parts = st.lists(
    st.tuples(payloads, st.integers(0, 2)), min_size=1, max_size=4
).map(lambda items: tuple(as_buffer(data, kind) for data, kind in items))
ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.integers(0, 160), payloads),
        st.tuples(st.just("storev"), st.integers(0, 160), parts),
        st.tuples(st.just("extend"), st.integers(0, 200), st.integers(0, 40)),
        st.tuples(st.just("load"), st.integers(0, 220), st.integers(0, 120)),
    ),
    max_size=40,
)


class Model:
    """The old store: one zero-filled bytearray plus a logical size."""

    def __init__(self):
        self.data = bytearray()
        self.size = 0

    def store(self, offset, data):
        end = offset + len(data)
        if end > len(self.data):
            self.data.extend(bytes(end - len(self.data)))
        self.data[offset:end] = data
        self.size = max(self.size, end)

    def load(self, offset, nbytes):
        end = min(offset + nbytes, self.size)
        if end <= offset:
            return b""
        chunk = bytes(self.data[offset:end])
        return chunk + bytes(end - offset - len(chunk))


def check_invariants(file):
    starts, bufs = file._starts, file._bufs
    assert len(starts) == len(bufs)
    for i, buf in enumerate(bufs):
        assert len(buf) > 0
        if i:
            assert starts[i - 1] + len(bufs[i - 1]) <= starts[i]
    if starts:
        assert starts[-1] + len(bufs[-1]) <= file.size


def replay(file, model, sequence):
    for op, offset, arg in sequence:
        if op == "store":
            file.store(offset, arg)
            model.store(offset, arg)
        elif op == "storev":
            file.store(offset, arg)
            model.store(offset, b"".join(arg))
        elif op == "extend":
            file.extend_size(offset, arg)
            model.size = max(model.size, offset + arg)
        else:
            got = file.load(offset, arg)
            assert type(got) is bytes  # never a mutable object
            assert got == model.load(offset, arg)
        assert file.size == model.size


class TestExtentStore:
    @settings(max_examples=300, deadline=None)
    @given(ops)
    def test_matches_bytearray_model(self, sequence):
        file, model = new_file(), Model()
        replay(file, model, sequence)
        check_invariants(file)
        for offset in range(0, model.size + 8, 7):
            assert file.load(offset, 50) == model.load(offset, 50)
        assert file.load(0, model.size + 1) == bytes(model.data) + bytes(
            model.size - len(model.data)
        )

    @settings(max_examples=100, deadline=None)
    @given(ops)
    def test_data_less_mode_reads_zeros(self, sequence):
        file = new_file(store_data=False)
        size = 0
        for op, offset, arg in sequence:
            if op in ("store", "storev"):
                length = len(arg) if op == "store" else sum(map(len, arg))
                file.store(offset, arg)
                size = max(size, offset + length)
            elif op == "extend":
                file.extend_size(offset, arg)
                size = max(size, offset + arg)
            else:
                got = file.load(offset, arg)
                assert type(got) is bytes
                assert got == bytes(max(0, min(offset + arg, size) - offset))
        assert file.size == size

    def test_exact_extent_is_returned_by_reference(self):
        file = new_file()
        head, body = b"h" * 10, b"b" * 100
        file.store(0, (head, body))
        assert file.load(10, 100) is body
        assert file.load(20, 30) == b"b" * 30  # one slice inside an extent

    def test_overwrite_splits_and_covers_extents(self):
        file = new_file()
        file.store(0, (b"a" * 10, b"b" * 10, b"c" * 10))
        file.store(5, b"X" * 10)  # inside a, across into b
        file.store(25, b"Y" * 10)  # past EOF from inside c
        file.store(0, b"Z" * 3)  # head of the split a
        assert file.load(0, 100) == b"ZZZaa" + b"X" * 10 + b"b" * 5 + (
            b"c" * 5 + b"Y" * 10
        )
        file.store(0, b"W" * 35)  # covers every extent
        assert file.load(0, 100) == b"W" * 35
        check_invariants(file)

    def test_holes_read_as_zeros_and_reads_stop_at_eof(self):
        file = new_file()
        file.store(10, b"abc")
        file.store(20, bytearray(b"de"))
        file.extend_size(30, 5)
        assert file.load(0, 100) == (
            bytes(10) + b"abc" + bytes(7) + b"de" + bytes(13)
        )
        assert file.load(34, 10) == bytes(1)
        assert file.load(35, 10) == b""
        assert type(file.load(20, 2)) is bytes  # owned bytearray extent
