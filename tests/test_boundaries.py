"""Every file and config boundary either reads its input or raises a typed
``CorrGeoError``, which the CLI maps to an exit code: never a raw exception.

Each property test mutates the input layout field by field (magic, header,
shape, payload length, encoding, names, values).  The ``@example`` inputs
are the findings these tests were written for.
"""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrgeo import io
from corrgeo import train as trainmod
from corrgeo.config import RunConfig, parse_config_text
from corrgeo.errors import CorrGeoError

cases = settings(max_examples=60)

# u32 header fields: small, or at the edges of the range
u32 = st.one_of(st.integers(0, 4), st.sampled_from([2**31, 2**32 - 1]))
# the one field a blob gets wrong, if any
faults = st.sampled_from([None, "magic", "version", "ndim", "shape", "length", "cut"])


def read_or_typed_error(read, blob):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f"
        path.write_bytes(blob)
        try:
            return read(path)
        except CorrGeoError:
            return None


def payload(draw, fault, size):
    length = draw(st.integers(0, 64)) if fault == "length" or size > 64 else size
    return draw(st.binary(min_size=length, max_size=length))


def cut(draw, fault, blob):
    return blob[:draw(st.integers(0, len(blob) - 1))] if fault == "cut" and blob else blob


@st.composite
def tensor_blobs(draw):
    fault = draw(faults)
    magic = draw(st.sampled_from([io.LABEL_MAGIC, b"", b"CO"])) if fault == "magic" else io.TENSOR_MAGIC
    version, dtype = draw(st.sampled_from([(0, 0), (2, 0), (1, 1), (1, 255)])) if fault == "version" else (1, 0)
    shape = draw(st.lists(u32 if fault == "shape" else st.integers(0, 3), max_size=4))
    ndim = draw(u32) if fault == "ndim" else len(shape)
    blob = (magic + struct.pack("<BBxxI", version, dtype, ndim) + struct.pack(f"<{len(shape)}I", *shape)
            + payload(draw, fault, 8 * math.prod(shape)))
    return cut(draw, fault, blob)


@st.composite
def label_blobs(draw):
    fault = draw(faults)
    magic = draw(st.sampled_from([io.TENSOR_MAGIC, b"", b"CO"])) if fault == "magic" else io.LABEL_MAGIC
    count = draw(u32 if fault in ("ndim", "shape") else st.integers(0, 8))
    blob = magic + struct.pack("<I", count) + payload(draw, fault, 4 * count)
    return cut(draw, fault, blob)


class TestTensorAndLabelFiles:
    @cases
    @given(blob=tensor_blobs())
    @example(blob=io.TENSOR_MAGIC + struct.pack("<BBxx4I", 1, 0, 3, 2**31, 2**31, 4))
    def test_read_tensor(self, blob):
        arr = read_or_typed_error(io.read_tensor, blob)
        assert arr is None or (arr.dtype == np.float64 and 12 + 4 * arr.ndim + 8 * arr.size == len(blob))

    @cases
    @given(blob=label_blobs())
    def test_read_labels(self, blob):
        labels = read_or_typed_error(io.read_labels, blob)
        assert labels is None or 8 + 4 * labels.size == len(blob)


def plain(name):
    return name not in ("", ".", "..") and "/" not in name and "\0" not in name


names = st.one_of(
    st.sampled_from(["conv.z", "mlr.gamma"]),
    st.sampled_from(["../outside", "sub/x", ".", "..", "", "conv.z\0", "outside"]),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=8),
)
shapes = st.one_of(
    st.sampled_from(["2,2", "3"]),
    st.lists(st.integers(-2, 4), max_size=3).map(lambda s: ",".join(map(str, s))),
    st.text(max_size=6),
)
manifest_lines = st.one_of(
    st.builds(lambda n, s: f"tensor {n} {s}", names, shapes),
    st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(["seed", "n_in", "x"]), st.text(max_size=6)),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=20),
)


class TestCheckpoints:
    """Manifest lines and tensor names.  The directory holds conv.z (2, 2)
    and mlr.gamma (3,); its parent holds outside.cort, which no name may
    reach."""

    @cases
    @given(manifest=st.one_of(
        st.lists(manifest_lines, max_size=6).map(lambda ls: "\n".join(ls).encode()),
        st.binary(max_size=40),
    ))
    @example(manifest=b"tensor ../outside 2,2\n")
    @example(manifest=b"tensor conv.z\0 1,2\n")
    def test_read_checkpoint(self, manifest):
        with tempfile.TemporaryDirectory() as d:
            ckpt = Path(d) / "ckpt"
            ckpt.mkdir()
            io.write_tensor(Path(d) / "outside.cort", np.zeros((2, 2)))
            io.write_tensor(ckpt / "conv.z.cort", np.zeros((2, 2)))
            io.write_tensor(ckpt / "mlr.gamma.cort", np.zeros(3))
            (ckpt / "manifest.txt").write_bytes(manifest)
            try:
                _, params = io.read_checkpoint(ckpt)
            except CorrGeoError:
                return
        assert all(plain(name) for name in params)


# Sizes either small, or so large that no float64 array of the network fits
# in the address space; a size in between would be a real allocation.
huge = st.sampled_from([2**60, 2**63, 999999999999999999999])
sizes = st.one_of(st.integers(-1, 6), huge).map(str)
values = {
    "n_in": st.one_of(sizes, st.just("3000000000")),
    "m_hidden": st.one_of(sizes, st.just("3000000000")),
    **{k: sizes for k in ("channels", "field_size", "stride", "kernels", "classes")},
    **{k: st.one_of(st.integers(-1, 3), huge).map(str)
       for k in ("batch_size", "epochs", "seed", "dplus_max_iter")},
    **{k: st.sampled_from(["0.1", "-1", "0", "1e-12", "nan", "inf", "1e400", "x"])
       for k in ("power", "lr", "weight_decay", "dplus_tol", "dstar_tol")},
    **{k: st.sampled_from(["ecm", "lecm", "olm", "lsm", "phcm", "spd", ""]) for k in ("conv_metric", "mlr_metric")},
    "optimizer": st.sampled_from(["adam", "sgd", "rmsprop"]),
    "dstar_mode": st.sampled_from(["full", "newton1", "newton2"]),
    "activation": st.sampled_from(["none", "tangent_relu", "relu"]),
}
assert values.keys() == RunConfig.__dataclass_fields__.keys()
config_lines = st.one_of(
    st.sampled_from(sorted(values)).flatmap(lambda k: values[k].map(lambda v: f"{k} = {v}")),
    st.text(max_size=12),
)


class TestConfigs:
    @cases
    @given(lines=st.lists(config_lines, max_size=8))
    @example(lines=["n_in = 999999999999999999999"])
    @example(lines=["m_hidden = 3000000000"])
    def test_parse_validate_build(self, lines):
        try:
            trainmod.build_from_config(parse_config_text("\n".join(lines)))
        except CorrGeoError:
            pass
