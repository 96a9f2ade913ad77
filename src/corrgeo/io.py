"""Binary tensor/label files and checkpoint directories.

Tensor file layout (little endian throughout):
    magic "CORT" | version u8 = 1 | dtype u8 = 0 (float64) | 2 reserved bytes
    | ndim u32 | ndim x u32 shape | row-major float64 payload

Label file layout:
    magic "CORL" | count u32 | count x u32

A checkpoint is a directory holding ``manifest.txt`` (config echo plus a
``tensor <name> <shape>`` line per block) and one tensor file per block.
"""

import math
import struct
from pathlib import Path

import numpy as np

from .errors import IoError

TENSOR_MAGIC = b"CORT"
LABEL_MAGIC = b"CORL"


def write_tensor(path, array):
    array = np.ascontiguousarray(array, dtype="<f8")
    shape = array.shape
    try:
        with open(path, "wb") as fh:
            fh.write(TENSOR_MAGIC)
            fh.write(struct.pack("<BBxx", 1, 0))
            fh.write(struct.pack("<I", array.ndim))
            fh.write(struct.pack(f"<{array.ndim}I", *shape))
            fh.write(array.tobytes(order="C"))
    except OSError as e:
        raise IoError(f"cannot write tensor file {path}: {e}") from e


def read_tensor(path):
    try:
        blob = Path(path).read_bytes()
    except OSError as e:
        raise IoError(f"cannot read tensor file {path}: {e}") from e
    if blob[:4] != TENSOR_MAGIC:
        raise IoError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 12:
        raise IoError(f"{path}: truncated header")
    version, dtype = struct.unpack_from("<BB", blob, 4)
    if version != 1 or dtype != 0:
        raise IoError(f"{path}: unsupported version/dtype {version}/{dtype}")
    (ndim,) = struct.unpack_from("<I", blob, 8)
    off = 12 + 4 * ndim
    if len(blob) < off:
        raise IoError(f"{path}: truncated shape")
    shape = struct.unpack_from(f"<{ndim}I", blob, 12)
    count = math.prod(shape)  # Python ints: a huge shape cannot wrap to a small count
    expect = off + 8 * count
    if len(blob) != expect:
        raise IoError(f"{path}: payload length {len(blob)} != {expect}")
    data = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
    return data.reshape(shape).astype(np.float64)


def write_labels(path, labels):
    labels = np.asarray(labels, dtype="<u4")
    try:
        with open(path, "wb") as fh:
            fh.write(LABEL_MAGIC)
            fh.write(struct.pack("<I", labels.size))
            fh.write(labels.tobytes())
    except OSError as e:
        raise IoError(f"cannot write label file {path}: {e}") from e


def read_labels(path):
    try:
        blob = Path(path).read_bytes()
    except OSError as e:
        raise IoError(f"cannot read label file {path}: {e}") from e
    if blob[:4] != LABEL_MAGIC:
        raise IoError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 8:
        raise IoError(f"{path}: truncated header")
    (count,) = struct.unpack_from("<I", blob, 4)
    if len(blob) != 8 + 4 * count:
        raise IoError(f"{path}: truncated label payload")
    return np.frombuffer(blob, dtype="<u4", count=count, offset=8).astype(np.int64)


def write_checkpoint(path, config_lines, params):
    """Write manifest + one tensor file per parameter block."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create checkpoint dir {path}: {e}") from e
    lines = ["# corrgeo checkpoint v1"]
    lines.extend(config_lines)
    for name in sorted(params):
        arr = np.asarray(params[name])
        shape = ",".join(str(s) for s in arr.shape)
        lines.append(f"tensor {name} {shape}")
        write_tensor(path / f"{name}.cort", arr)
    try:
        (path / "manifest.txt").write_text("\n".join(lines) + "\n")
    except OSError as e:
        raise IoError(f"cannot write manifest: {e}") from e


def read_checkpoint(path):
    """Returns (config dict of strings, params dict of arrays)."""
    path = Path(path)
    try:
        text = (path / "manifest.txt").read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise IoError(f"cannot read manifest in {path}: {e}") from e
    config = {}
    params = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("tensor "):
            try:
                _, name, shape = line.split(" ", 2)
                expect = tuple(int(s) for s in shape.split(",") if s)
            except ValueError as e:
                raise IoError(f"{path / 'manifest.txt'}: bad tensor line {line!r}") from e
            # a block name is a file name in the checkpoint, never a path
            if name in ("", ".", "..") or "/" in name or "\0" in name:
                raise IoError(f"{path / 'manifest.txt'}: bad tensor name {name!r}")
            arr = read_tensor(path / f"{name}.cort")
            if arr.shape != expect:
                raise IoError(f"{name}: shape {arr.shape} != manifest {expect}")
            params[name] = arr
        elif "=" in line:
            key, val = line.split("=", 1)
            config[key.strip()] = val.strip()
    return config, params
