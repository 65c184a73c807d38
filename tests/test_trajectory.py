import json
import math
import struct

import numpy as np
import pytest

from conftest import big_n_snapshot
from nsvlab.fields import ScalarSpectralField, VelocityField, half_spectrum, random_band_limited
from nsvlab.norms import NormReport
from nsvlab.snapshot import (
    MAGIC,
    SnapshotFormatError,
    read_snapshot,
    write_snapshot,
)
from nsvlab.trajectory import (
    Trajectory,
    TrajectoryFormatError,
    TrajectorySample,
    read_trajectory,
    write_trajectory_csv,
    write_trajectory_json,
)


def sample_trajectory():
    def report(scale):
        return NormReport(
            l2=0.5 * scale,
            hdot={0.5: 0.7 * scale, 1.0: 0.9 * scale, 2.5: 1.3 * scale},
            leilin={-1.0: 1.1 * scale, 0.0: 2.0 * scale, 1.0: 3.3 * scale},
        )

    samples = [
        TrajectorySample(t=0.0, step_index=0, dt=0.01, norms=report(1.0)),
        # awkward floats must survive the round trip exactly
        TrajectorySample(t=0.1 + 0.2, step_index=3, dt=0.01, norms=report(1 / 3)),
        TrajectorySample(t=0.05, step_index=5, dt=0.01, norms=report(math.pi)),
    ]
    return Trajectory(
        lattice_n=16,
        period=2.0 * math.pi,
        config={"nu": 0.05, "dt": 0.01, "note": "fixture"},
        code_version="0.0-test",
        samples=samples,
        failed=True,
        failure_reason="synthetic, for testing",
    )


@pytest.mark.parametrize("writer", [write_trajectory_csv, write_trajectory_json])
def test_round_trip_is_exact(tmp_path, writer):
    traj = sample_trajectory()
    path = tmp_path / "traj.out"
    writer(traj, path)
    back = read_trajectory(path)
    assert back.lattice_n == traj.lattice_n
    assert back.period == traj.period
    assert back.config == traj.config
    assert back.code_version == traj.code_version
    assert back.failed is True
    assert back.failure_reason == traj.failure_reason
    assert len(back.samples) == 3
    for a, b in zip(back.samples, traj.samples):
        assert a.t == b.t  # exact: repr floats
        assert a.step_index == b.step_index
        assert a.dt == b.dt
        assert a.norms.to_record() == b.norms.to_record()


def test_writes_are_deterministic(tmp_path):
    traj = sample_trajectory()
    pairs = []
    for name, writer in (("csv", write_trajectory_csv), ("json", write_trajectory_json)):
        p1 = tmp_path / f"a.{name}"
        p2 = tmp_path / f"b.{name}"
        writer(traj, p1)
        writer(traj, p2)
        pairs.append((p1.read_bytes(), p2.read_bytes()))
    for one, two in pairs:
        assert one == two


def test_csv_layout(tmp_path):
    traj = sample_trajectory()
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# nsvlab-trajectory v1"
    assert lines[1].startswith("# lattice: ")
    assert json.loads(lines[1].split(": ", 1)[1]) == {"n": 16, "period": 2.0 * math.pi}
    assert lines[6] == "t,step,dt,l2,h0.5,h1,h2.5,x-1,x0,x1"
    assert len(lines) == 7 + 3
    # repr formatting, no rounding
    assert lines[8].split(",")[0] == repr(0.1 + 0.2)


def test_series_and_times_helpers():
    traj = sample_trajectory()
    assert traj.times == [0.0, 0.1 + 0.2, 0.05]
    assert traj.series("l2") == [0.5, 0.5 / 3, 0.5 * math.pi]
    assert traj.series("h2.5")[0] == 1.3
    assert traj.series("x-1")[2] == 1.1 * math.pi
    assert traj.nu() == 0.05
    assert Trajectory(8, 1.0, {}, "v").nu() is None
    with pytest.raises(KeyError):
        traj.series("h9")


def test_csv_errors_name_the_line(tmp_path):
    traj = sample_trajectory()
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    text = path.read_text()

    bad_magic = tmp_path / "magic.csv"
    bad_magic.write_text("t,step,dt\n0,0,0.1\n")
    with pytest.raises(TrajectoryFormatError, match="line 1"):
        read_trajectory(bad_magic)

    bad_version = tmp_path / "version.csv"
    bad_version.write_text(text.replace("v1", "v9", 1))
    with pytest.raises(TrajectoryFormatError, match="version"):
        read_trajectory(bad_version)

    lines = text.splitlines()
    bad_columns = tmp_path / "columns.csv"
    bad_columns.write_text("\n".join(lines[:6] + ["time,step,dt"] + lines[7:]) + "\n")
    with pytest.raises(TrajectoryFormatError, match="line 7"):
        read_trajectory(bad_columns)

    truncated_row = tmp_path / "row.csv"
    truncated_row.write_text("\n".join(lines[:-1] + [lines[-1].rsplit(",", 2)[0]]) + "\n")
    with pytest.raises(TrajectoryFormatError, match="line 10"):
        read_trajectory(truncated_row)

    bad_number = tmp_path / "number.csv"
    bad_number.write_text(text.replace(repr(0.1 + 0.2), "not-a-float", 1))
    with pytest.raises(TrajectoryFormatError, match="line 9"):
        read_trajectory(bad_number)

    header_only = tmp_path / "short.csv"
    header_only.write_text(lines[0] + "\n")
    with pytest.raises(TrajectoryFormatError, match="truncated"):
        read_trajectory(header_only)


def test_json_errors(tmp_path):
    not_ours = tmp_path / "other.json"
    not_ours.write_text('{"format": "something-else"}\n')
    with pytest.raises(TrajectoryFormatError, match="not a nsvlab-trajectory"):
        read_trajectory(not_ours)

    broken = tmp_path / "broken.json"
    broken.write_text('{"format": "nsvlab-trajectory", "version": 1,\n')
    with pytest.raises(TrajectoryFormatError, match="invalid JSON"):
        read_trajectory(broken)

    bad_sample = tmp_path / "sample.json"
    bad_sample.write_text(json.dumps({
        "format": "nsvlab-trajectory",
        "version": 1,
        "lattice": {"n": 8, "period": 1.0},
        "samples": [{"t": 0.0, "step": 0}],
    }))
    with pytest.raises(TrajectoryFormatError, match="sample record 0"):
        read_trajectory(bad_sample)

    wrong_version = tmp_path / "v2.json"
    wrong_version.write_text('{"format": "nsvlab-trajectory", "version": 2}\n')
    with pytest.raises(TrajectoryFormatError, match="version"):
        read_trajectory(wrong_version)


def edit_header(path, key, value):
    """Set one header entry of either serialization to ``value``."""
    text = path.read_text()
    if text.startswith("{"):
        doc = json.loads(text)
        doc[key] = value
        path.write_text(json.dumps(doc))
        return
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(f"# {key}: "))
    lines[index] = f"# {key}: {json.dumps(value)}"
    path.write_text("\n".join(lines) + "\n")


MALFORMED_HEADERS = [
    ("lattice", {"period": 1.0}),
    ("lattice", [1]),
    ("config", [1]),
    ("failed", "false"),
    ("failure_reason", 3),
]


@pytest.mark.parametrize("writer", [write_trajectory_csv, write_trajectory_json])
@pytest.mark.parametrize(
    "key,value", MALFORMED_HEADERS, ids=[f"{key}={value!r}" for key, value in MALFORMED_HEADERS]
)
def test_malformed_header_is_a_format_error(tmp_path, writer, key, value):
    path = tmp_path / "traj.out"
    writer(sample_trajectory(), path)
    edit_header(path, key, value)
    with pytest.raises(TrajectoryFormatError, match=key):
        read_trajectory(path)


JSON_DEFECTS = {
    "samples=5": (lambda doc: doc.update(samples=5), "samples"),
    "norms=[1]": (lambda doc: doc["samples"][0].update(norms=[1]), "sample record 0"),
    "step=inf": (lambda doc: doc["samples"][1].update(step=math.inf), "sample record 1"),
    "n=inf": (lambda doc: doc["lattice"].update(n=math.inf), "lattice"),
    # JSON values are checked, not converted: a bool is not a number, and
    # n and step must be integers
    "n=16.7": (lambda doc: doc["lattice"].update(n=16.7), "lattice"),
    "t=false": (lambda doc: doc["samples"][0].update(t=False), "sample record 0"),
    "dt='0.01'": (lambda doc: doc["samples"][1].update(dt="0.01"), "sample record 1"),
    "step=1.5": (lambda doc: doc["samples"][2].update(step=1.5), "sample record 2"),
    "l2=true": (lambda doc: doc["samples"][0]["norms"].update(l2=True), "sample record 0"),
}


@pytest.mark.parametrize("edit,match", JSON_DEFECTS.values(), ids=JSON_DEFECTS.keys())
def test_json_structure_defects_are_format_errors(tmp_path, edit, match):
    path = tmp_path / "traj.json"
    write_trajectory_json(sample_trajectory(), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(TrajectoryFormatError, match=match):
        read_trajectory(path)


def test_empty_trajectory_round_trips(tmp_path):
    traj = Trajectory(8, 2.0 * math.pi, {"nu": 0.1}, "x")
    for writer in (write_trajectory_csv, write_trajectory_json):
        path = tmp_path / "empty.out"
        writer(traj, path)
        back = read_trajectory(path)
        assert back.samples == []
        assert back.failed is False


# ---------------------------------------------------------------------------
# Snapshots


def test_velocity_snapshot_round_trip(tmp_path, lat16):
    u = random_band_limited(lat16, 1.0, 5.0, 1.5, seed=11)
    path = tmp_path / "state.nsv"
    write_snapshot(path, u)
    back = read_snapshot(path)
    assert isinstance(back, VelocityField)
    assert back.lattice == lat16
    for a, b in zip(back.components, u.components):
        assert np.array_equal(a.coefficients, b.coefficients)


def test_scalar_snapshot_round_trip(tmp_path, lat8):
    rng = np.random.default_rng(3)
    values = rng.standard_normal(lat8.shape)
    values -= values.mean()
    coeff = np.fft.fftn(values) / float(lat8.n**3)
    f = ScalarSpectralField(lat8, coeff)
    path = tmp_path / "scalar.nsv"
    write_snapshot(path, f)
    back = read_snapshot(path)
    assert isinstance(back, ScalarSpectralField)
    assert np.array_equal(back.coefficients, f.coefficients)


def test_snapshot_header_layout(tmp_path, lat8):
    zero = ScalarSpectralField(lat8, lat8.zeros())
    path = tmp_path / "zero.nsv"
    write_snapshot(path, zero)
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    assert len(raw) == 8 + 4 * 4 + 8 + 8**3 * 16


def test_snapshot_rejects_non_fields(tmp_path):
    with pytest.raises(TypeError):
        write_snapshot(tmp_path / "x.nsv", np.zeros((8, 8, 8)))


def test_snapshot_format_errors(tmp_path, lat8):
    zero = ScalarSpectralField(lat8, lat8.zeros())
    path = tmp_path / "zero.nsv"
    write_snapshot(path, zero)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.nsv"
    bad_magic.write_bytes(b"NOTAFILE" + raw[8:])
    with pytest.raises(SnapshotFormatError, match="magic"):
        read_snapshot(bad_magic)

    short = tmp_path / "short.nsv"
    short.write_bytes(raw[:12])
    with pytest.raises(SnapshotFormatError, match="header"):
        read_snapshot(short)

    truncated = tmp_path / "trunc.nsv"
    truncated.write_bytes(raw[:-64])
    with pytest.raises(SnapshotFormatError, match="truncated"):
        read_snapshot(truncated)

    bad_version = tmp_path / "version.nsv"
    bad_version.write_bytes(raw[:8] + (9).to_bytes(4, "little") + raw[12:])
    with pytest.raises(SnapshotFormatError, match="version"):
        read_snapshot(bad_version)

    bad_count = tmp_path / "count.nsv"
    bad_count.write_bytes(raw[:12] + (2).to_bytes(4, "little") + raw[16:])
    with pytest.raises(SnapshotFormatError, match="component count"):
        read_snapshot(bad_count)


def test_snapshot_rejects_bytes_after_the_payload(tmp_path, lat16):
    u = random_band_limited(lat16, 1.0, 5.0, 1.5, seed=11)
    path = tmp_path / "state.nsv"
    write_snapshot(path, u)
    raw = path.read_bytes()

    # a header claiming n=8 in front of the n=16 payload
    relabelled = tmp_path / "relabelled.nsv"
    relabelled.write_bytes(raw[:16] + (8).to_bytes(4, "little") + raw[20:])
    with pytest.raises(SnapshotFormatError, match="bytes left"):
        read_snapshot(relabelled)

    trailing = tmp_path / "trailing.nsv"
    trailing.write_bytes(raw + b"\0")
    with pytest.raises(SnapshotFormatError, match="bytes left"):
        read_snapshot(trailing)


def test_snapshot_checks_the_header_against_the_file_size_first(tmp_path):
    # the n=1024 stack would take 24 GiB; the file's size shows the header
    # wrong before any of it is allocated
    path = big_n_snapshot(tmp_path / "big.nsv")
    assert path.stat().st_size == 1056
    with pytest.raises(SnapshotFormatError, match="n=1024 take 51539607584 bytes, the file 1056"):
        read_snapshot(path)


@pytest.mark.parametrize("components", [1, 3])
@pytest.mark.parametrize("n", [8, 10, 16, 32, 64])
def test_snapshot_read_is_the_unshifted_half_of_the_payload(tmp_path, n, components):
    # every coefficient is set, the Nyquist planes included, and some hold -0.0
    rng = np.random.default_rng(n + components)
    cubes = rng.standard_normal((components, n, n, n, 2)).view(np.complex128)[..., 0]
    cubes[:, 0, :2] = -0.0
    path = tmp_path / "centered.nsv"
    header = struct.pack("<8sIIIId", MAGIC, 1, components, n, 0, 2.0 * math.pi)
    path.write_bytes(header + cubes.astype("<c16").tobytes())
    expected = np.stack([half_spectrum(np.fft.ifftshift(cube)) for cube in cubes])
    assert read_snapshot(path)._stack.tobytes() == expected.tobytes()
