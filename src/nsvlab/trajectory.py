"""Trajectory containers and their CSV/JSON serialization.

A trajectory is a header (config echo, lattice, code version, failure
marker) plus one record per sample: time, step index, step size, and the
flat norm record.  Both writers go through ``_tables``, which formats
floats with ``repr``, so equal configurations produce byte-identical
files and every value round-trips exactly.  No timestamps enter them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from ._tables import table_text, write_json, write_text
from .norms import NormReport

__all__ = [
    "TrajectoryFormatError",
    "TrajectorySample",
    "Trajectory",
    "write_trajectory_csv",
    "write_trajectory_json",
    "read_trajectory",
]

FORMAT_NAME = "nsvlab-trajectory"
FORMAT_VERSION = 1


class TrajectoryFormatError(ValueError):
    """A trajectory file failed to parse; the message names the spot."""


class _MissingColumnError(ValueError, KeyError):
    """A norm column the samples lack; still a KeyError, as it was before."""

    __str__ = BaseException.__str__  # the message itself, not KeyError's repr of it


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    step_index: int
    dt: float
    norms: NormReport

    @cached_property
    def _record(self) -> dict[str, float]:
        """The flat norm record, built once for the writers and :meth:`Trajectory.series`."""
        return self.norms.to_record()


@dataclass
class Trajectory:
    lattice_n: int
    period: float
    config: dict
    code_version: str
    samples: list[TrajectorySample] = field(default_factory=list)
    failed: bool = False
    failure_reason: str = ""

    @property
    def times(self) -> list[float]:
        return [s.t for s in self.samples]

    def series(self, key: str) -> list[float]:
        """One norm column across samples, by record key ('l2', 'h2.5', ...)."""
        try:
            return [s._record[key] for s in self.samples]
        except KeyError:
            raise _MissingColumnError(f"trajectory has no {key!r} norm column") from None

    def nu(self) -> float | None:
        value = self.config.get("nu")
        return float(value) if value is not None else None

    def _check_samples(self, min_samples: int = 2) -> None:
        """The sample-count guard of every trajectory check."""
        count = len(self.samples)
        if count < min_samples:
            raise ValueError(
                "trajectory has no samples" if count == 0
                else f"need at least {min_samples} samples"
            )

    def _checked_nu(self, nu: float | None = None, min_samples: int = 2) -> float:
        """The input guard of every check that needs the viscosity: the
        sample count, then ``nu`` or else the recorded viscosity."""
        self._check_samples(min_samples)
        if nu is None:
            nu = self.nu()
        if nu is None:
            raise ValueError("viscosity not recorded in the trajectory; pass nu explicitly")
        return nu


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    lattice = {"n": trajectory.lattice_n, "period": trajectory.period}
    header = (
        f"lattice: {json.dumps(lattice)}",
        f"config: {json.dumps(trajectory.config, sort_keys=True)}",
        f"code_version: {trajectory.code_version}",
        f"failed: {json.dumps(trajectory.failed)}",
        f"failure_reason: {json.dumps(trajectory.failure_reason)}",
    )
    records = [sample._record for sample in trajectory.samples]
    norm_keys = list(records[0]) if records else []
    rows = [
        {
            "t": float(sample.t),
            "step": int(sample.step_index),
            "dt": float(sample.dt),
            **{key: float(record[key]) for key in norm_keys},
        }
        for sample, record in zip(trajectory.samples, records)
    ]
    text = table_text(
        f"{FORMAT_NAME} v{FORMAT_VERSION}", ["t", "step", "dt", *norm_keys], rows, header
    )
    write_text(path, text)


def write_trajectory_json(trajectory: Trajectory, path) -> None:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "lattice": {"n": trajectory.lattice_n, "period": trajectory.period},
        "config": trajectory.config,
        "code_version": trajectory.code_version,
        "failed": trajectory.failed,
        "failure_reason": trajectory.failure_reason,
        "samples": [
            {
                "t": sample.t,
                "step": sample.step_index,
                "dt": sample.dt,
                "norms": sample._record,
            }
            for sample in trajectory.samples
        ],
    }
    write_json(path, doc)


def _parse_header_line(line: str, expect_key: str, line_no: int):
    prefix = f"# {expect_key}: "
    if not line.startswith(prefix):
        raise TrajectoryFormatError(
            f"line {line_no}: expected header '# {expect_key}: ...', got {line!r}"
        )
    payload = line[len(prefix):]
    try:
        return json.loads(payload)
    except json.JSONDecodeError as exc:
        raise TrajectoryFormatError(
            f"line {line_no}: header {expect_key!r} is not valid JSON: {exc}"
        ) from exc


def _read_csv(path) -> Trajectory:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(f"# {FORMAT_NAME} v"):
        raise TrajectoryFormatError(
            f"line 1: not a {FORMAT_NAME} CSV file (missing magic comment)"
        )
    version = lines[0].split("v")[-1]
    if version != str(FORMAT_VERSION):
        raise TrajectoryFormatError(f"line 1: unsupported format version {version!r}")
    if len(lines) < 7:
        raise TrajectoryFormatError("file truncated: header incomplete")
    lattice = _parse_header_line(lines[1], "lattice", 2)
    config = _parse_header_line(lines[2], "config", 3)
    code_version_line = lines[3]
    if not code_version_line.startswith("# code_version: "):
        raise TrajectoryFormatError(f"line 4: expected '# code_version: ...'")
    code_version = code_version_line[len("# code_version: "):]
    failed = _parse_header_line(lines[4], "failed", 5)
    failure_reason = _parse_header_line(lines[5], "failure_reason", 6)
    columns = lines[6].split(",")
    if columns[:3] != ["t", "step", "dt"]:
        raise TrajectoryFormatError(
            f"line 7: column header must start with t,step,dt; got {lines[6]!r}"
        )
    norm_keys = columns[3:]
    samples = []
    for offset, line in enumerate(lines[7:], start=8):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise TrajectoryFormatError(
                f"line {offset}: expected {len(columns)} fields, got {len(parts)}"
            )
        try:
            t = float(parts[0])
            step = int(parts[1])
            dt = float(parts[2])
            record = {key: float(v) for key, v in zip(norm_keys, parts[3:])}
        except ValueError as exc:
            raise TrajectoryFormatError(f"line {offset}: bad numeric field: {exc}") from exc
        samples.append(
            TrajectorySample(t=t, step_index=step, dt=dt, norms=NormReport.from_record(record))
        )
    return Trajectory(
        lattice_n=int(lattice["n"]),
        period=float(lattice["period"]),
        config=config,
        code_version=code_version,
        samples=samples,
        failed=bool(failed),
        failure_reason=str(failure_reason),
    )


def _read_json(path) -> Trajectory:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TrajectoryFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise TrajectoryFormatError(f"not a {FORMAT_NAME} JSON document")
    if doc.get("version") != FORMAT_VERSION:
        raise TrajectoryFormatError(f"unsupported format version {doc.get('version')!r}")
    samples = []
    for index, entry in enumerate(doc.get("samples", [])):
        try:
            samples.append(
                TrajectorySample(
                    t=float(entry["t"]),
                    step_index=int(entry["step"]),
                    dt=float(entry["dt"]),
                    norms=NormReport.from_record(entry["norms"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TrajectoryFormatError(f"sample record {index}: {exc!r}") from exc
    lattice = doc.get("lattice", {})
    try:
        return Trajectory(
            lattice_n=int(lattice["n"]),
            period=float(lattice["period"]),
            config=dict(doc.get("config", {})),
            code_version=str(doc.get("code_version", "")),
            samples=samples,
            failed=bool(doc.get("failed", False)),
            failure_reason=str(doc.get("failure_reason", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TrajectoryFormatError(f"bad lattice header: {exc!r}") from exc


def read_trajectory(path) -> Trajectory:
    """Read either serialization; the format is sniffed from content."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            head = fh.read(1)
        return _read_json(path) if head == "{" else _read_csv(path)
    except UnicodeDecodeError as exc:
        raise TrajectoryFormatError(f"not a utf-8 text file: {exc}") from exc
