"""Trajectory containers and their CSV/JSON serialization.

A trajectory is a header (config echo, lattice, code version, failure
marker) plus one record per sample: time, step index, step size, and the
flat norm record.  ``_document`` describes it once: the JSON writer writes
that document, the CSV writer renders it as header comments plus one row
per sample, and both readers hand it back to one validator, ``_trajectory``.
Floats are written with ``repr`` (``_tables``), so equal configurations
produce byte-identical files and every value round-trips exactly.
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

# The CSV header comments, in file order; each holds its entry as JSON
# except code_version, which is written as plain text.
_HEADER = ("lattice", "config", "code_version", "failed", "failure_reason")


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
        """The recorded viscosity, or None; a recorded value that is not a
        number (a bool is not) raises ValueError."""
        value = self.config.get("nu")
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"recorded viscosity {value!r} is not a number")
        return float(value)

    def _check_samples(self, min_samples: int = 2) -> None:
        """The sample guard of every trajectory check: the sample count, then
        finite, strictly increasing times."""
        count = len(self.samples)
        if count < min_samples:
            raise ValueError(
                "trajectory has no samples" if count == 0
                else f"need at least {min_samples} samples"
            )
        times = self.times
        for index, t in enumerate(times):
            if not (abs(t) < float("inf") and (index == 0 or times[index - 1] < t)):
                raise ValueError(
                    "sample times must be finite and increase strictly; "
                    f"sample {index} has t = {t!r}"
                )

    def _checked_nu(self, nu: float | None = None, min_samples: int = 2) -> float:
        """The input guard of every check that needs the viscosity: the
        samples, then ``nu`` or else the recorded viscosity, which must be
        finite and positive."""
        self._check_samples(min_samples)
        source = "given"
        if nu is None:
            source, nu = "recorded", self.nu()
        if nu is None:
            raise ValueError("viscosity not recorded in the trajectory; pass nu explicitly")
        if not 0.0 < nu < float("inf"):
            raise ValueError(f"{source} viscosity {nu!r} must be finite and positive")
        return nu


def _document(trajectory: Trajectory) -> dict:
    """The one description of a trajectory that both writers serialize:
    times and norms as floats, the step as an int."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "lattice": {"n": trajectory.lattice_n, "period": trajectory.period},
        "config": trajectory.config,
        "code_version": trajectory.code_version,
        "failed": trajectory.failed,
        "failure_reason": trajectory.failure_reason,
        "samples": [
            {
                "t": float(sample.t),
                "step": int(sample.step_index),
                "dt": float(sample.dt),
                "norms": {key: float(value) for key, value in sample._record.items()},
            }
            for sample in trajectory.samples
        ],
    }


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    doc = _document(trajectory)
    header = [
        f"{key}: {doc[key] if key == 'code_version' else json.dumps(doc[key], sort_keys=True)}"
        for key in _HEADER
    ]
    records = doc["samples"]
    norm_keys = list(records[0]["norms"]) if records else []
    rows = [{"t": r["t"], "step": r["step"], "dt": r["dt"], **r["norms"]} for r in records]
    magic = f"{doc['format']} v{doc['version']}"
    write_text(path, table_text(magic, ["t", "step", "dt", *norm_keys], rows, header))


def write_trajectory_json(trajectory: Trajectory, path) -> None:
    write_json(path, _document(trajectory))


def _read_csv(text: str):
    """Split a CSV trajectory into the document shape and name its samples
    by line.  The layout is checked and the sample cells are parsed from
    text here, where a line number can be given; ``_trajectory`` checks
    the document."""
    lines = text.splitlines()
    magic = f"# {FORMAT_NAME} v"
    if not lines or not lines[0].startswith(magic):
        raise TrajectoryFormatError(
            f"line 1: not a {FORMAT_NAME} CSV file (missing magic comment)"
        )
    version = lines[0][len(magic):]
    doc = {"format": FORMAT_NAME, "version": int(version) if version.isdecimal() else version}
    if len(lines) < 7:
        raise TrajectoryFormatError("file truncated: header incomplete")
    for line_no, key in enumerate(_HEADER, start=2):
        line, prefix = lines[line_no - 1], f"# {key}: "
        if not line.startswith(prefix):
            raise TrajectoryFormatError(
                f"line {line_no}: expected header '# {key}: ...', got {line!r}"
            )
        doc[key] = payload = line[len(prefix):]
        if key != "code_version":
            try:
                doc[key] = json.loads(payload)
            except json.JSONDecodeError as exc:
                raise TrajectoryFormatError(
                    f"line {line_no}: header {key!r} is not valid JSON: {exc}"
                ) from exc
    columns = lines[6].split(",")
    if columns[:3] != ["t", "step", "dt"]:
        raise TrajectoryFormatError(
            f"line 7: column header must start with t,step,dt; got {lines[6]!r}"
        )
    doc["samples"], line_numbers = [], []
    for line_no, line in enumerate(lines[7:], start=8):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise TrajectoryFormatError(
                f"line {line_no}: expected {len(columns)} fields, got {len(cells)}"
            )
        t, step, dt, *values = cells
        try:
            norms = {key: float(value) for key, value in zip(columns[3:], values)}
            doc["samples"].append({"t": float(t), "step": int(step), "dt": float(dt), "norms": norms})
        except ValueError as exc:
            raise TrajectoryFormatError(f"line {line_no}: bad sample: {exc!r}") from exc
        line_numbers.append(line_no)
    return doc, lambda index: f"line {line_numbers[index]}"


def _entry(doc: dict, key: str, kind: type, what: str):
    """``doc[key]``, checked to be a ``kind``; a missing entry reads as ``kind()``."""
    value = doc.get(key, kind())
    if not isinstance(value, kind):
        raise TrajectoryFormatError(f"{key!r} must be {what}, got {value!r}")
    return value


def _number(value, kind: type = float):
    """A JSON number as a ``kind``: an int for ``int``; a bool is neither."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise TypeError(f"expected {'an integer' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


def _trajectory(doc, where) -> Trajectory:
    """Check a trajectory document from either serialization and build the
    :class:`Trajectory`; ``where(i)`` names sample ``i`` in messages."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise TrajectoryFormatError(f"not a {FORMAT_NAME} JSON document")
    if doc.get("version") != FORMAT_VERSION:
        raise TrajectoryFormatError(f"unsupported format version {doc.get('version')!r}")
    lattice = doc.get("lattice")
    try:
        lattice_n, period = _number(lattice["n"], int), _number(lattice["period"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise TrajectoryFormatError(f"bad lattice header: {exc!r}") from exc
    config = _entry(doc, "config", dict, "a JSON object")
    code_version = _entry(doc, "code_version", str, "a string")
    failed = _entry(doc, "failed", bool, "a JSON bool")
    failure_reason = _entry(doc, "failure_reason", str, "a string")
    samples = []
    for index, entry in enumerate(_entry(doc, "samples", list, "a JSON list")):
        try:
            samples.append(
                TrajectorySample(
                    t=_number(entry["t"]),
                    step_index=_number(entry["step"], int),
                    dt=_number(entry["dt"]),
                    norms=NormReport.from_record(
                        {key: _number(value) for key, value in entry["norms"].items()}
                    ),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
            raise TrajectoryFormatError(f"{where(index)}: bad sample: {exc!r}") from exc
    return Trajectory(lattice_n, period, config, code_version, samples, failed, failure_reason)


def read_trajectory(path) -> Trajectory:
    """Read either serialization; the format is sniffed from content."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise TrajectoryFormatError(f"not a utf-8 text file: {exc}") from exc
    if not text.startswith("{"):
        return _trajectory(*_read_csv(text))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TrajectoryFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return _trajectory(doc, lambda index: f"sample record {index}")
