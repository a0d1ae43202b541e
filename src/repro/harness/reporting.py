"""Result containers and plain-text/markdown table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = ["CacheStats", "ExperimentResult", "format_table"]


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width text table; first column left-aligned, rest right."""
    cells = [[_format_cell(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        parts = [row[0].ljust(widths[0])]
        parts.extend(cell.rjust(widths[i + 1])
                     for i, cell in enumerate(row[1:]))
        return "  ".join(parts)
    lines = [fmt(list(columns)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)


@dataclass
class CacheStats:
    """Artifact-store accounting: hit/miss counters, I/O volume, and
    per-stage compute wall time (seconds spent *building* artifacts that
    were not in the cache)."""

    hits: int = 0
    misses: int = 0
    #: Artifacts whose on-disk bytes failed integrity checks (treated as
    #: misses and recomputed).
    corrupt: int = 0
    #: The subset of ``corrupt`` whose payload sha256 mismatched its
    #: stored digest (bit rot / torn write, vs. format or pickle errors).
    digest_failures: int = 0
    #: Corrupt files moved into the store's ``.quarantine/`` directory
    #: (kept for forensics instead of being served or silently deleted).
    quarantined: int = 0
    #: Writes rejected because they would push a namespace past its
    #: byte quota (the artifact stays uncached; callers recompute).
    quota_rejected: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: stage name (``trace``/``profile``/``hints``/``sim``/``misses``) →
    #: cumulative seconds spent computing artifacts of that stage.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: stage name → number of artifacts computed (cache misses filled).
    stage_counts: Dict[str, int] = field(default_factory=dict)

    def add_stage(self, name: str, seconds: float) -> None:
        """Record one computed artifact of stage ``name`` taking
        ``seconds`` (:meth:`ArtifactStore.fetch
        <repro.harness.engine.store.ArtifactStore.fetch>` calls it under
        the store's lock)."""
        self.stage_seconds[name] = (self.stage_seconds.get(name, 0.0)
                                    + seconds)
        self.stage_counts[name] = self.stage_counts.get(name, 0) + 1

    def merge(self, other: "CacheStats") -> None:
        """Fold another stats object (e.g. from a worker process) in."""
        self.hits += other.hits
        self.misses += other.misses
        self.corrupt += other.corrupt
        self.digest_failures += other.digest_failures
        self.quarantined += other.quarantined
        self.quota_rejected += getattr(other, "quota_rejected", 0)
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        for name, secs in other.stage_seconds.items():
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + secs
        for name, count in other.stage_counts.items():
            self.stage_counts[name] = self.stage_counts.get(name, 0) + count

    def to_dict(self) -> Dict:
        """Plain-JSON rendering (the manifest/namespace-summary shape)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "digest_failures": self.digest_failures,
            "quarantined": self.quarantined,
            "quota_rejected": self.quota_rejected,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "stage_seconds": dict(self.stage_seconds),
            "stage_counts": dict(self.stage_counts),
        }

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def render(self) -> str:
        """Human-readable summary (one header line + a per-stage table)."""
        header = (f"artifact cache: {self.hits} hits / {self.misses} misses"
                  f" ({100.0 * self.hit_rate:.0f}% hit rate, "
                  f"{self.corrupt} corrupt / "
                  f"{self.digest_failures} digest failures / "
                  f"{self.quarantined} quarantined), "
                  f"{self.bytes_read / 1e6:.1f} MB read, "
                  f"{self.bytes_written / 1e6:.1f} MB written")
        if not self.stage_seconds:
            return header
        rows = [[name, self.stage_counts.get(name, 0), secs]
                for name, secs in sorted(self.stage_seconds.items())]
        table = format_table(["stage", "computed", "seconds"], rows)
        return header + "\n" + table


@dataclass
class ExperimentResult:
    """One reproduced figure/table: metadata + tabular data."""

    experiment: str                  # e.g. "fig11"
    title: str
    columns: List[str]
    rows: List[List] = field(default_factory=list)
    #: Free-form commentary (what to look for, paper reference values).
    notes: str = ""

    def render(self) -> str:
        header = f"== {self.experiment}: {self.title} =="
        body = format_table(self.columns, self.rows)
        parts = [header, body]
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)

    def to_markdown(self) -> str:
        lines = [f"### {self.experiment}: {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_format_cell(v) for v in row)
                         + " |")
        if self.notes:
            lines.extend(["", self.notes])
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Comma-separated rendering (header + rows) for external tools."""
        import csv
        import io
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(row)
        return buffer.getvalue()

    def save_csv(self, path) -> None:
        from pathlib import Path
        Path(path).write_text(self.to_csv())

    def column(self, name: str) -> List:
        """Values of one column across all rows."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}; columns: {self.columns}")
        return [row[idx] for row in self.rows]

    def row(self, label) -> List:
        """The row whose first cell equals ``label``."""
        for row in self.rows:
            if row[0] == label:
                return row
        raise KeyError(f"no row labelled {label!r}")
