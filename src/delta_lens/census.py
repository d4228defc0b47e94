"""Zero-census bookkeeping: main terms of the critical-line counting
functions for zeta, beta and the other odd-discriminant L-functions, counted
comparisons against refined catalogs, the doubling identity

    N_zeta(2T) = N_zeta(T) + N_beta(T)

(exact between phase-zero lines, within 1 anywhere), the zero/pole pairing
between consecutive phase lines, and JSON-lines persistence of catalogs.

Counting convention: an entry with ordinate within 1e-8 of the cut T counts
as lying below it.  Catalogued ordinates at desk scale are separated by at
least 0.01, so any cut tolerance in [1e-9, 1e-3] draws identical lines; 1e-8
absorbs the worst-case disagreement of two independent refinements.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Mapping, Optional

from .contours import PhasePath
from .critical import _CATALOGUED, _KINDS, _SCAN_STEP, CriticalPoint, find_zeros, singular_points_delta5
from .errors import (
    CatalogTooShort,
    CorruptRecord,
    DomainError,
    FormatVersionMismatch,
    IoFailure,
    MissingTrace,
)
from .evalcore import TWO_PI
from .quotient import QuotientKind

_CATALOG_SOURCES = (*_CATALOGUED, "delta5_merged")
_COUNT_TOL = 1e-8


@dataclass(frozen=True)
class GeneratorMetadata:
    scan_step: float
    tolerance: float
    timestamp: str

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0 for x in (self.scan_step, self.tolerance)):
            raise DomainError("scan_step and tolerance must be positive and finite")
        if not isinstance(self.timestamp, str):
            raise DomainError("timestamp must be a string")


@dataclass(frozen=True)
class ZeroCatalog:
    """Refined critical-line ordinates for one source, sorted ascending."""

    source: str
    t_max: float
    entries: tuple[CriticalPoint, ...]
    generator_metadata: GeneratorMetadata

    def __post_init__(self):
        if self.source not in _CATALOG_SOURCES:
            raise DomainError(f"source must be one of {_CATALOG_SOURCES}")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise DomainError("t_max must be positive and finite")
        prev = 0.0
        for e in self.entries:
            if e.t <= prev:
                raise DomainError("entries must be strictly ascending in t")
            if e.t > self.t_max + _COUNT_TOL:
                raise DomainError(f"entry at t = {e.t} exceeds t_max = {self.t_max}")
            if self.source in _CATALOGUED and e.source != _CATALOGUED[self.source][1]:
                raise DomainError(f"a {self.source} catalog cannot hold {e.source} entries")
            prev = e.t


@dataclass(frozen=True)
class DistributionReport:
    """Counted zeros versus the main term at one cut."""

    t: float
    main_term: float
    counted: int
    residual: float

    def __post_init__(self):
        # each test is written so that a NaN field fails it
        if not math.isfinite(self.t):
            raise DomainError(f"t {self.t} is not finite")
        if not abs(self.residual - (self.counted - self.main_term)) <= 1e-9:
            raise DomainError("residual must equal counted - main_term")


def _main_term(t: float, modulus: float) -> float:
    # (t/2pi)(log t - 1 - log(2pi/modulus)), the main term of the zero count
    # of an L-function with conductor `modulus`
    if not t > 0:
        raise DomainError("t must be positive")
    return (t / TWO_PI) * (math.log(t) - 1.0 - math.log(TWO_PI / modulus))


def n_zeta_main(t: float) -> float:
    """Main term of the zeta zero count: (t/2pi)(log t - 1 - log 2pi)."""
    return _main_term(t, 1.0)


def n_beta_main(t: float) -> float:
    """Main term of the beta zero count: (t/2pi)(log t - 1 - log(pi/2))."""
    return _main_term(t, 4.0)


def n_Lq_main(q: int, t: float) -> float:
    """Main term for the discriminant -q character L-function:
    (t/2pi)(log t - 1 - log(2pi/q)); q = 4 reduces to the beta count."""
    return _main_term(t, QuotientKind(q).discriminant_label)


def count_entries(catalog: ZeroCatalog, t: float, kind: Optional[str] = None) -> int:
    """Entries with ordinate <= t (finite, tolerance 1e-8), optionally one kind."""
    if not math.isfinite(t):
        raise DomainError(f"t {t} is not finite")
    if kind not in (None, *_KINDS):
        raise DomainError(f"kind must be None or one of {_KINDS}")
    return sum(1 for e in catalog.entries
               if e.t <= t + _COUNT_TOL and (kind is None or e.kind == kind))


def build_catalog(source: str, t_max: float, timestamp: Optional[str] = None) -> ZeroCatalog:
    """Scan and refine a fresh catalog at the scan step _SCAN_STEP, which its
    header records.  The catalog of a catalogued function holds its zeros;
    delta5_merged interleaves the quotient's critical zeros and poles (pole
    scan runs to 2 t_max, so t_max <= 100 there)."""
    if source in _CATALOGUED:
        entries = find_zeros(source, 0.0, t_max)
    elif source == "delta5_merged":
        entries = singular_points_delta5(0.0, t_max)
    else:
        raise DomainError(f"source must be one of {_CATALOG_SOURCES}")
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    meta = GeneratorMetadata(scan_step=_SCAN_STEP, tolerance=1e-9, timestamp=timestamp)
    return ZeroCatalog(source=source, t_max=float(t_max),
                       entries=tuple(entries), generator_metadata=meta)


def census_identity_check(T: float, catalogs: Mapping[str, ZeroCatalog]
                          ) -> tuple[DistributionReport, DistributionReport]:
    """Counted N_zeta(2T) against counted N_zeta(T) + N_beta(T).

    Returns the two reports; their counted difference is at most 1 for any T
    and exactly 0 when T is the (catalogued) terminus of a phase-zero line
    whose critical-line point is a pole.  Needs the zeta catalog to 2T and
    the beta catalog to T, else CatalogTooShort.
    """
    if not T > 0:
        raise DomainError("T must be positive")
    try:
        cz, cb = catalogs["zeta"], catalogs["beta"]
    except (KeyError, TypeError) as exc:
        raise DomainError("catalogs must map 'zeta' and 'beta' to ZeroCatalogs") from exc
    if cz.t_max + _COUNT_TOL < 2.0 * T:
        raise CatalogTooShort(f"zeta catalog reaches {cz.t_max}, need 2T = {2 * T}")
    if cb.t_max + _COUNT_TOL < T:
        raise CatalogTooShort(f"beta catalog reaches {cb.t_max}, need T = {T}")
    doubled = count_entries(cz, 2.0 * T)
    split = count_entries(cz, T) + count_entries(cb, T)
    main = n_zeta_main(2.0 * T)
    rep_doubled = DistributionReport(t=2.0 * T, main_term=main, counted=doubled,
                                     residual=doubled - main)
    rep_split = DistributionReport(t=T, main_term=main, counted=split,
                                   residual=split - main)
    return rep_doubled, rep_split


def _snapped_terminus(path: PhasePath) -> float:
    return path.terminus_point.t if path.terminus_point is not None else path.terminus_t


def pairs_between_phase_lines(n: int, catalog: ZeroCatalog,
                              traces: Mapping[int, PhasePath]) -> tuple[int, int]:
    """(zeros, poles) of the quotient strictly between the termini of phase
    lines n and n+1, both endpoints excluded; the counts must be equal."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
        raise DomainError(f"n must be a positive integer, not {n!r}")
    if catalog.source != "delta5_merged":
        raise DomainError("pairing needs the merged quotient catalog")
    for k in (n, n + 1):
        if k not in traces:
            raise MissingTrace(f"no phase-zero trace for index {k}")
        if traces[k].line_kind != "phase_zero":
            raise DomainError(f"trace {k} is not a phase-zero line")
    t_lo = _snapped_terminus(traces[n])
    t_hi = _snapped_terminus(traces[n + 1])
    if not t_lo < t_hi:
        raise DomainError(f"termini out of order: {t_lo} >= {t_hi}")
    if catalog.t_max + _COUNT_TOL < t_hi:
        raise CatalogTooShort(f"merged catalog reaches {catalog.t_max}, need {t_hi}")
    zeros = sum(1 for e in catalog.entries
                if t_lo + _COUNT_TOL < e.t < t_hi - _COUNT_TOL and e.kind == "zero")
    poles = sum(1 for e in catalog.entries
                if t_lo + _COUNT_TOL < e.t < t_hi - _COUNT_TOL and e.kind == "pole")
    return zeros, poles


def _header_line(catalog: ZeroCatalog) -> str:
    meta = catalog.generator_metadata
    return ('{"source": %s, "t_max": %.17g, "scan_step": %.17g, "tolerance": %.17g, '
            '"timestamp": %s, "format_version": 1}\n'
            % (json.dumps(catalog.source), catalog.t_max, meta.scan_step, meta.tolerance,
               json.dumps(meta.timestamp)))


def _entry_line(entry: CriticalPoint) -> str:
    # kind and source are names CriticalPoint has checked against fixed ASCII sets
    return ('{"t": %.17g, "kind": "%s", "source": "%s", "multiplicity": %d, "refined_to": %.17g}\n'
            % (entry.t, entry.kind, entry.source, entry.multiplicity, entry.refined_to))


def save_catalog(catalog: ZeroCatalog, path) -> None:
    """Write the catalog as JSON-lines: one header record, one record per
    entry, floats at 17 significant digits so reload-and-save is
    byte-identical."""
    text = _header_line(catalog) + "".join(map(_entry_line, catalog.entries))
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"could not write catalog: {exc}") from exc


def _header(source, t_max, scan_step, tolerance, timestamp, format_version) -> ZeroCatalog:
    # the header line writes the int 1, so any other int is another version
    if type(format_version) is int and format_version != 1:
        raise FormatVersionMismatch(f"format_version {format_version} is not 1")
    meta = GeneratorMetadata(float(scan_step), float(tolerance), timestamp)
    return ZeroCatalog(source, float(t_max), (), meta)


def _entry(t, kind, source, multiplicity, refined_to) -> CriticalPoint:
    return CriticalPoint(float(t), kind, source, multiplicity, float(refined_to))


def _read_line(raw: bytes, number: int, build, line_of):
    # build the record through its validating constructor, then require that
    # the built object formats back to the raw bytes
    try:
        line = raw.decode("ascii")
        record = build(**json.loads(line))
    except (DomainError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise CorruptRecord(f"unreadable record: {exc}", line_number=number) from exc
    if line_of(record) != line:
        raise CorruptRecord("record is not spelled as save_catalog writes it",
                            line_number=number)
    return record


def load_catalog(path) -> ZeroCatalog:
    """Read a catalog written by save_catalog.  The loader accepts exactly
    the bytes save_catalog writes: any other line raises CorruptRecord with
    its 1-based line number, the header before any entry, and a catalog
    whose entries do not fit its header at line 1.  A header-only file is a
    valid empty catalog."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
    except OSError as exc:
        raise IoFailure(f"could not read catalog: {exc}") from exc
    if not lines:
        raise CorruptRecord("missing header record", line_number=1)
    header = _read_line(lines[0], 1, _header, _header_line)
    entries = tuple(_read_line(raw, i, _entry, _entry_line)
                    for i, raw in enumerate(lines[1:], start=2))
    try:
        return replace(header, entries=entries)
    except DomainError as exc:
        raise CorruptRecord(f"inconsistent catalog: {exc}", line_number=1) from exc
