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
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Mapping, Optional

from .contours import PhasePath
from .critical import CriticalPoint, find_zeros, singular_points_delta5
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

_CATALOG_SOURCES = ("zeta", "beta", "delta5_merged")
_ENTRY_SOURCE_FOR = {"zeta": "zeta_zero", "beta": "beta_zero"}
_COUNT_TOL = 1e-8


@dataclass(frozen=True)
class GeneratorMetadata:
    scan_step: float
    tolerance: float
    timestamp: str


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
        want = _ENTRY_SOURCE_FOR.get(self.source)
        prev = 0.0
        for e in self.entries:
            if e.t <= prev:
                raise DomainError("entries must be strictly ascending in t")
            if e.t > self.t_max + _COUNT_TOL:
                raise DomainError(f"entry at t = {e.t} exceeds t_max = {self.t_max}")
            if want is not None and e.source != want:
                raise DomainError(f"a {self.source} catalog cannot hold {e.source} entries")
            prev = e.t


@dataclass(frozen=True)
class DistributionReport:
    """Counted zeros versus the main term at one cut, with the envelope the
    residual is claimed to respect."""

    t: float
    main_term: float
    counted: int
    residual: float
    envelope: float = math.inf

    def __post_init__(self):
        if abs(self.residual - (self.counted - self.main_term)) > 1e-9:
            raise DomainError("residual must equal counted - main_term")
        if abs(self.residual) > self.envelope:
            raise DomainError(
                f"residual {self.residual:.3f} exceeds the declared envelope {self.envelope}")


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
    """Entries with ordinate <= t (tolerance 1e-8), optionally one kind."""
    return sum(1 for e in catalog.entries
               if e.t <= t + _COUNT_TOL and (kind is None or e.kind == kind))


def build_catalog(source: str, t_max: float, scan_step: float = 0.01,
                  timestamp: Optional[str] = None) -> ZeroCatalog:
    """Scan and refine a fresh catalog.  zeta/beta catalogs hold zeros of the
    respective function; delta5_merged interleaves the quotient's critical
    zeros and poles (pole scan runs to 2 t_max, so t_max <= 100 there)."""
    if source in ("zeta", "beta"):
        entries = find_zeros(source, 0.0, t_max, scan_step)
    elif source == "delta5_merged":
        entries = singular_points_delta5(0.0, t_max, scan_step)
    else:
        raise DomainError(f"source must be one of {_CATALOG_SOURCES}")
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    meta = GeneratorMetadata(scan_step=scan_step, tolerance=1e-9, timestamp=timestamp)
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
    if n < 1:
        raise DomainError("n must be a positive integer")
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


def _fmt(x: float) -> str:
    return "%.17g" % x


def save_catalog(catalog: ZeroCatalog, path) -> None:
    """Write the catalog as JSON-lines: one header record, one record per
    entry, floats at 17 significant digits so reload-and-save is
    byte-identical."""
    meta = catalog.generator_metadata
    lines = ['{"source": %s, "t_max": %s, "scan_step": %s, "tolerance": %s, '
             '"timestamp": %s, "format_version": 1}'
             % (json.dumps(catalog.source), _fmt(catalog.t_max), _fmt(meta.scan_step),
                _fmt(meta.tolerance), json.dumps(meta.timestamp))]
    for e in catalog.entries:
        lines.append('{"t": %s, "kind": %s, "source": %s, "multiplicity": %d, '
                     '"refined_to": %s}'
                     % (_fmt(e.t), json.dumps(e.kind), json.dumps(e.source),
                        e.multiplicity, _fmt(e.refined_to)))
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(f"could not write catalog: {exc}") from exc


_HEADER_KEYS = {"source", "t_max", "scan_step", "tolerance", "timestamp", "format_version"}
_ENTRY_KEYS = {"t", "kind", "source", "multiplicity", "refined_to"}


def load_catalog(path) -> ZeroCatalog:
    """Parse a JSON-lines catalog; every malformed line is reported with its
    1-based line number, and a header-only file is a valid empty catalog."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoFailure(f"could not read catalog: {exc}") from exc
    lines = raw.splitlines()
    if not lines or not lines[0].strip():
        raise CorruptRecord("missing header record", line_number=1)
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise CorruptRecord(f"unparsable header: {exc}", line_number=1) from exc
    if not isinstance(header, dict) or set(header) != _HEADER_KEYS:
        raise CorruptRecord("header must carry exactly the six header fields", line_number=1)
    if header["format_version"] != 1:
        raise FormatVersionMismatch(
            f"format_version {header['format_version']!r} is not 1")
    entries = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            raise CorruptRecord("blank record", line_number=i)
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise CorruptRecord(f"unparsable record: {exc}", line_number=i) from exc
        if not isinstance(rec, dict) or set(rec) != _ENTRY_KEYS:
            raise CorruptRecord("record must carry exactly t, kind, source, "
                                "multiplicity, refined_to", line_number=i)
        try:
            entries.append(CriticalPoint(t=float(rec["t"]), kind=rec["kind"],
                                         source=rec["source"],
                                         multiplicity=int(rec["multiplicity"]),
                                         refined_to=float(rec["refined_to"])))
        except (DomainError, TypeError, ValueError) as exc:
            raise CorruptRecord(f"invalid entry: {exc}", line_number=i) from exc
    try:
        meta = GeneratorMetadata(scan_step=float(header["scan_step"]),
                                 tolerance=float(header["tolerance"]),
                                 timestamp=str(header["timestamp"]))
        return ZeroCatalog(source=header["source"], t_max=float(header["t_max"]),
                           entries=tuple(entries), generator_metadata=meta)
    except (DomainError, TypeError, ValueError) as exc:
        raise CorruptRecord(f"inconsistent catalog: {exc}", line_number=1) from exc
