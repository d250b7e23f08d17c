"""Nameserver query logs.

The entire measurement methodology of the paper consumes exactly one data
source: the queries arriving at the CDE-controlled nameservers.  "Our study
proceeds by observing and counting the number of queries arriving at our
nameservers" (§IV-A).  :class:`QueryLog` records each arrival and offers the
counting/grouping primitives the enumeration and mapping techniques need.

Counting is the measurement hot path: a population sweep interrogates the
log a handful of times per platform, and with one shared log the naive
full-scan implementation turns sweeps quadratic.  The log therefore keeps
two incremental indexes (built as entries are recorded):

* **by qname** — exact-name lookups (``entries(qname=...)``, ``count``,
  ``count_transactions``, ``sources(qname=...)``) touch only that name's
  entries;
* **by suffix** — every entry is indexed under each ancestor of its qname,
  so ``count_under``/``sources(suffix=...)`` touch only the subtree.  The
  buckets above a qname are those of its parent's ancestor chain; probe
  names are mostly fresh children of a few parents, so :meth:`record`
  resolves each parent's chain once and keeps it until :meth:`forget`.

:class:`QueryLog` is the only code that knows this layout: every arrival,
the engine's fused corridor included, goes through :meth:`record`.

Within any index bucket (and the log itself) timestamps are nondecreasing
— the simulated clock never runs backwards — so ``since`` filters bisect
instead of scanning.  Should an out-of-order timestamp ever be recorded,
the log detects it and falls back to linear ``since`` filtering.

``QueryLog(indexed=False)`` preserves the original full-scan behaviour.
It is the reference the index differential tests compare against, and
the log benches install it to measure exactly what the indexes buy.

A streamed census measures one platform after another in the same
world, so :meth:`forget` drops every entry once a platform's row is out
while :attr:`total_recorded` keeps counting arrivals.  Probe names are
unique and every technique reads the log with a ``since`` cutoff taken
during its own platform's measurement, so no read ever needs an entry
recorded before the last forget.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from ..dns.name import DnsName
from ..dns.rrtype import RRType


@dataclass
class LogEntry:
    timestamp: float
    src_ip: str
    qname: DnsName
    qtype: RRType
    msg_id: int = 0


class QueryLog:
    """Append-only log with counting helpers."""

    def __init__(self, indexed: bool = True) -> None:
        self._entries: list[LogEntry] = []
        self._marks: dict[str, int] = {}
        self.indexed = indexed
        #: Entry positions per exact qname / per qname ancestor (incl. self).
        self._by_qname: dict[DnsName, list[int]] = {}
        self._by_suffix: dict[DnsName, list[int]] = {}
        #: Per distinct parent name, the ``_by_suffix`` buckets of its
        #: ancestor chain (itself included), so :meth:`record` resolves a
        #: chain once per parent rather than once per entry.
        self._parent_buckets: dict[DnsName, tuple[list[int], ...]] = {}
        #: Timestamps parallel to ``_entries`` (for ``since`` bisection).
        self._timestamps: list[float] = []
        self._monotonic = True
        #: Entries dropped by :meth:`forget`.
        self._forgotten = 0

    def record(self, entry: LogEntry) -> None:
        if self.indexed:
            position = len(self._entries)
            qname = entry.qname
            if self._timestamps and entry.timestamp < self._timestamps[-1]:
                self._monotonic = False
            self._timestamps.append(entry.timestamp)
            self._by_qname.setdefault(qname, []).append(position)
            self._by_suffix.setdefault(qname, []).append(position)
            parent = qname.parent
            if parent is not qname:         # the root is its own parent
                chain = self._parent_buckets.get(parent)
                if chain is None:
                    chain = self._parent_buckets[parent] = tuple(
                        self._by_suffix.setdefault(ancestor, [])
                        for ancestor in parent.ancestors(include_self=True))
                for bucket in chain:
                    bucket.append(position)
        self._entries.append(entry)

    @property
    def total_recorded(self) -> int:
        """Entries ever recorded, forgotten ones included."""
        return self._forgotten + len(self._entries)

    def forget(self) -> None:
        """Drop every entry; keep counting them in :attr:`total_recorded`.

        Afterwards the log answers exactly like a fresh one for entries
        recorded later: positions restart at 0 and marks are reset.
        """
        self._forgotten += len(self._entries)
        self._entries.clear()
        self._marks.clear()
        self._by_qname.clear()
        self._by_suffix.clear()
        self._parent_buckets.clear()
        self._timestamps.clear()
        self._monotonic = True

    def clear(self) -> None:
        """:meth:`forget`, and restart :attr:`total_recorded` at 0."""
        self.forget()
        self._forgotten = 0

    # -- marks: named positions for incremental reads -----------------------

    def mark(self, label: str) -> None:
        """Remember the current end of the log under ``label``."""
        self._marks[label] = len(self._entries)

    def since_mark(self, label: str) -> list[LogEntry]:
        return self._entries[self._marks.get(label, 0):]

    # -- index plumbing -----------------------------------------------------

    def _positions_since(self, positions: list[int],
                         since: Optional[float]) -> Iterable[int]:
        """The subset of ``positions`` at/after ``since``.

        Positions inside an index bucket are in record order, hence their
        timestamps are nondecreasing while the clock is monotonic — the
        ``since`` cutoff is a bisection, not a scan.
        """
        if since is None:
            return positions
        if not self._monotonic:
            entries = self._entries
            return (p for p in positions if entries[p].timestamp >= since)
        cut = bisect_left(positions, since, key=self._timestamps.__getitem__)
        return positions[cut:]

    def _scan_start(self, since: Optional[float]) -> int:
        """First list index at/after ``since`` for whole-log walks."""
        if since is None or not self.indexed or not self._monotonic:
            return 0
        return bisect_left(self._timestamps, since)

    def _candidates(self, qname: Optional[DnsName],
                    since: Optional[float]) -> Iterable[LogEntry]:
        """Entries narrowed by the cheapest applicable index."""
        if self.indexed and qname is not None:
            positions = self._by_qname.get(qname)
            if positions is None:
                return ()
            entries = self._entries
            return (entries[p]
                    for p in self._positions_since(positions, since))
        start = self._scan_start(since)
        return self._entries[start:] if start else self._entries

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    def entries(self, qname: Optional[DnsName] = None,
                qtype: Optional[RRType] = None,
                src_ip: Optional[str] = None,
                since: Optional[float] = None,
                predicate: Optional[Callable[[LogEntry], bool]] = None
                ) -> list[LogEntry]:
        """Filtered view of the log; all filters are conjunctive."""
        narrowed = self.indexed and qname is not None
        result = []
        for entry in self._candidates(qname, since):
            if not narrowed:
                if qname is not None and entry.qname != qname:
                    continue
                if since is not None and entry.timestamp < since:
                    continue
            if qtype is not None and entry.qtype != qtype:
                continue
            if src_ip is not None and entry.src_ip != src_ip:
                continue
            if predicate is not None and not predicate(entry):
                continue
            result.append(entry)
        return result

    def entries_under(self, suffix: DnsName,
                      since: Optional[float] = None) -> list[LogEntry]:
        """Entries whose qname falls at or under ``suffix``."""
        if self.indexed:
            positions = self._by_suffix.get(suffix)
            if positions is None:
                return []
            entries = self._entries
            return [entries[p]
                    for p in self._positions_since(positions, since)]
        return self.entries(
            since=since,
            predicate=lambda entry: entry.qname.is_subdomain_of(suffix))

    def entries_for_any(self, qnames: Iterable[DnsName],
                        since: Optional[float] = None,
                        under: bool = False) -> list[LogEntry]:
        """Entries matching *any* of ``qnames``, in log order.

        With ``under=True`` a qname matches its whole subtree (the probe
        names of the indirect techniques pick up ``_dmarc.<name>``-style
        descendants).  This is the egress-census primitive: one indexed
        union instead of a full-log predicate scan per probe batch.
        """
        if not self.indexed:
            wanted = set(qnames)
            if under:
                def predicate(entry: LogEntry) -> bool:
                    qname = entry.qname
                    while len(qname) > 0:
                        if qname in wanted:
                            return True
                        qname = qname.parent
                    return False
            else:
                def predicate(entry: LogEntry) -> bool:
                    return entry.qname in wanted
            return self.entries(since=since, predicate=predicate)
        index = self._by_suffix if under else self._by_qname
        positions: set[int] = set()
        for qname in qnames:
            bucket = index.get(qname)
            if bucket:
                positions.update(self._positions_since(bucket, since))
        entries = self._entries
        return [entries[p] for p in sorted(positions)]

    def count(self, qname: Optional[DnsName] = None,
              qtype: Optional[RRType] = None,
              src_ip: Optional[str] = None,
              since: Optional[float] = None,
              predicate: Optional[Callable[[LogEntry], bool]] = None) -> int:
        """Number of entries passing the same filters as :meth:`entries`."""
        return len(self.entries(qname=qname, qtype=qtype, src_ip=src_ip,
                                since=since, predicate=predicate))

    def count_transactions(self, qname: Optional[DnsName] = None,
                           qtype: Optional[RRType] = None,
                           since: Optional[float] = None) -> int:
        """Entries deduplicated by (source, message id, question).

        A resolver that loses our response retransmits the *same* DNS
        message, so raw arrival counts inflate under packet loss; distinct
        transactions are the quantity the enumeration techniques need.
        """
        seen = {
            (entry.src_ip, entry.msg_id, entry.qname, entry.qtype)
            for entry in self.entries(qname=qname, qtype=qtype, since=since)
        }
        return len(seen)

    def count_under(self, suffix: DnsName, since: Optional[float] = None,
                    dedupe: bool = True) -> int:
        """Queries whose qname falls at or under ``suffix``.

        Deduplicates retransmissions (same source, message id and question)
        by default — see :meth:`count_transactions`.
        """
        matching = self.entries_under(suffix, since=since)
        if not dedupe:
            return len(matching)
        return len({(entry.src_ip, entry.msg_id, entry.qname, entry.qtype)
                    for entry in matching})

    def sources(self, qname: Optional[DnsName] = None,
                suffix: Optional[DnsName] = None,
                since: Optional[float] = None) -> set[str]:
        """Distinct source IPs seen — the paper's egress-IP census input."""
        if suffix is not None:
            matching: Iterable[LogEntry] = self.entries_under(suffix,
                                                              since=since)
            if qname is not None:
                matching = (entry for entry in matching
                            if entry.qname == qname)
            return {entry.src_ip for entry in matching}
        return {entry.src_ip
                for entry in self.entries(qname=qname, since=since)}

    def qtype_histogram(self, since: Optional[float] = None) -> dict[RRType, int]:
        histogram: dict[RRType, int] = {}
        for entry in self.entries(since=since):
            histogram[entry.qtype] = histogram.get(entry.qtype, 0) + 1
        return histogram
