"""Domain names.

:class:`DnsName` models an absolute DNS domain name as a tuple of labels,
ordered left to right exactly as written (``www.example.com`` has labels
``("www", "example", "com")``).  Comparison and hashing are case-insensitive
per RFC 1035 §2.3.3; the original spelling is preserved for display.

The class supports the small algebra the rest of the library needs:
parent/ancestor walks, subdomain tests, relativisation and concatenation.

Names are constructed on every probe, every log entry and every zone
lookup, so construction and comparison are hot paths for population-scale
measurement runs.  Four mechanisms keep them off the profile:

* case folding is **lazy** — a name folds its labels only when first
  hashed or compared, so display-only names never pay for it;
* derived names (``parent``, ``prepend``, ``concatenate``) take a private
  **trusted-constructor** path that skips re-validating labels that were
  already validated when the source name was built;
* every value a name derives from its labels is **derived once** and kept
  on the name: the folded labels, the hash, the uncompressed wire length
  and the parent.  ``prepend`` links the child to the name it was built
  from, so an ancestor walk from a probe name reaches the long-lived base
  domain and its ancestors, whose hashes are already cached;
* :meth:`from_text` **interns** parses through a bounded cache, so the
  high-frequency names (zone origins, infrastructure names) are parsed and
  folded exactly once per process.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator, Optional

from .errors import NameError_

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 253  # presentation form, excluding the trailing dot

#: Bound on the :meth:`DnsName.from_text` interning cache.  Measurement
#: runs create unbounded fresh probe names; the cache is cleared rather
#: than evicted when full (cheap, and the steady-state hot set — origins,
#: nameserver names — repopulates immediately).
_INTERN_CACHE_MAX = 8192
_intern_cache: dict[str, "DnsName"] = {}


def _validate_label(label: str) -> None:
    if not label:
        raise NameError_("empty label")
    if len(label) > MAX_LABEL_LENGTH:
        raise NameError_(f"label too long ({len(label)} > {MAX_LABEL_LENGTH}): {label!r}")
    if "." in label:
        raise NameError_(f"label contains a dot: {label!r}")


@total_ordering
class DnsName:
    """An absolute domain name.

    Instances are immutable and usable as dictionary keys.  Build one from
    text with :meth:`from_text` (or the module-level :func:`name` helper),
    or from labels with the constructor.
    """

    __slots__ = ("_labels", "_folded", "_hash", "_parent", "_wire_length")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        for label in labels:
            # _validate_label's three rules, tested inline so that a valid
            # label costs no call; an invalid one raises from there.
            if not label or len(label) > MAX_LABEL_LENGTH or "." in label:
                _validate_label(label)
        text_len = sum(map(len, labels)) + max(len(labels) - 1, 0)
        if text_len > MAX_NAME_LENGTH:
            raise NameError_(f"name too long ({text_len} > {MAX_NAME_LENGTH})")
        self._labels = labels
        self._folded: Optional[tuple[str, ...]] = None
        self._hash: Optional[int] = None
        self._parent: Optional[DnsName] = None
        self._wire_length: Optional[int] = None

    # -- construction -----------------------------------------------------

    @classmethod
    def _trusted(cls, labels: tuple[str, ...],
                 folded: Optional[tuple[str, ...]] = None,
                 parent: Optional["DnsName"] = None) -> "DnsName":
        """Build from labels known to be valid (derived from an existing
        name), skipping validation.  ``folded`` may carry the already-folded
        labels when the source name had folded; ``parent`` may carry the
        name that ``labels[1:]`` spells, when the caller holds it."""
        self = object.__new__(cls)
        self._labels = labels
        self._folded = folded
        self._hash = None
        self._parent = parent
        self._wire_length = None
        return self

    @classmethod
    def from_text(cls, text: str) -> "DnsName":
        """Parse presentation format.  A trailing dot is accepted; ``.`` and
        the empty string denote the root name."""
        cached = _intern_cache.get(text)
        if cached is not None:
            return cached
        key = text
        stripped = text.strip()
        if stripped in (".", ""):
            result: DnsName = ROOT
        else:
            if stripped.endswith("."):
                stripped = stripped[:-1]
            result = cls(stripped.split("."))
            # Link the interned parent, so every cached name under one
            # parent shares a single ancestor chain instead of memoizing
            # its own.  (Parsing ``rest`` again would strip it, so a
            # parent spelled with edge whitespace stays lazy.)
            rest = stripped.partition(".")[2]
            if rest == rest.strip():
                result._parent = cls.from_text(rest)
        if len(_intern_cache) >= _INTERN_CACHE_MAX:
            _intern_cache.clear()
        _intern_cache[key] = result
        return result

    @classmethod
    def root(cls) -> "DnsName":
        return ROOT

    # -- basic protocol ----------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def folded(self) -> tuple[str, ...]:
        """Case-folded labels (computed lazily, once, and handed on to a
        linked parent that has not folded yet)."""
        folded = self._folded
        if folded is None:
            folded = tuple(map(str.lower, self._labels))
            self._folded = folded
            parent = self._parent
            if parent is not None and parent._folded is None:
                parent._folded = folded[1:]
        return folded

    def __str__(self) -> str:
        if not self._labels:
            return "."
        return ".".join(self._labels)

    def __repr__(self) -> str:
        return f"DnsName({str(self)!r})"

    @property
    def wire_length(self) -> int:
        """Uncompressed wire size: every label with its length octet, plus
        the root's zero octet (computed lazily, once)."""
        size = self._wire_length
        if size is None:
            size = self._wire_length = self._measure_wire_length()
        return size

    def _measure_wire_length(self) -> int:
        labels = self._labels
        return sum(map(len, labels)) + len(labels) + 1

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            folded = self._folded
            value = self._hash = hash(
                self.folded if folded is None else folded)
        return value

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, str):
            other = DnsName.from_text(other)
        elif not isinstance(other, DnsName):
            return NotImplemented
        mine, theirs = self._folded, other._folded
        return ((self.folded if mine is None else mine)
                == (other.folded if theirs is None else theirs))

    def __lt__(self, other: "DnsName") -> bool:
        if not isinstance(other, DnsName):
            return NotImplemented
        # Canonical DNS ordering compares names right to left (by zone depth).
        return tuple(reversed(self.folded)) < tuple(reversed(other.folded))

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    def __getstate__(self) -> tuple[str, ...]:
        return self._labels

    def __setstate__(self, labels: tuple[str, ...]) -> None:
        self._labels = labels
        self._folded = None
        self._hash = None
        self._parent = None
        self._wire_length = None

    # -- algebra ------------------------------------------------------------

    def is_root(self) -> bool:
        return not self._labels

    @property
    def parent(self) -> "DnsName":
        """The name with the leftmost label removed (built once, then
        kept); the root's parent is the root itself."""
        parent = self._parent
        if parent is None:
            labels = self._labels
            if not labels:
                return self
            folded = self._folded
            parent = self._parent = DnsName._trusted(
                labels[1:], folded[1:] if folded is not None else None)
        return parent

    def ancestors(self, include_self: bool = False) -> tuple["DnsName", ...]:
        """Ancestors from closest to the root (the root included).

        A tuple built by one walk rather than a generator, whose every
        step is a call: zones and query logs walk a probe name's
        ancestors on each record they add."""
        found: list[DnsName] = []
        current = self if include_self else self.parent
        while current._labels:
            found.append(current)
            parent = current._parent
            current = current.parent if parent is None else parent
        found.append(current)
        return tuple(found)

    def is_subdomain_of(self, other: "DnsName") -> bool:
        """True when ``self`` equals ``other`` or sits below it."""
        own, theirs = self._folded, other._folded
        if own is None:
            own = self.folded
        if theirs is None:
            theirs = other.folded
        if len(theirs) > len(own):
            return False
        if not theirs:
            return True
        return own[-len(theirs):] == theirs

    def is_strict_subdomain_of(self, other: "DnsName") -> bool:
        return self != other and self.is_subdomain_of(other)

    def relativize(self, origin: "DnsName") -> tuple[str, ...]:
        """Labels of ``self`` below ``origin``.

        Raises :class:`NameError_` when ``self`` is not under ``origin``.
        """
        if not self.is_subdomain_of(origin):
            raise NameError_(f"{self} is not under {origin}")
        if origin.is_root():
            return self._labels
        return self._labels[: len(self._labels) - len(origin._labels)]

    def prepend(self, *labels: str) -> "DnsName":
        """Return a new name with ``labels`` added on the left, linked to
        ``self`` through its ancestors."""
        for label in labels:
            if not label or len(label) > MAX_LABEL_LENGTH or "." in label:
                _validate_label(label)
        combined = labels + self._labels
        text_len = sum(map(len, combined)) + max(len(combined) - 1, 0)
        if text_len > MAX_NAME_LENGTH:
            raise NameError_(f"name too long ({text_len} > {MAX_NAME_LENGTH})")
        result = self
        for depth in range(len(labels) - 1, -1, -1):
            result = DnsName._trusted(combined[depth:], None, result)
        return result

    def concatenate(self, suffix: "DnsName") -> "DnsName":
        combined = self._labels + suffix._labels
        text_len = sum(map(len, combined)) + max(len(combined) - 1, 0)
        if text_len > MAX_NAME_LENGTH:
            raise NameError_(f"name too long ({text_len} > {MAX_NAME_LENGTH})")
        own, theirs = self._folded, suffix._folded
        folded = (own + theirs
                  if own is not None and theirs is not None else None)
        return DnsName._trusted(combined, folded)

    def depth_below(self, origin: "DnsName") -> int:
        """Number of labels of ``self`` below ``origin``."""
        return len(self.relativize(origin))

    def split_child_of(self, origin: "DnsName") -> "DnsName":
        """The direct child of ``origin`` on the path towards ``self``.

        ``a.b.sub.example`` split at ``example`` gives ``sub.example``.
        """
        rel = self.relativize(origin)
        if not rel:
            raise NameError_(f"{self} equals {origin}; no child to split")
        return origin.prepend(rel[-1])


ROOT = DnsName(())


def name(text: str) -> DnsName:
    """Shorthand for :meth:`DnsName.from_text`."""
    return DnsName.from_text(text)
