"""The DnsName hot-path mechanics must not change name semantics.

:class:`DnsName` gained lazy case folding, a trusted constructor for
derived names, a bounded interning cache on :meth:`from_text`, and
per-name caches of its parent and wire length.  All of it is an
implementation detail: equality, hashing, ordering, validation and
pickling must behave exactly as before.
"""

from __future__ import annotations

import pickle
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.infrastructure import CdeInfrastructure
from repro.dns import DnsMessage, RRType, encode_message
from repro.dns.errors import NameError_
from repro.dns.name import (
    MAX_LABEL_LENGTH,
    MAX_NAME_LENGTH,
    ROOT,
    DnsName,
    name,
)
from repro.net.network import Network
from repro.server.hierarchy import RootHierarchy

name_module = sys.modules["repro.dns.name"]


class TestLazyFolding:
    def test_fold_computed_on_demand(self):
        built = DnsName(("WWW", "Example", "COM"))
        assert built._folded is None
        assert built.folded == ("www", "example", "com")
        assert built._folded == ("www", "example", "com")

    def test_hash_cached(self):
        built = DnsName(("a", "b"))
        assert built._hash is None
        first = hash(built)
        assert built._hash == first
        assert hash(built) == first

    def test_display_never_folds(self):
        built = DnsName(("MiXeD", "Case"))
        assert str(built) == "MiXeD.Case"
        assert built._folded is None


class TestTrustedPath:
    def test_parent_preserves_equality_and_hash(self):
        child = name("www.example.com.")
        derived = child.parent
        direct = name("example.com.")
        assert derived == direct
        assert hash(derived) == hash(direct)

    def test_parent_carries_folded_when_available(self):
        child = name("WWW.Example.COM")
        child.folded  # force the fold
        derived = child.parent
        assert derived._folded == ("example", "com")

    def test_parent_lazy_when_source_unfolded(self):
        child = DnsName(("WWW", "Example", "COM"))
        derived = child.parent
        assert derived._folded is None
        assert derived == DnsName(("example", "com"))

    def test_prepend_semantics_unchanged(self):
        base = name("example.com.")
        derived = base.prepend("Sub")
        assert derived == name("sub.example.com.")
        assert hash(derived) == hash(name("SUB.example.com."))
        assert list(derived) == ["Sub", "example", "com"]

    def test_prepend_still_validates_new_labels(self):
        base = name("example.com.")
        with pytest.raises(NameError_):
            base.prepend("bad.label")
        with pytest.raises(NameError_):
            base.prepend("")
        with pytest.raises(NameError_):
            base.prepend("x" * 64)

    def test_prepend_still_enforces_total_length(self):
        base = DnsName(("x" * 63, "y" * 63, "z" * 63))
        with pytest.raises(NameError_):
            base.prepend("w" * 63)

    def test_concatenate_semantics_and_length_check(self):
        joined = name("a.b.").concatenate(name("c.d."))
        assert joined == name("a.b.c.d.")
        with pytest.raises(NameError_):
            DnsName(("x" * 63, "y" * 63)).concatenate(
                DnsName(("z" * 63, "w" * 63)))

    def test_ordering_through_derived_names(self):
        parent = name("b.example.").parent
        assert parent == name("example.")
        assert name("a.example.") < name("b.example.")
        assert sorted([name("b.example."), name("a.example."),
                       name("z.other.")]) == \
            [name("a.example."), name("b.example."), name("z.other.")]

    def test_identity_fast_path_agrees_with_value_equality(self):
        built = name("same.example.")
        assert built == built
        assert built == DnsName(("same", "example"))


class TestInterning:
    def test_from_text_returns_cached_instance(self):
        first = DnsName.from_text("interned.example.")
        second = DnsName.from_text("interned.example.")
        assert first is second

    def test_different_spellings_are_distinct_objects_but_equal(self):
        lower = DnsName.from_text("spell.example.")
        upper = DnsName.from_text("SPELL.example.")
        assert lower is not upper
        assert lower == upper
        assert str(upper) == "SPELL.example"

    def test_cache_clears_when_full(self):
        name_module._intern_cache.clear()
        keep = DnsName.from_text("survivor.example.")
        for index in range(name_module._INTERN_CACHE_MAX):
            DnsName.from_text(f"filler-{index}.example.")
        assert len(name_module._intern_cache) <= name_module._INTERN_CACHE_MAX
        again = DnsName.from_text("survivor.example.")
        assert again == keep      # value survives even if identity does not

    def test_invalid_text_still_raises_and_is_not_cached(self):
        with pytest.raises(NameError_):
            DnsName.from_text("bad..example.")
        with pytest.raises(NameError_):   # must raise again, not hit a cache
            DnsName.from_text("bad..example.")


class TestPickling:
    """Shard tasks ship DnsName-bearing specs across process boundaries."""

    def test_roundtrip(self):
        original = name("Pickle.Example.COM")
        clone = pickle.loads(pickle.dumps(original))
        assert clone == original
        assert hash(clone) == hash(original)
        assert str(clone) == "Pickle.Example.COM"
        assert clone.folded == ("pickle", "example", "com")

    def test_root_roundtrip(self):
        clone = pickle.loads(pickle.dumps(DnsName.root()))
        assert clone.is_root()
        assert clone == DnsName.root()


# --------------------------------------------------------------------------
# Values derived once per name: parent, wire length, equality fast path
# --------------------------------------------------------------------------

_LABEL_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-"
_LABEL = st.one_of(
    st.text(alphabet=_LABEL_CHARS, min_size=1, max_size=MAX_LABEL_LENGTH),
    st.just("x" * MAX_LABEL_LENGTH),
    st.just("X" * MAX_LABEL_LENGTH))
_NAME = st.one_of(
    st.just(ROOT),
    st.lists(_LABEL, min_size=1, max_size=5)
    .filter(lambda labels: sum(map(len, labels)) + len(labels) - 1
            <= MAX_NAME_LENGTH)
    .map(DnsName))


def _swap_case(built: DnsName) -> DnsName:
    return DnsName(tuple(label.swapcase() for label in built.labels))


class TestParentLink:
    def test_prepend_links_child_to_self(self):
        base = name("linked.example.")
        assert base.prepend("x").parent is base

    def test_multi_label_prepend_reaches_self(self):
        base = name("linked.example.")
        child = base.prepend("a", "b")
        assert child == name("a.b.linked.example.")
        assert child.parent == name("b.linked.example.")
        assert child.parent.parent is base

    def test_parent_is_memoized(self):
        built = DnsName(("www", "memo", "example"))
        first = built.parent
        assert built.parent is first
        assert first.parent is first.parent

    def test_ancestor_walk_reuses_the_base_chain(self):
        base = name("walk.example.")
        chain = list(base.ancestors(include_self=True))
        for index in range(3):
            probe = base.prepend(f"p-{index}")
            walked = list(probe.ancestors())
            assert all(a is b for a, b in zip(walked, chain))
            assert len(walked) == len(chain)

    def test_root_parent_is_root(self):
        assert ROOT.parent is ROOT
        assert list(ROOT.ancestors(include_self=True)) == [ROOT]
        assert list(ROOT.ancestors()) == [ROOT]

    def test_unique_probe_names_hang_off_the_base_domain(self):
        network = Network()
        cde = CdeInfrastructure(network, RootHierarchy(network))
        assert cde.unique_name().parent is cde.base_domain
        assert cde.unique_name("MixedCase").parent is cde.base_domain


class TestWireLength:
    @settings(max_examples=200)
    @given(built=_NAME)
    def test_equals_the_encoded_name(self, built):
        query = DnsMessage.make_query(built, RRType.A)
        # header (12) + question name + qtype and qclass (4)
        assert built.wire_length == len(encode_message(query)) - 16

    def test_root_and_longest_names(self):
        assert ROOT.wire_length == 1
        longest = DnsName(("a" * 63, "b" * 63, "c" * 63, "d" * 61))
        assert len(str(longest)) == MAX_NAME_LENGTH
        assert longest.wire_length == MAX_NAME_LENGTH + 2

    def test_computed_once(self, monkeypatch):
        measured = []
        measure = DnsName._measure_wire_length

        def counted(self):
            measured.append(self)
            return measure(self)

        monkeypatch.setattr(DnsName, "_measure_wire_length", counted)
        built = DnsName(("Once", "example"))
        assert built.wire_length == built.wire_length == 14
        assert measured == [built]

    def test_no_name_is_sized_twice_in_a_lossy_census(self, monkeypatch,
                                                       tmp_path):
        from repro.study.census import run_census
        from repro.study.internet import WorldConfig

        sized: dict[int, list] = {}   # id -> [name, count]; keeps ids unique
        measure = DnsName._measure_wire_length

        def counted(self):
            sized.setdefault(id(self), [self, 0])[1] += 1
            return measure(self)

        monkeypatch.setattr(DnsName, "_measure_wire_length", counted)
        result = run_census(
            population="open-resolvers", count=12, seed=0, stream=True,
            out_dir=str(tmp_path),
            config=WorldConfig(fault_profile="loss-default",
                               retry_profile="paper"))
        assert result.perf.fused_probes == 0
        assert result.perf.stats.faults_injected > 0
        assert len(sized) > 100
        twice = [str(entry[0]) for entry in sized.values() if entry[1] > 1]
        assert twice == []


class TestEqualityFastPath:
    @settings(max_examples=200)
    @given(left=_NAME, right=_NAME, fold_left=st.booleans(),
           fold_right=st.booleans(), swap=st.booleans())
    def test_agrees_with_folded_tuples(self, left, right, fold_left,
                                       fold_right, swap):
        if swap:
            right = _swap_case(left)
        expected = (tuple(lab.lower() for lab in left.labels)
                    == tuple(lab.lower() for lab in right.labels))
        if fold_left:
            left.folded
        if fold_right:
            right.folded
        assert (left == right) is expected
        assert (right == left) is expected
        assert (left != right) is not expected

    @settings(max_examples=100)
    @given(left=_NAME, right=_NAME, swap=st.booleans())
    def test_str_operands(self, left, right, swap):
        if swap:
            right = _swap_case(left)
        expected = left.folded == DnsName.from_text(str(right)).folded
        assert (left == str(right)) is expected
        if not right.is_root():
            assert (left == str(right) + ".") is expected

    def test_other_operands_are_unequal(self):
        built = name("other.example.")
        assert built != 3
        assert built != ("other", "example")
        assert built.__eq__(3) is NotImplemented

    @settings(max_examples=100)
    @given(child=_NAME, suffix=_NAME, fold=st.booleans())
    def test_is_subdomain_of_agrees_with_folded_tuples(self, child, suffix,
                                                       fold):
        if fold:
            child.folded
        own = tuple(lab.lower() for lab in child.labels)
        theirs = tuple(lab.lower() for lab in suffix.labels)
        expected = (len(theirs) <= len(own)
                    and own[len(own) - len(theirs):] == theirs)
        assert child.is_subdomain_of(suffix) is expected


class TestCachedSlotsReset:
    """Pickling ships labels only; every derived slot starts empty."""

    CACHED = tuple(slot for slot in DnsName.__slots__ if slot != "_labels")

    def _warm(self, built: DnsName) -> DnsName:
        hash(built)
        built.folded
        built.parent
        built.wire_length
        assert all(getattr(built, slot) is not None for slot in self.CACHED)
        return built

    def test_pickle_round_trip_resets_every_cached_slot(self):
        warm = self._warm(name("Warm.Example.COM").prepend("x"))
        clone = pickle.loads(pickle.dumps(warm))
        assert all(getattr(clone, slot) is None for slot in self.CACHED)
        assert clone == warm and hash(clone) == hash(warm)
        assert clone.parent == warm.parent
        assert clone.wire_length == warm.wire_length

    def test_setstate_resets_every_cached_slot(self):
        warm = self._warm(name("Warm.Example.COM").prepend("x"))
        warm.__setstate__(("fresh", "example"))
        assert all(getattr(warm, slot) is None for slot in self.CACHED)
        assert warm == name("fresh.example.")
        assert warm.parent == name("example.")
        assert warm.wire_length == 15
