"""Compiled links draw exactly what the link models draw.

:class:`~repro.net.network.Network` compiles each registration's link
once: constant or lognormal latency with no loss or Bernoulli loss become
plain numbers that a traversal samples inline, and every other model keeps
calling its own methods.  The differential here runs one seeded sequence
of ``Network.query`` calls twice — on the real network and on a reference
whose traversal is the model-method code the network had before links
were compiled — and requires the same transactions and exceptions, clock,
counters and RNG states, for every latency × loss model at the
destination, with the source unregistered or on another model, over UDP
and TCP, with no faults and under two fault profiles.
"""

from __future__ import annotations

import random
from dataclasses import astuple

import pytest

from repro.dns.errors import QueryTimeout
from repro.dns.message import DnsMessage
from repro.dns.name import name
from repro.dns.rrtype import RRType
from repro.net.clock import SimClock
from repro.net.faults import FaultInjector, fault_plan
from repro.net.latency import (
    CompositeLatency,
    ConstantLatency,
    LogNormalLatency,
    UniformLatency,
)
from repro.net.loss import BernoulliLoss, BurstLoss, NoLoss
from repro.net.network import LinkProfile, Network, compile_link
from repro.net.rng import RngFactory

#: Every latency model; each call builds fresh instances.
LATENCIES = {
    "constant": lambda: ConstantLatency(0.012),
    "uniform": lambda: UniformLatency(0.004, 0.03),
    "lognormal": lambda: LogNormalLatency(0.015, 0.4),
    "composite": lambda: CompositeLatency(0.01, LogNormalLatency(0.005, 0.3)),
}
#: Every loss model, Bernoulli at rate 0 included; BurstLoss is stateful,
#: so each network gets its own instance.
LOSSES = {
    "none": NoLoss,
    "bernoulli-0": lambda: BernoulliLoss(0.0),
    "bernoulli": lambda: BernoulliLoss(0.2),
    "burst": lambda: BurstLoss(good_to_bad=0.2, bad_to_good=0.4,
                               bad_loss_rate=0.7),
}
DST = "10.0.0.1"
SRC = "10.0.0.2"
QUERIES = 160


def _reference_traverse(rng, src_profile, dst_profile):
    """The traversal before links were compiled: model methods only."""
    latency = dst_profile.latency.sample(rng)
    lost = dst_profile.loss.is_lost(rng)
    if src_profile is not None:
        latency += src_profile.latency.sample(rng)
        lost = lost or src_profile.loss.is_lost(rng)
    return lost, latency


class _ReferenceNetwork(Network):
    def _traverse(self, src, dst):
        return _reference_traverse(
            self._rng, None if src is None else src.profile, dst.profile)


class _Responder:
    """Answers every query but each seventh, which it drops silently."""

    def __init__(self):
        self.seen = 0

    def handle_message(self, message, src_ip, network):
        self.seen += 1
        if self.seen % 7 == 0:
            return None
        return message.make_response()


def _profile(latency, loss):
    return LinkProfile(LATENCIES[latency](), LOSSES[loss]())


def _run(network_class, dst_models, src_models, faults):
    clock = SimClock()
    factory = RngFactory(29)
    network = network_class(clock=clock, rng_factory=factory)
    if faults is not None:
        network.install_faults(FaultInjector(
            fault_plan(faults), clock, factory.stream("faults")))
    responder = _Responder()
    network.register(DST, responder, _profile(*dst_models))
    if src_models is not None:
        network.register(SRC, responder, _profile(*src_models))
    ids = random.Random(3)
    outcomes = []
    for index in range(QUERIES):
        message = DnsMessage.make_query(name(f"q{index}.example"), RRType.A,
                                        msg_id=ids.randrange(1 << 16))
        if index % 5 == 0:
            message = message.over_tcp()
        try:
            transaction = network.query(SRC, DST, message, timeout=1.0,
                                        retries=index % 3)
        except QueryTimeout as timeout:
            outcomes.append(("timeout", str(timeout)))
        else:
            response = transaction.response
            outcomes.append(("ok", transaction.rtt, transaction.attempts,
                             response.rcode, response.truncated,
                             response.msg_id))
        # Spread the sequence over hostile-mix's 40-60 s outage window.
        clock.advance(0.4)
    injector = network.injector
    return {
        "outcomes": outcomes,
        "clock": clock.now,
        "stats": astuple(network.stats),
        "network_rng": network._rng.getstate(),
        "fault_rng": None if injector is None else injector.rng.getstate(),
        "exposure": None if injector is None else injector.exposure.snapshot(),
        "seen": responder.seen,
    }


_MODELS = [(latency, loss) for latency in LATENCIES for loss in LOSSES]


def _source(dst_models, shift):
    """The source's model pair: ``shift`` 8 swaps constant with lognormal
    and uniform with composite latency at the same loss (so two lossy
    compiled ends meet); ``shift`` 5 pairs compiled with uncompiled
    ends."""
    return _MODELS[(_MODELS.index(dst_models) + shift) % len(_MODELS)]


class TestCompiledTraversal:
    @pytest.mark.parametrize("faults", [None, "loss-default", "hostile-mix"])
    @pytest.mark.parametrize("src_shift", [None, 8, 5],
                             ids=["src-unregistered", "src-same-loss",
                                  "src-mixed"])
    @pytest.mark.parametrize("dst_models", _MODELS,
                             ids=["-".join(models) for models in _MODELS])
    def test_matches_the_model_methods(self, dst_models, src_shift, faults):
        src_models = (None if src_shift is None
                      else _source(dst_models, src_shift))
        compiled = _run(Network, dst_models, src_models, faults)
        reference = _run(_ReferenceNetwork, dst_models, src_models, faults)
        for key in compiled:
            assert compiled[key] == reference[key], key
        # The sequence reached both outcomes on every lossy link.
        kinds = {outcome[0] for outcome in compiled["outcomes"]}
        assert "ok" in kinds

    def test_send_oneway_matches_the_model_methods(self):
        results = []
        for network_class in (Network, _ReferenceNetwork):
            network = network_class(rng_factory=RngFactory(5))
            network.register(DST, _Responder(),
                             _profile("lognormal", "bernoulli"))
            network.register(SRC, _Responder(), _profile("uniform", "burst"))
            delivered = [network.send_oneway(SRC, DST, DnsMessage.make_query(
                name("x.example"), RRType.A)) for _ in range(50)]
            results.append((delivered, network.clock.now,
                            astuple(network.stats),
                            network._rng.getstate()))
        assert results[0] == results[1]


class TestCompileLink:
    @pytest.mark.parametrize("latency, loss, expected", [
        ("constant", "none", (False, 0.012, 0.0, 0.0)),
        ("lognormal", "bernoulli", (True, 0.015, 0.4, 0.2)),
        ("lognormal", "bernoulli-0", (True, 0.015, 0.4, 0.0)),
        ("uniform", "none", None),
        ("composite", "bernoulli", None),
        ("constant", "burst", None),
    ])
    def test_gate(self, latency, loss, expected):
        assert compile_link(_profile(latency, loss)) == expected

    def test_registration_carries_the_compiled_link(self):
        network = Network()
        network.register(DST, _Responder(), _profile("lognormal", "none"))
        network.register(SRC, _Responder(), _profile("uniform", "none"))
        assert network.link_of(DST) == (True, 0.015, 0.4, 0.0)
        assert network.link_of(SRC) is None
        assert network.link_of("10.9.9.9") is None
