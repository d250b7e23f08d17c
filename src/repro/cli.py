"""Command-line front end (``repro-cde``).

The paper promises "We make our tools available for public use"; this CLI is
that surface for the simulated testbed.  Subcommands:

* ``demo``      — build a world, one platform, run the full study.
* ``enumerate`` — cache enumeration against a platform you describe.
* ``table1``    — regenerate Table I from a fresh SMTP collection.
* ``figures``   — regenerate the Figure 3/4/6 series for small populations.
* ``census``    — population census through the bounded-memory pipeline,
  with chunked NDJSON export and ``--resume`` checkpoints.
* ``analysis``  — print the §V-B coupon-collector planning table.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core.analysis import (
    expected_queries_coupon,
    init_validate_success,
    queries_for_confidence,
)


def _cmd_demo(args: argparse.Namespace) -> int:
    from .study import build_world, report_to_dict, to_json

    world = build_world(seed=args.seed)
    hosted = world.add_platform(
        n_ingress=args.ingress, n_caches=args.caches, n_egress=args.egress,
        selector=args.selector,
    )
    report = world.study(hosted)
    if args.json:
        print(to_json(report_to_dict(report)))
        return 0
    print(f"platform: {hosted.spec.name} "
          f"(truth: {args.caches} caches, {args.egress} egress IPs)")
    print(f"measured caches:   {report.cache_count}")
    print(f"measured egress:   {report.n_egress_ips}")
    print(f"ingress clusters:  {report.n_ingress_clusters}")
    print(f"queries spent:     {report.queries_sent}")
    for note in report.notes:
        print(f"note: {note}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .core.enumeration import enumerate_direct, enumerate_two_phase
    from .study import build_world

    world = build_world(seed=args.seed)
    hosted = world.add_platform(
        n_ingress=1, n_caches=args.caches, n_egress=max(1, args.caches // 2),
        selector=args.selector,
    )
    ingress_ip = hosted.platform.ingress_ips[0]
    direct = enumerate_direct(world.cde, world.prober, ingress_ip, q=args.q)
    print(f"direct:    q={args.q}  arrivals(omega)={direct.arrivals}  "
          f"-> {direct.cache_count} caches")
    two_phase = enumerate_two_phase(world.cde, world.prober, ingress_ip,
                                    seeds=args.seeds)
    print(f"two-phase: N={args.seeds}  validate-arrivals="
          f"{two_phase.validate_arrivals}  -> estimate "
          f"{two_phase.estimate.estimate:.2f}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .study import (
        TABLE1_PAPER_ROWS,
        build_world,
        format_table,
        generate_population,
        run_smtp_collection,
    )

    world = build_world(seed=args.seed)
    specs = generate_population("email-servers", args.domains,
                                seed=args.seed, max_egress=10, max_caches=4)
    result = run_smtp_collection(world, specs)
    paper = dict(TABLE1_PAPER_ROWS)
    rows = [(label, f"{100 * measured:.1f}%", f"{100 * paper[label]:.1f}%")
            for label, measured in result.table1_rows()]
    print(format_table(["Query type", "Measured", "Paper"], rows,
                       title=f"Table I ({result.domains_probed} domains)"))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .core.resilient import RETRY_PROFILES
    from .net.faults import FAULT_PROFILES
    from .study import (
        CensusAggregates,
        build_world,
        format_bubbles,
        format_cdf_series,
        format_perf,
        format_ratio_breakdown,
        format_resilience,
        regenerate_all,
        table1_csv,
    )
    from .study.figures import DEFAULT_CAPS

    if args.workers < 0:
        print("error: --workers must be >= 0", file=sys.stderr)
        return 2
    if args.fault_profile not in FAULT_PROFILES:
        print(f"error: unknown --fault-profile {args.fault_profile!r} "
              f"(known: {', '.join(sorted(FAULT_PROFILES))})",
              file=sys.stderr)
        return 2
    if args.retry_profile not in RETRY_PROFILES:
        print(f"error: unknown --retry-profile {args.retry_profile!r} "
              f"(known: {', '.join(sorted(RETRY_PROFILES))})",
              file=sys.stderr)
        return 2
    world = build_world(seed=args.seed,
                        fault_profile=args.fault_profile,
                        retry_profile=args.retry_profile)
    sizes = {population: args.count
             for population in ("open-resolvers", "email-servers",
                                "ad-network")}
    data = regenerate_all(world, sizes=sizes, caps=DEFAULT_CAPS,
                          table1_domains=max(20, args.count),
                          seed=args.seed, workers=args.workers,
                          out_dir=args.out)
    print(format_cdf_series(data.egress_series(),
                            xs=[1, 2, 5, 11, 20, 40],
                            title="Figure 3: egress IPs per platform (CDF)",
                            x_label="egress IPs"))
    print()
    print(format_cdf_series(data.cache_series(), xs=[1, 2, 3, 4, 8, 12],
                            title="Figure 4: caches per platform (CDF)",
                            x_label="caches"))
    print()
    print(format_ratio_breakdown(data.ratio_breakdowns(),
                                 title="Figure 6: IP/cache ratio categories"))
    print()
    print(format_perf(data.perf))
    merged = CensusAggregates()
    for aggregates in data.aggregates.values():
        merged.merge(aggregates)
    degradation = merged.resilience.summary()
    if (degradation.degraded_platforms or degradation.fault_exposure
            or args.fault_profile != "none" or args.retry_profile != "none"):
        print()
        print(format_resilience(
            degradation,
            title=f"measurement degradation (faults={args.fault_profile}, "
                  f"retry={args.retry_profile})"))
    if args.bubbles:
        for population, figure in (("open-resolvers", "Figure 5"),
                                   ("email-servers", "Figure 7"),
                                   ("ad-network", "Figure 8")):
            print()
            print(format_bubbles(data.bubbles(population),
                                 title=f"{figure}: {population}"))
    if args.out:
        import pathlib

        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "table1.csv").write_text(table1_csv(data))
        print(f"\nwrote {out_dir}/table1.csv and one census export per "
              f"population under {out_dir}/")
    return 0


def _cmd_ttlcheck(args: argparse.Namespace) -> int:
    from .core import check_ttl_consistency, naive_ttl_study_would_misreport
    from .study import build_world

    world = build_world(seed=args.seed)
    hosted = world.add_platform(n_ingress=1, n_caches=args.caches,
                                n_egress=1, max_ttl=args.max_ttl)
    report = check_ttl_consistency(world.cde, world.prober,
                                   hosted.platform.ingress_ips[0],
                                   record_ttl=args.ttl)
    print(f"measured caches:       {report.measured_caches}")
    print(f"arrivals within TTL:   {report.arrivals_within_ttl}")
    print(f"arrivals after expiry: {report.arrivals_after_expiry}")
    print(f"verdict:               {report.verdict.value}")
    warning = naive_ttl_study_would_misreport(report)
    if warning:
        print(warning)
    return 0


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    from .cache.software import profile_by_name
    from .core import fingerprint_platform
    from .resolver import PlatformConfig, ResolutionPlatform
    from .study import build_world

    world = build_world(seed=args.seed)
    pool = world.platform_allocator.allocate_pool(2)
    config = PlatformConfig(
        name="fp-target", ingress_ips=[pool.allocate()],
        egress_ips=[pool.allocate()], n_caches=1,
        software_profiles=[profile_by_name(args.software)],
    )
    platform = ResolutionPlatform(config, world.network,
                                  world.hierarchy.root_hints)
    platform.attach()
    results = fingerprint_platform(world.cde, world.prober,
                                   config.ingress_ips[0], samples=1)
    observation = results[0].observation
    candidates = results[0].candidates
    print(f"observed max-TTL clamp: {observation.observed_max_ttl}")
    print(f"observed min-TTL floor: {observation.observed_min_ttl}")
    if len(candidates) > 1:
        # Disambiguate via the negative-TTL cap bracket.
        from .core import observe_negative_ttl

        bracket = observe_negative_ttl(world.cde, world.prober,
                                       config.ingress_ips[0])
        observation.negative_ttl_bracket = bracket
        print(f"negative-TTL bracket:   {bracket}")
        from .cache.software import PROFILES

        candidates = [name_ for name_, profile in PROFILES.items()
                      if observation.matches(profile)]
    print(f"candidates: {', '.join(candidates) or '(none)'}")
    if len(candidates) == 1:
        print(f"identified: {candidates[0]}")
    return 0


def _cmd_edns(args: argparse.Namespace) -> int:
    from .core import survey_edns_adoption
    from .study import build_world

    world = build_world(seed=args.seed)
    rng = world.rng_factory.stream("edns-cli")
    ingress_ips = []
    for _ in range(args.platforms):
        hosted = world.add_platform(n_ingress=1, n_caches=1, n_egress=1)
        if rng.random() > args.adoption:
            hosted.platform.config.edns_payload_size = None
        ingress_ips.append(hosted.platform.ingress_ips[0])
    survey = survey_edns_adoption(world.cde, world.prober, ingress_ips)
    print(f"surveyed {survey.surveyed} platforms; "
          f"{survey.supporting} answer with EDNS "
          f"({survey.adoption_rate:.0%})")
    for size, count in sorted(survey.size_histogram().items()):
        print(f"  advertised payload {size}: {count}")
    return 0


def _cmd_multipool(args: argparse.Namespace) -> int:
    from .core import map_ingress_to_clusters
    from .study import build_world

    world = build_world(seed=args.seed)
    shapes = [(args.ingress_per_pool, args.caches_per_pool, 1)
              for _ in range(args.pools)]
    platform = world.add_multipool_platform(pool_shapes=shapes)
    print(f"platform: {platform.n_pools} pools, "
          f"{len(platform.ingress_ips)} ingress IPs, "
          f"{platform.total_caches} caches total (all hidden)")
    result = map_ingress_to_clusters(world.cde, world.prober,
                                     platform.ingress_ips,
                                     n_hint=args.caches_per_pool)
    print(f"clustering discovered {result.n_clusters} cache pools:")
    for cluster in result.clusters:
        truth = platform.pool_of(cluster.member_ips[0])
        print(f"  cluster {cluster.cluster_id}: {cluster.member_ips} "
              f"(truth: {truth})")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    """Fast end-to-end self-verification of the toolkit (~2 s)."""
    from .core import (
        enumerate_by_timing,
        enumerate_direct,
        enumerate_indirect_cname,
        map_ingress_to_clusters,
        discover_egress_ips,
        queries_for_confidence,
    )
    from .study import build_world

    world = build_world(seed=args.seed, lossy_platforms=False)
    hosted = world.add_platform(n_ingress=2, n_caches=3, n_egress=2)
    ingress = hosted.platform.ingress_ips[0]
    budget = queries_for_confidence(3, 0.999)
    checks = []

    direct = enumerate_direct(world.cde, world.prober, ingress, q=budget)
    checks.append(("direct census", direct.arrivals == 3))
    timing = enumerate_by_timing(world.cde, world.prober, ingress,
                                 probes=budget)
    checks.append(("timing census", timing.miss_latency_count == 3))
    browser = world.make_browser_prober(hosted)
    cname = enumerate_indirect_cname(world.cde, browser, q=budget)
    checks.append(("cname bypass", cname.arrivals == 3))
    egress = discover_egress_ips(world.cde, world.prober, ingress, probes=24)
    checks.append(("egress census", egress.n_egress == 2))
    clusters = map_ingress_to_clusters(world.cde, world.prober,
                                       hosted.platform.ingress_ips)
    checks.append(("ingress clustering", clusters.n_clusters == 1))

    failed = 0
    for label, passed in checks:
        print(f"[{'ok' if passed else 'FAIL'}] {label}")
        failed += not passed
    if failed:
        print(f"{failed} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    """Population census through the streaming bounded-memory pipeline."""
    from .net.faults import FAULT_PROFILES
    from .study import WorldConfig, format_table
    from .study.census import MemoryBudgetExceeded, run_census

    if args.count < 1:
        print("error: --count must be >= 1", file=sys.stderr)
        return 2
    if args.workers < 0:
        print("error: --workers must be >= 0", file=sys.stderr)
        return 2
    if args.fault_profile not in FAULT_PROFILES:
        print(f"error: unknown --fault-profile {args.fault_profile!r} "
              f"(known: {', '.join(sorted(FAULT_PROFILES))})",
              file=sys.stderr)
        return 2
    if args.resume and not args.out:
        print("error: --resume requires --out", file=sys.stderr)
        return 2
    config = WorldConfig(seed=args.seed, fault_profile=args.fault_profile)
    caps = {"max_caches": args.max_caches, "max_ingress": args.max_ingress,
            "max_egress": args.max_egress}
    try:
        result = run_census(
            population=args.population,
            count=args.count,
            seed=args.seed,
            workers=args.workers,
            n_shards=args.shards,
            config=config,
            stream=True,
            simulate=args.simulate,
            out_dir=args.out,
            chunk_size=args.chunk_size,
            resume=args.resume,
            max_rss_mb=args.max_rss_mb,
            spec_caps=caps,
        )
    except MemoryBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    aggregates = result.aggregates
    mode = "simulated" if args.simulate else "streaming"
    print(f"census: {aggregates.rows} platforms ({mode} pipeline)")
    print(format_table(
        ["group", "n", "exact", "MAE", "bias"],
        [(label, str(n), exact, mae, bias)
         for label, n, exact, mae, bias in aggregates.accuracy.rows()],
        title="accuracy"))
    ledger = aggregates.ledger.to_dict()
    print(f"budget ledger: {ledger['spent_queries']} of "
          f"{ledger['budget_queries']} planned queries "
          f"({100 * aggregates.ledger.utilisation:.1f}% utilisation, "
          f"{ledger['chunks']} chunks)")
    if result.perf is not None:
        print(f"throughput: {result.perf.platforms_per_second:.1f} "
              f"platforms/s on {result.perf.workers} workers")
    print(f"peak RSS: {result.peak_rss_mb:.1f} MiB")
    if args.out:
        note = (f" ({result.skipped_rows} rows resumed from checkpoint)"
                if result.skipped_rows else "")
        print(f"wrote {result.written_rows} rows to {args.out}{note}")
    return 0


def _cmd_analysis(args: argparse.Namespace) -> int:
    print("n caches | E[X]=n*H_n | q for 99% | init/validate success (N=2n)")
    for n in args.n:
        expected = expected_queries_coupon(n)
        budget = queries_for_confidence(n, 0.99)
        success = init_validate_success(2 * n, n)
        print(f"{n:8d} | {expected:10.1f} | {budget:9d} | "
              f"{success:.1f} of {2 * n}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cde",
        description="Caches Discovery and Enumeration toolkit "
                    "(DSN 2017 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="full study of one platform")
    demo.add_argument("--ingress", type=int, default=2)
    demo.add_argument("--caches", type=int, default=4)
    demo.add_argument("--egress", type=int, default=3)
    demo.add_argument("--selector", default="uniform-random")
    demo.add_argument("--json", action="store_true",
                      help="emit the report as JSON")
    demo.set_defaults(func=_cmd_demo)

    enum = sub.add_parser("enumerate", help="cache enumeration techniques")
    enum.add_argument("--caches", type=int, default=4)
    enum.add_argument("--selector", default="uniform-random")
    enum.add_argument("-q", type=int, default=64)
    enum.add_argument("--seeds", type=int, default=32)
    enum.set_defaults(func=_cmd_enumerate)

    table1 = sub.add_parser("table1", help="regenerate Table I")
    table1.add_argument("--domains", type=int, default=200)
    table1.set_defaults(func=_cmd_table1)

    figures = sub.add_parser("figures", help="regenerate Figures 3-8")
    figures.add_argument("--count", type=int, default=30,
                         help="platforms per population")
    figures.add_argument("--workers", type=int, default=0,
                         help="worker processes for each population's "
                              "census (0 = in-process engine)")
    figures.add_argument("--fault-profile", default="none",
                         help="named fault profile to measure under "
                              "(seed-deterministic; see repro.net.faults."
                              "FAULT_PROFILES; default: none)")
    figures.add_argument("--retry-profile", default="none",
                         help="named retry/backoff policy for the probers "
                              "(see repro.core.resilient.RETRY_PROFILES; "
                              "default: none)")
    figures.add_argument("--bubbles", action="store_true",
                         help="also print the Figure 5/7/8 bubble tables")
    figures.add_argument("--out", default=None,
                         help="directory for table1.csv and one census "
                              "NDJSON export per population")
    figures.set_defaults(func=_cmd_figures)

    census = sub.add_parser(
        "census", help="population census (streaming bounded-memory mode)")
    census.add_argument("--population", default="open-resolvers",
                        help="population model to census")
    census.add_argument("--count", type=int, default=100,
                        help="platforms to census")
    census.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = in-process engine)")
    census.add_argument("--shards", type=int, default=None,
                        help="shard count (default: engine default)")
    census.add_argument("--simulate", action="store_true",
                        help="synthetic deterministic rows, no worlds "
                             "(scale/pipeline testing)")
    census.add_argument("--out", default=None,
                        help="directory for the chunked NDJSON export")
    census.add_argument("--chunk-size", type=int, default=1000,
                        help="rows per export chunk (checkpoint unit)")
    census.add_argument("--resume", action="store_true",
                        help="resume an interrupted census from the last "
                             "complete chunk in --out")
    census.add_argument("--max-rss-mb", type=float, default=None,
                        help="abort (keeping the checkpoint) if peak RSS "
                             "crosses this many MiB")
    census.add_argument("--fault-profile", default="none",
                        help="named fault profile (see repro.net.faults)")
    census.add_argument("--max-caches", type=int, default=8,
                        help="population cap: caches per platform")
    census.add_argument("--max-ingress", type=int, default=4,
                        help="population cap: ingress IPs per platform")
    census.add_argument("--max-egress", type=int, default=8,
                        help="population cap: egress IPs per platform")
    census.set_defaults(func=_cmd_census)

    analysis = sub.add_parser("analysis", help="coupon-collector table")
    analysis.add_argument("n", type=int, nargs="*",
                          default=[1, 2, 4, 8, 16, 32])
    analysis.set_defaults(func=_cmd_analysis)

    ttlcheck = sub.add_parser("ttlcheck",
                              help="TTL-consistency differentiator (§II-C.1)")
    ttlcheck.add_argument("--caches", type=int, default=3)
    ttlcheck.add_argument("--ttl", type=int, default=600)
    ttlcheck.add_argument("--max-ttl", type=int, default=None,
                          help="platform max-TTL clamp (simulates violators)")
    ttlcheck.set_defaults(func=_cmd_ttlcheck)

    fingerprint = sub.add_parser("fingerprint",
                                 help="cache software fingerprinting (§II-C)")
    fingerprint.add_argument("--software", default="unbound-like",
                             help="profile the hidden cache actually runs")
    fingerprint.set_defaults(func=_cmd_fingerprint)

    edns = sub.add_parser("edns", help="EDNS adoption survey (§II-C)")
    edns.add_argument("--platforms", type=int, default=30)
    edns.add_argument("--adoption", type=float, default=0.8,
                      help="true adoption rate to simulate")
    edns.set_defaults(func=_cmd_edns)

    multipool = sub.add_parser(
        "multipool", help="ingress→cache-pool clustering demo (§IV-B1b)")
    multipool.add_argument("--pools", type=int, default=3)
    multipool.add_argument("--ingress-per-pool", type=int, default=2)
    multipool.add_argument("--caches-per-pool", type=int, default=2)
    multipool.set_defaults(func=_cmd_multipool)

    selftest = sub.add_parser("selftest",
                              help="fast end-to-end self-verification")
    selftest.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
