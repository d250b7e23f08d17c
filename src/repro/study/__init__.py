"""Internet-study harness: populations, the simulated Internet, figures."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .accuracy import (
        AccuracyReport,
        AccuracyStats,
        accuracy_report,
        selector_class_of,
    )
    from .collection import (
        AdCollectionResult,
        ScanResult,
        SmtpCollectionResult,
        TABLE1_PAPER_ROWS,
        classify_mechanism,
        run_ad_collection,
        run_smtp_collection,
        scan_for_open_resolvers,
    )
    from .census import (
        CensusAggregates,
        CensusResult,
        MemoryBudgetExceeded,
        run_census,
        simulate_census_rows,
    )
    from .export import (
        CensusWriter,
        edns_survey_to_dict,
        measurement_to_dict,
        measurement_to_ndjson,
        measurements_to_dict,
        monitor_to_dict,
        ndjson_line,
        perf_to_dict,
        read_census_lines,
        read_census_manifest,
        read_census_rows,
        report_to_dict,
        table1_to_dict,
        to_json,
    )
    from .figures import (
        FigureData,
        measurements_csv,
        regenerate_all,
        table1_csv,
    )
    from .internet import (
        HostedPlatform,
        SimulatedInternet,
        SinkEndpoint,
        WorldConfig,
        build_world,
    )
    from .measurement import (
        MeasurementBudget,
        PlatformMeasurement,
        measure_direct,
        measure_population,
        measure_via_browser,
        measure_via_smtp,
    )
    from .operators import (
        AD_NETWORK_OPERATORS,
        EMAIL_SERVER_OPERATORS,
        OPEN_RESOLVER_OPERATORS,
        OPERATOR_TABLES,
        country_of_operator,
        draw_operator,
        top_n_table,
    )
    from .engine import (
        BATCH_PROBES,
        STREAM_BUFFER_ROWS,
        PipelinedEngine,
        ShardLane,
    )
    from .parallel import (
        DEFAULT_SHARDS,
        MIN_PLATFORMS_PER_WORKER,
        ParallelMeasurement,
        ShardOutcome,
        ShardTask,
        StreamingMeasurement,
        plan_shards,
        resolve_workers,
        run_parallel_measurement,
        run_shard,
        shard_seed,
        stream_parallel_measurement,
    )
    from .population import (
        POPULATIONS,
        SELECTOR_MIX,
        PlatformSpec,
        PopulationGenerator,
        draw_selector_name,
        generate_population,
        iter_population,
    )
    from .report import (
        format_bubbles,
        format_cdf_series,
        format_fractions,
        format_perf,
        format_ratio_breakdown,
        format_resilience,
        format_table,
    )
    from .trends import EvolutionModel, TrendAccumulator, TrendRound, TrendStudy
    from .stats import (
        BubbleAccumulator,
        CdfAccumulator,
        RatioAccumulator,
        RatioBreakdown,
        ResilienceAccumulator,
        bubble_counts,
        cdf_at,
        cdf_points,
        fraction_above,
        fraction_at_most,
        median,
        ratio_breakdown,
        resilience_summary,
        snap_to_bin,
    )

if not TYPE_CHECKING:
    __all__, __getattr__, __dir__ = lazy_exports(globals())
