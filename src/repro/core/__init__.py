"""The paper's contribution: Caches Discovery and Enumeration (CDE)."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .analysis import (
        CacheCountEstimate,
        coupon_tail_bound,
        coverage_fraction,
        estimate_from_occupancy,
        estimate_from_two_phase,
        exact_coverage_fraction,
        expected_queries_asymptotic,
        expected_queries_coupon,
        expected_uncovered,
        harmonic_number,
        init_validate_success,
        queries_for_confidence,
        recommended_seed_count,
    )
    from .baseline import (
        EgressFingerprint,
        IpLevelCensus,
        egress_software_fingerprint,
        ip_level_census,
    )
    from .bypass import (
        BypassEnumerationResult,
        CnameChainBypass,
        NamesHierarchyBypass,
        enumerate_direct_via_cname,
        enumerate_indirect_cname,
        enumerate_indirect_hierarchy,
    )
    from .carpet import CarpetProber, LossEstimate, carpet_k, estimate_loss
    from .edns_survey import (
        EdnsObservation,
        EdnsSurveyResult,
        probe_platform_edns,
        survey_edns_adoption,
    )
    from .enumeration import (
        DirectEnumerationResult,
        TwoPhaseEnumerationResult,
        enumerate_adaptive,
        enumerate_direct,
        enumerate_two_phase,
    )
    from .fingerprint import (
        FingerprintObservation,
        FingerprintResult,
        fingerprint_platform,
        observe_negative_ttl,
        observe_ttl_clamps,
    )
    from .infrastructure import CdeInfrastructure, CnameChain, NamesHierarchy
    from .integrity import (
        IntegrityIssue,
        IntegrityReport,
        check_resolver_integrity,
        filter_clean_resolvers,
    )
    from .mapping import (
        CacheCluster,
        EgressClusterResult,
        EgressDiscoveryResult,
        IngressMappingResult,
        discover_egress_ips,
        map_egress_to_caches,
        map_ingress_to_clusters,
    )
    from .monitor import ChangeEvent, ChangeKind, PlatformMonitor, Snapshot
    from .poisoning import (
        AttackerModel,
        CampaignResult,
        expected_spoofed_packets,
        poison_campaign_probability,
        simulate_campaign,
    )
    from .prober import BrowserProber, DirectProber, IndirectProber, ProbeResult, SmtpProber
    from .resilient import (
        PAPER_RETRY,
        RETRY_PROFILES,
        ZERO_RETRY,
        AttemptRecord,
        DegradationTally,
        ProbeFailure,
        ResilienceSummary,
        RetryBudget,
        RetryPolicy,
        retry_policy,
    )
    from .resilience import (
        FailureReport,
        detect_cache_failures,
        expected_attempts_to_poison,
        measure_cache_count,
        poisoning_success_probability,
        simulate_poisoning_attempts,
    )
    from .selector_inference import SelectorClass, SelectorInference, infer_selector
    from .session import CdeStudy, PlatformReport, StudyParameters
    from .timing import (
        IndirectTimingResult,
        LatencyClassifier,
        TimingCalibration,
        TimingEnumerationResult,
        calibrate_timing,
        enumerate_by_timing,
        enumerate_by_timing_indirect,
        split_bimodal,
    )
    from .ttlcheck import (
        TtlCheckReport,
        TtlVerdict,
        check_ttl_consistency,
        naive_ttl_study_would_misreport,
    )

if not TYPE_CHECKING:
    __all__, __getattr__, __dir__ = lazy_exports(globals())
