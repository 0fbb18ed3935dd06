//! Cross-topology differential suite: the network subsystem must change
//! *when* messages arrive, never *what* the cluster computes — and the
//! ideal interconnect must not change anything at all.
//!
//! Four properties pin the contention model down:
//!
//! * **ideal is absence** — an explicit `--topology ideal` run is
//!   bit-identical (checksum, modeled time, whole `ClusterStats`) to a run
//!   that never mentions the network, for every tiny application and both
//!   protocols.  The seam really is invisible until
//!   switched on.
//! * **aggregation needs a wire** — batching diff flushes under the ideal
//!   topology is a bit-identical no-op; under any topology it is a no-op
//!   for the multi-writer protocol (only the home-based flush train
//!   batches).
//! * **contention is deterministic** — bus and switched runs reproduce
//!   bit-identically under reruns, still verify against the sequential
//!   reference, and account occupancy on exactly the links the topology
//!   declares (one bus, or one NIC per rank).
//! * **the trade-off has a sign** — on one pinned Ilink cell, batching the
//!   home-based flushes is faster than per-message flushes on the shared
//!   bus and slower on the switch, with identical message counts either
//!   way: the divergence is carried entirely by link occupancy.

use tdsm_core::{AggregationPolicy, ProtocolMode, SchedConfig, Topology};
use tm_apps::{checksums_match, AppConfig, AppId, Workload};

/// Same golden seed as the cross-protocol suite.
const GOLDEN_SEED: u64 = 0x5eed;

fn cfg(protocol: ProtocolMode) -> AppConfig {
    AppConfig::with_procs(4)
        .sched(SchedConfig::seeded(GOLDEN_SEED))
        .protocol(protocol)
}

fn protocols() -> [ProtocolMode; 2] {
    [ProtocolMode::MultiWriter, ProtocolMode::home_based()]
}

/// Ideal topology, explicit or implicit, is the exact pre-network
/// simulator: every counter of every run is bit-identical and no link is
/// ever materialized.
#[test]
fn explicit_ideal_topology_is_bit_identical_to_the_default() {
    for w in Workload::tiny_suite() {
        for protocol in protocols() {
            let plain = w.run_parallel(&cfg(protocol));
            let ideal = w.run_parallel(
                &cfg(protocol)
                    .topology(Topology::Ideal)
                    .aggregation(AggregationPolicy::PerMessage),
            );
            let tag = format!("{} {:?}", w.size_label, protocol);
            assert_eq!(
                plain.checksum.to_bits(),
                ideal.checksum.to_bits(),
                "{tag}: checksum"
            );
            assert_eq!(plain.exec_time_ns, ideal.exec_time_ns, "{tag}: exec time");
            assert_eq!(plain.stats, ideal.stats, "{tag}: cluster stats");
            assert!(plain.stats.links.is_empty(), "{tag}: ideal tracks no links");
        }
    }
}

/// Batching is meaningless without a wire to contend for: under the ideal
/// topology the aggregation policy changes nothing, bit for bit.
#[test]
fn aggregation_is_a_no_op_on_the_ideal_interconnect() {
    for w in Workload::tiny_suite() {
        for protocol in protocols() {
            let per = w.run_parallel(&cfg(protocol));
            let batched = w.run_parallel(&cfg(protocol).aggregation(AggregationPolicy::Batched));
            let tag = format!("{} {:?}", w.size_label, protocol);
            assert_eq!(
                per.checksum.to_bits(),
                batched.checksum.to_bits(),
                "{tag}: checksum"
            );
            assert_eq!(per.exec_time_ns, batched.exec_time_ns, "{tag}: exec time");
            assert_eq!(per.stats, batched.stats, "{tag}: cluster stats");
        }
    }
}

/// Only the home-based flush train aggregates: under the multi-writer
/// protocol the policy is inert even on contended topologies.
#[test]
fn aggregation_only_touches_home_based_flushes() {
    for topology in [Topology::SharedBus, Topology::Switched] {
        for w in Workload::tiny_suite() {
            let base = cfg(ProtocolMode::MultiWriter).topology(topology);
            let per = w.run_parallel(&base.clone().aggregation(AggregationPolicy::PerMessage));
            let batched = w.run_parallel(&base.aggregation(AggregationPolicy::Batched));
            let tag = format!("{} {:?}", w.size_label, topology);
            assert_eq!(
                per.checksum.to_bits(),
                batched.checksum.to_bits(),
                "{tag}: checksum"
            );
            assert_eq!(per.exec_time_ns, batched.exec_time_ns, "{tag}: exec time");
            assert_eq!(per.stats, batched.stats, "{tag}: cluster stats");
        }
    }
}

/// Contended topologies stay deterministic and keep computing the right
/// answer: reruns reproduce every counter bit-identically, checksums still
/// verify against the sequential reference, and the link table has exactly
/// the shape the topology declares, with real occupancy on it.
#[test]
fn contended_topologies_are_deterministic_and_account_every_link() {
    for topology in [Topology::SharedBus, Topology::Switched] {
        for aggregation in [AggregationPolicy::PerMessage, AggregationPolicy::Batched] {
            for w in Workload::tiny_suite() {
                let config = cfg(ProtocolMode::home_based())
                    .topology(topology)
                    .aggregation(aggregation);
                let run = w.run_parallel(&config);
                let again = w.run_parallel(&config);
                let tag = format!("{} {:?} {:?}", w.size_label, topology, aggregation);

                assert_eq!(
                    run.checksum.to_bits(),
                    again.checksum.to_bits(),
                    "{tag}: rerun checksum"
                );
                assert_eq!(run.exec_time_ns, again.exec_time_ns, "{tag}: rerun time");
                assert_eq!(run.stats, again.stats, "{tag}: rerun stats");
                assert!(
                    checksums_match(run.checksum, w.run_sequential(), 1e-6),
                    "{tag}: checksum diverged from sequential"
                );

                // The link table is the topology's: one shared bus, or one
                // NIC per rank, in index order.
                let expected = match topology {
                    Topology::SharedBus => 1,
                    Topology::Switched => 4,
                    Topology::Ideal => unreachable!(),
                };
                assert_eq!(run.stats.links.len(), expected, "{tag}: link count");
                for (i, link) in run.stats.links.iter().enumerate() {
                    assert_eq!(link.link as usize, i, "{tag}: link index");
                }

                // Every app in the tiny suite communicates at 4 procs, so
                // occupancy is real: messages crossed links, the wire was
                // busy for a plausible fraction of the run.
                let messages: u64 = run.stats.links.iter().map(|l| l.messages).sum();
                let busy: u64 = run.stats.links.iter().map(|l| l.busy_ns).sum();
                assert!(messages > 0, "{tag}: no messages occupied any link");
                assert!(busy > 0, "{tag}: links never busy");
                // Utilization is a true fraction: the denominator is the
                // later of the timed region and the link's own occupancy
                // window, which provably contains every (disjoint) busy
                // interval — even when post-run verification traffic runs
                // past the timed region on a saturated bus.
                for link in &run.stats.links {
                    let util = link.utilization(run.exec_time_ns);
                    assert!(
                        util > 0.0 || link.messages == 0,
                        "{tag}: link {} carried messages but reports zero utilization",
                        link.link
                    );
                    assert!(
                        util <= 1.0,
                        "{tag}: link {} utilization {util} above 1.0",
                        link.link
                    );
                    assert!(
                        link.busy_ns <= link.window_ns,
                        "{tag}: link {} busy {} exceeds its window {}",
                        link.link,
                        link.busy_ns,
                        link.window_ns
                    );
                }
            }
        }
    }
}

/// The paper's aggregation trade-off, carried onto the wire and pinned at
/// the golden seed: batching the home-based diff flushes of Ilink *wins*
/// on the shared bus (one broadcast replaces the per-home message train on
/// the only link) and *loses* on the switch (the assembled batch is
/// replicated down every home's private port).  Message and byte counts
/// are identical either way — only link occupancy moves, which is the
/// whole point of modeling it.
#[test]
fn batching_wins_on_the_bus_and_loses_on_the_switch() {
    let w = Workload::tiny(AppId::Ilink);
    let run = |topology, aggregation| {
        w.run_parallel(
            &AppConfig::with_procs(8)
                .sched(SchedConfig::seeded(GOLDEN_SEED))
                .protocol(ProtocolMode::home_based())
                .topology(topology)
                .aggregation(aggregation),
        )
    };

    let bus_per = run(Topology::SharedBus, AggregationPolicy::PerMessage);
    let bus_batched = run(Topology::SharedBus, AggregationPolicy::Batched);
    let sw_per = run(Topology::Switched, AggregationPolicy::PerMessage);
    let sw_batched = run(Topology::Switched, AggregationPolicy::Batched);

    // The exact golden-seed times, pinned like the cross-protocol message
    // goldens: any cost-model or occupancy change that moves them must be
    // deliberate.
    assert_eq!(bus_per.exec_time_ns, 391_730_814, "bus per-message");
    assert_eq!(bus_batched.exec_time_ns, 388_323_014, "bus batched");
    assert_eq!(sw_per.exec_time_ns, 195_076_574, "switched per-message");
    assert_eq!(sw_batched.exec_time_ns, 234_384_742, "switched batched");

    // The sign of the trade-off flips with the topology.
    assert!(
        bus_batched.exec_time_ns < bus_per.exec_time_ns,
        "batching must win on the bus: {} !< {}",
        bus_batched.exec_time_ns,
        bus_per.exec_time_ns
    );
    assert!(
        sw_batched.exec_time_ns > sw_per.exec_time_ns,
        "batching must lose on the switch: {} !> {}",
        sw_batched.exec_time_ns,
        sw_per.exec_time_ns
    );

    // Aggregation re-times the flush train but never re-routes it: message
    // and byte counts agree pairwise at each topology.
    for (a, b, tag) in [
        (&bus_per, &bus_batched, "bus"),
        (&sw_per, &sw_batched, "switch"),
    ] {
        assert_eq!(
            a.breakdown.total_messages(),
            b.breakdown.total_messages(),
            "{tag}: message counts"
        );
        assert_eq!(
            a.breakdown.total_wire_bytes, b.breakdown.total_wire_bytes,
            "{tag}: wire bytes"
        );
        assert_eq!(
            a.checksum.to_bits(),
            b.checksum.to_bits(),
            "{tag}: checksum"
        );
    }
}
