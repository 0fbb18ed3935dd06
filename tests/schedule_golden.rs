//! Scheduler oracle: golden decision traces.
//!
//! Every measurement the paper's figures are built from depends on the
//! interleaving the deterministic scheduler chooses, so the interleaving
//! itself is pinned here, decision by decision.  For each program below the
//! suite records the scheduler's decision trace (`Dsm::run_traced`, or
//! `record_decision_traces` for runs started inside application code) and
//! pins its length and FNV-1a digest, together with a digest of the whole
//! `ClusterStats` and of the computed results:
//!
//! * **replay programs** — fixed lock/barrier/fault programs generated from
//!   a seed, at 2 to 5 processors;
//! * **every application's tiny cell** — both write protocols, on the ideal
//!   and the shared-bus interconnect;
//! * **the 256-processor tiny Jacobi cell**, the large-cluster regime.
//!
//! The goldens were captured when the simulator still had a second,
//! thread-per-processor engine, and both engines produced every one of them
//! identically.  A drift here means the schedule — not just a counter —
//! changed.

use tdsm_core::{
    record_decision_traces, Align, ClusterStats, Dsm, DsmConfig, GArray, ProcCtx, ProtocolMode,
    SchedConfig, Topology,
};
use tm_apps::{AppConfig, AppId, Workload};

/// The golden seed of the application cells.
const GOLDEN_SEED: u64 = 0x5eed;

/// What one run is pinned by: decision-trace length, trace digest,
/// `ClusterStats` digest, results digest (the checksum bits for an
/// application cell).
type Observation = (usize, u64, u64, u64);

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn trace_digest(trace: &[(u64, usize)]) -> u64 {
    fnv1a(trace.iter().flat_map(|&(decision, rank)| {
        decision
            .to_le_bytes()
            .into_iter()
            .chain((rank as u64).to_le_bytes())
    }))
}

/// Digest of every field of the statistics, through their `Debug` form.
fn stats_digest(stats: &ClusterStats) -> u64 {
    fnv1a(format!("{stats:?}").into_bytes())
}

/// The op list of the replay program generated from `seed` (xorshift64).
fn replay_ops(seed: u64) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let len = 1 + (next() % 24) as usize;
    (0..len).map(|_| (next() >> 32) as u8).collect()
}

/// One replay program: every rank executes the same op list (so barrier
/// counts always line up), but each non-barrier op touches rank-dependent
/// state — disjoint writes, neighbour reads, contended lock chains —
/// producing schedule-relevant faults and park points.
async fn replay(ctx: &mut ProcCtx, arr: &GArray<u64>, ops: &[u8]) -> u64 {
    let me = ctx.rank();
    let n = ctx.nprocs();
    let slots = arr.len() / n;
    for (i, op) in ops.iter().enumerate() {
        match op % 4 {
            // Disjoint write into my own band.
            0 => {
                arr.set(ctx, me * slots + i % slots, (me + i) as u64).await;
            }
            // Read my neighbour's band (a cross-processor fault).
            1 => {
                let _ = arr.get(ctx, ((me + 1) % n) * slots + i % slots).await;
            }
            // Contended lock-protected read-modify-write of slot 0.
            2 => {
                let lock = (*op as usize) % 4;
                ctx.acquire(lock).await;
                let v = arr.get(ctx, 0).await;
                arr.set(ctx, 0, v + 1).await;
                ctx.release(lock).await;
            }
            // Global barrier (same count on every rank by construction).
            _ => ctx.barrier().await,
        }
    }
    ctx.barrier().await;
    let mut sum = 0u64;
    for s in 0..arr.len() {
        sum = sum.wrapping_add(arr.get(ctx, s).await);
    }
    sum
}

fn observe_replay(seed: u64, nprocs: usize) -> Observation {
    let ops = replay_ops(seed);
    let mut dsm = Dsm::new(
        DsmConfig::with_procs(nprocs)
            .shared_pages(64)
            .sched(SchedConfig::seeded(seed)),
    );
    let arr = dsm.alloc_array::<u64>(nprocs * 64, Align::Page);
    let (out, trace) = dsm.run_traced(async |ctx| replay(ctx, &arr, &ops).await);
    let results = fnv1a(out.results.iter().flat_map(|r| r.to_le_bytes()));
    (
        trace.len(),
        trace_digest(&trace),
        stats_digest(&out.stats),
        results,
    )
}

fn observe_app(
    w: &Workload,
    nprocs: usize,
    protocol: ProtocolMode,
    topology: Topology,
) -> Observation {
    let cfg = AppConfig::with_procs(nprocs)
        .sched(SchedConfig::seeded(GOLDEN_SEED))
        .protocol(protocol)
        .topology(topology);
    let (run, traces) = record_decision_traces(|| w.run_parallel(&cfg));
    assert_eq!(traces.len(), 1, "one cell is one run");
    let trace = &traces[0];
    (
        trace.len(),
        trace_digest(trace),
        stats_digest(&run.stats),
        run.checksum.to_bits(),
    )
}

/// `(seed, nprocs, trace length, trace digest, stats digest, results digest)`.
#[rustfmt::skip]
const REPLAY_GOLDENS: &[(u64, usize, usize, u64, u64, u64)] = &[
    (0x1, 2, 49, 0x3b63de49c63f3976, 0x2f156f8c75c1c46f, 0x674f9257526e8565),
    (0x1, 3, 85, 0xb42d4ba3eacb8233, 0xa9c68f3f562c5470, 0x0d01d27784cf33ab),
    (0x1, 4, 125, 0x3c73bb71ddb779b8, 0x8747c1db4423127d, 0x81c2a769c5201025),
    (0x1, 5, 169, 0x9e58efa98006a2ec, 0xdede63a4eae08ddb, 0xa52bf412db65ef6a),
    (0x2, 2, 32, 0xa07c2f4fab4775c4, 0x83b38e17114d0dff, 0x3625b6cf67e0e905),
    (0x2, 3, 54, 0xe40085f34be09526, 0x65a650fd2700574d, 0x447e8932ea0eb2f2),
    (0x2, 4, 77, 0xc30c31ab8bec5c08, 0xd86bfbb8d55e4941, 0xa8b2de6ad123656d),
    (0x2, 5, 101, 0x4c66246e6e7e3b26, 0x88af9019b93fa30d, 0x19e721a4808bdcc6),
    (0x3, 2, 35, 0x1247721851be3a40, 0xa98cdaefeff0575a, 0xa833f83391e23925),
    (0x3, 3, 60, 0xb406431cec61f5a5, 0x6eb856b1a0b00018, 0xa13abb87fe9ec91d),
    (0x3, 4, 87, 0x2566f38fd9f8239f, 0xdde38615f99a229e, 0x92899060ca30bc25),
    (0x3, 5, 116, 0xc4f539ee2848fee7, 0x1d40f0f71cb1905c, 0x4c78cd182659b277),
    (0x5eed, 2, 32, 0x70102a0168c82b25, 0x0058c4f4c21fd5ba, 0x28ed31fd5a275025),
    (0x5eed, 3, 56, 0xcfce9d063234f244, 0x27c5421d0c4a90c0, 0x654ffa297972e12a),
    (0x5eed, 4, 84, 0x9ac574d2760dac86, 0xab9f7406563f148a, 0x8eaf65a2a36fa9a5),
    (0x5eed, 5, 116, 0x3b58ccabccdba6e5, 0x129ec23c88184372, 0xe291458d61d047a8),
    (0xf1206, 2, 13, 0x5e8fdad762f2dfeb, 0x02088b2d101bc427, 0xe826bd37714b00a5),
    (0xf1206, 3, 23, 0x25f45345a2156bfc, 0x5920fedbd0002805, 0x78769a53b5803f46),
    (0xf1206, 4, 34, 0xc1335056be4f44a6, 0xc78ab3bfbe89db4d, 0xd1b0aed096c264a5),
    (0xf1206, 5, 46, 0x0f9d195f15d61120, 0xcf58047db6cebe4c, 0x71502c2a57540c60),
];

/// `(app/size/protocol/topology, trace length, trace digest, stats digest,
/// checksum bits)` at 4 processors.
#[rustfmt::skip]
const APP_GOLDENS: &[(&str, usize, u64, u64, u64)] = &[
    ("Barnes/96bodies(tiny)/mw/ideal", 124, 0x4fcb15f792ca63e5, 0x5cee8f752bfcf7a0, 0x40904f92fc35b355),
    ("Barnes/96bodies(tiny)/mw/bus", 124, 0x6c7b2d71eed795a5, 0xa50f6367f3770afd, 0x40904f92fc35b355),
    ("Barnes/96bodies(tiny)/hb/ideal", 124, 0xe4be66cb4d0294e5, 0xe42b48656684dfd8, 0x40904f92fc35b355),
    ("Barnes/96bodies(tiny)/hb/bus", 124, 0xd458a7f2cee240e7, 0x284cab906c010d9a, 0x40904f92fc35b355),
    ("Ilink/CLP-4x512(tiny)/mw/ideal", 70, 0x1c2983108c261de4, 0xfdf29dc48c1ee6dc, 0x408f400000000003),
    ("Ilink/CLP-4x512(tiny)/mw/bus", 70, 0xb72df52bf68c7787, 0xcab585d4c91ba351, 0x408f400000000003),
    ("Ilink/CLP-4x512(tiny)/hb/ideal", 70, 0x86e298f7b61f64c7, 0xdc69c76d9a293429, 0x408f400000000003),
    ("Ilink/CLP-4x512(tiny)/hb/bus", 70, 0x9768103745befd87, 0xeed4835035530f38, 0x408f400000000003),
    ("TSP/8cities(tiny)/mw/ideal", 129, 0xc18f2b63a9b39ae7, 0x623b5bb0a040d03c, 0x406d400000000000),
    ("TSP/8cities(tiny)/mw/bus", 129, 0xa98bf43d14632d04, 0xf50b1de93bfb39f6, 0x406d400000000000),
    ("TSP/8cities(tiny)/hb/ideal", 128, 0x6b4136387d6c29a7, 0x511f026d69723669, 0x406d400000000000),
    ("TSP/8cities(tiny)/hb/bus", 130, 0xfd580f1d5f9f7c87, 0xf7cc19d044516169, 0x406d400000000000),
    ("Water/64mol(tiny)/mw/ideal", 1063, 0x1c6ebae2ba55cd09, 0x2aa15f53d685f912, 0x40772b308366cd0f),
    ("Water/64mol(tiny)/mw/bus", 1065, 0xe7ef0344da297e56, 0x6d6b40037037b437, 0x40772b308366cd0f),
    ("Water/64mol(tiny)/hb/ideal", 1067, 0x9db4564cf74f203c, 0x7a2b0805b1781ca6, 0x40772b308366cd0f),
    ("Water/64mol(tiny)/hb/bus", 1063, 0x9c078853ed11b206, 0xdcbe1b9f640a8289, 0x40772b308366cd0f),
    ("Jacobi/32x256(tiny)/mw/ideal", 56, 0xfd5206d73a0e68c4, 0xa44ad7422ce55341, 0x40b15cc0a3307c00),
    ("Jacobi/32x256(tiny)/mw/bus", 56, 0x3272eac3e7961f84, 0xf3e156a967d552ae, 0x40b15cc0a3307c00),
    ("Jacobi/32x256(tiny)/hb/ideal", 56, 0xfe458df43cf6d1c4, 0xefc0b9382d564ba0, 0x40b15cc0a3307c00),
    ("Jacobi/32x256(tiny)/hb/bus", 56, 0x1b696dc95f5d68e7, 0xfae686648595d055, 0x40b15cc0a3307c00),
    ("3D-FFT/8x8x8(tiny)/mw/ideal", 37, 0x46d5bb949db6e041, 0x0fdfea070e65ce5e, 0x401cf4c82d574d7c),
    ("3D-FFT/8x8x8(tiny)/mw/bus", 37, 0xb6be7e530338cf20, 0x1f399cc2bad1fd73, 0x401cf4c82d574d7c),
    ("3D-FFT/8x8x8(tiny)/hb/ideal", 37, 0xb8f16a5ec5072143, 0x36af3aa0a50ab03e, 0x401cf4c82d574d7c),
    ("3D-FFT/8x8x8(tiny)/hb/bus", 37, 0x478d08a67400c4e0, 0x823c9d64df24d1e7, 0x401cf4c82d574d7c),
    ("MGS/12x256(tiny)/mw/ideal", 187, 0xf7d9e78b19a0631a, 0xb9f6cd51836721fa, 0x405beebeb9cbe000),
    ("MGS/12x256(tiny)/mw/bus", 187, 0xd707fc2c0fc0adb9, 0xfc27fba190ac015d, 0x405beebeb9cbe000),
    ("MGS/12x256(tiny)/hb/ideal", 187, 0x13f9c6c4064be55a, 0xdd3252e6fe3cd1f3, 0x405beebeb9cbe000),
    ("MGS/12x256(tiny)/hb/bus", 187, 0x92f614478913a539, 0xe5df3a663df1cb71, 0x405beebeb9cbe000),
    ("Shallow/64x24(tiny)/mw/ideal", 201, 0x558050241573be2d, 0x64cdc88fab63844b, 0x419267472d16543d),
    ("Shallow/64x24(tiny)/mw/bus", 201, 0x02165af466634e0c, 0x84940fec5ed83743, 0x419267472d16543d),
    ("Shallow/64x24(tiny)/hb/ideal", 201, 0x18d97cb562890e0e, 0x7bb2793e2d4e17ed, 0x419267472d16543d),
    ("Shallow/64x24(tiny)/hb/bus", 201, 0x388be2ce8a86866f, 0xf9f44c7df045c0ca, 0x419267472d16543d),
];

#[test]
fn replay_program_schedules_match_the_goldens() {
    for &(seed, nprocs, len, trace, stats, results) in REPLAY_GOLDENS {
        assert_eq!(
            observe_replay(seed, nprocs),
            (len, trace, stats, results),
            "replay program seed {seed:#x} on {nprocs} processors drifted"
        );
    }
}

#[test]
fn application_cell_schedules_match_the_goldens() {
    let mut goldens = APP_GOLDENS.iter();
    for w in Workload::tiny_suite() {
        for (pname, protocol) in [
            ("mw", ProtocolMode::MultiWriter),
            ("hb", ProtocolMode::home_based()),
        ] {
            for (tname, topology) in [("ideal", Topology::Ideal), ("bus", Topology::SharedBus)] {
                let name = format!("{}/{}/{pname}/{tname}", w.app.name(), w.size_label);
                let &(golden_name, len, trace, stats, checksum) =
                    goldens.next().expect("a golden for every cell");
                assert_eq!(name, golden_name, "cell order drifted");
                assert_eq!(
                    observe_app(&w, 4, protocol, topology),
                    (len, trace, stats, checksum),
                    "{name} drifted"
                );
            }
        }
    }
    assert!(goldens.next().is_none(), "a golden for a cell that is gone");
}

#[test]
fn jacobi_at_256_processors_matches_the_golden() {
    let w = Workload::tiny(AppId::Jacobi);
    let (_, len, trace, stats, checksum) = (
        "Jacobi/256",
        2966,
        0xaac314d28857c0cb,
        0xf0ce6377ceee2f87,
        0x40b15cc0a3307c00,
    );
    assert_eq!(
        observe_app(&w, 256, ProtocolMode::MultiWriter, Topology::Ideal),
        (len, trace, stats, checksum)
    );
    // And it verifies against the sequential reference like any other cell.
    assert!(tm_apps::checksums_match(
        f64::from_bits(checksum),
        w.run_sequential(),
        1e-6
    ));
}
