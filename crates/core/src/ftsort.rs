//! The fault-tolerant sorting algorithm (paper §3, Steps 1–8).
//!
//! Given `Q_n` with `r` faulty processors:
//!
//! 1. **Partition** (§2.2): find mincut `m` and the cutting set `Ψ`; pick
//!    `D_β ∈ Ψ` by the minmax extra-communication heuristic and designate a
//!    dangling processor in every fault-free subcube, producing the
//!    single-fault structure `F_n^m` with `2^m` subcubes of dimension
//!    `s = n − m`, each with exactly one dead processor.
//! 2. **Reindex** each subcube by XOR so its dead processor is local 0.
//! 3. **Distribute** the `M` keys over the `N' = 2^n − 2^m` live processors
//!    (`⌈M/N'⌉` each, `∞`-padded), **heapsort** locally, then run the
//!    single-fault bitonic sort inside each subcube (ascending subcubes at
//!    even addresses, descending at odd — tracked as window order, with
//!    every local run stored ascending).
//! 4. **Merge across subcubes** with a bitonic-like schedule at subcube
//!    granularity: for `i = 0..m`, `mask = v_{i+1}`, and `j = i..0`, each
//!    pair of subcubes adjacent along dimension `j` compare-splits between
//!    corresponding reindexed processors (`mask == v_j` keeps the smaller
//!    half), then every subcube re-sorts itself, ascending iff
//!    `v_{j-1} == mask` (`v_{-1} ≡ 0`).
//!
//! Afterwards the keys are globally sorted in subcube-address order.
//!
//! ## Why the inter-subcube exchange is a correct block compare-split
//!
//! At substage `(i, j)` the two neighboring subcubes always carry *opposite*
//! window orders (the step-8 rule makes order depend on `bit_j(v) == mask`,
//! and the pair differs exactly in `v_j`). Corresponding processors `w ↔ w`
//! therefore hold *complementary* rank windows, so pairing ranks `g` with
//! `K'−1−g` splits the union exactly — the multiset counting argument that
//! proves the pairwise kernel lifts verbatim to subcube granularity. Both
//! dead processors sit at `w = 0` on both sides, so their (empty) pair is
//! skipped without affecting the split.

use crate::bitonic::sort::SortOutcome;
use crate::bitonic::{
    compare_split_remote, distributed_bitonic_merge, distributed_bitonic_sort, reverse_windows,
    KeepHalf, Protocol,
};
use crate::distribute::{chunk_len, gather, scatter};
use crate::partition::{partition, PartitionResult, SingleFaultStructure};
use crate::select::{build_structure, select_cutting_sequence, Selection};
use crate::seq::{Direction, Key};
use hypercube::address::NodeId;
use hypercube::collectives::{self, Participants};
use hypercube::cost::CostModel;
use hypercube::fault::FaultSet;
use hypercube::obs::sched::SchedProfiler;
use hypercube::obs::sink::TraceSink;
use hypercube::obs::RunObservation;
use hypercube::sim::{BufferPool, Engine, EngineKind, LinkModel, NodeCtx, PoolHandle, Tag, Trace};
use std::sync::{Arc, Mutex};

/// Phase id of step 3 (local sort + intra-subcube single-fault bitonic).
///
/// Phase ids double as tag namespaces ([`Tag::phase`]) and as span keys
/// ([`NodeCtx::span_enter`]); step-8 re-sorts get a distinct namespace per
/// `(i, j)` so their messages never cross substages, while [`phase_name`]
/// folds the whole step-8 range back into one reporting bucket.
pub const PHASE_STEP3: u16 = 2;
/// Phase id of step 7 (inter-subcube compare-splits).
pub const PHASE_STEP7: u16 = 3;
/// Base phase id of step 8; substage `(i, j)` uses `base + i·16 + j` and
/// its window reversal (if any) `base + 512 + i·16 + j`.
pub const PHASE_STEP8_BASE: u16 = 100;
/// Phase id of the host scatter collective ([`FtConfig::include_host_io`]).
pub const PHASE_SCATTER: u16 = 500;
/// Phase id of the host gather collective ([`FtConfig::include_host_io`]).
pub const PHASE_GATHER: u16 = 501;

/// Names a phase id for reports and trace exports, or `None` for ids this
/// algorithm does not emit. All step-8 substages (and their window
/// reversals) map to `"step8"`, so per-phase attribution aggregates them
/// the way [`PhaseBreakdown`] always has. `"bitonic"` (phase 1) appears
/// only in standalone bitonic runs, never in the fault-tolerant sort.
pub fn phase_name(phase: u16) -> Option<&'static str> {
    match phase {
        1 => Some("bitonic"),
        PHASE_STEP3 => Some("step3"),
        PHASE_STEP7 => Some("step7"),
        PHASE_SCATTER => Some("scatter"),
        PHASE_GATHER => Some("gather"),
        PHASE_STEP8_BASE..=867 => Some("step8"),
        _ => None,
    }
}

/// How step 8 re-establishes sorted subcubes after each inter-subcube
/// compare-split.
///
/// The paper's text prescribes a full bitonic sort, but after a
/// compare-split the subcube content is already bitonic at window
/// granularity, so a bitonic **merge** (`s` substages instead of
/// `s(s+1)/2`) suffices — with one extra window-reversal exchange when the
/// schedule demands the order the merge cannot produce directly. The merge
/// saves ~25% of simulated time and is what makes the paper's own
/// cost formula consistent with its measured Figure 7 (the formula, which
/// charges a full re-sort per substage, predicts the fault-tolerant sort
/// *loses* to the fault-free-subcube fallback at `n = 6, r = 2`). The
/// literal full sort is kept as an ablation (see `EXPERIMENTS.md`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Step8Strategy {
    /// Bitonic merge + optional window reversal (default; matches Figure 7).
    #[default]
    BitonicMerge,
    /// Full bitonic sort, as the paper's text literally prescribes.
    FullSort,
}

/// Configuration of one sort run: the fault-tolerant sort and every
/// baseline ([`bitonic_sort`](crate::bitonic::bitonic_sort),
/// [`mffs_sort`](crate::mffs::mffs_sort), …) read the same fields.
#[derive(Clone, Copy, Debug, Default)]
pub struct FtConfig {
    /// The machine cost model.
    pub cost: CostModel,
    /// The compare-split wire protocol (hyperquicksort exchanges split
    /// runs and ignores it).
    pub protocol: Protocol,
    /// The step-8 strategy; only the fault-tolerant sort has a step 8.
    pub step8: Step8Strategy,
    /// The local sorting algorithm every node runs first (paper: heapsort).
    pub local_sort: crate::seq::LocalSort,
    /// The routing algorithm charging message hops (oracle shortest paths
    /// vs distributed depth-first adaptive routing).
    pub router: hypercube::sim::engine::RouterKind,
    /// Which schedule simulates the run (one worker by default; the
    /// work-stealing pool with [`EngineKind::Par`]). Both produce
    /// byte-identical sorted output, virtual times, statistics and run
    /// files.
    pub engine: EngineKind,
    /// The link pricing model (uncontended paper model by default; the
    /// contended model serializes messages per directed link and records
    /// each message's queueing wait). The sorted output and communication
    /// schedule are identical under either — only clocks and waits differ.
    pub link_model: LinkModel,
    /// When set, the host distribution (step 2) and final collection are
    /// simulated as real binomial-tree scatter/gather collectives rooted at
    /// the lowest-addressed data-holding processor (the node the NCUBE host
    /// board talks to), and their traffic is charged to the run. When unset
    /// (default, matching the paper's Figure 7 which times the sort proper)
    /// data appears on / is read off the processors for free. Every entry
    /// point but [`hyperquicksort`](crate::baselines::hyperquicksort),
    /// whose runs differ in length, can pay it.
    pub include_host_io: bool,
    /// When set, the sort attaches a [`Trace`] sink and returns the full
    /// message/compute event trace in the observation (needed for
    /// Perfetto export and critical-path analysis — see `hypercube::obs`).
    /// Phase spans and per-node metrics are always recorded; the trace
    /// grows with the message count, so it is kept only on request.
    pub tracing: bool,
    /// Worker count for the par engine ([`EngineKind::Par`]; seq is one
    /// worker); `None` (default) uses the host's available parallelism.
    /// Affects wall-clock only — simulated results are byte-identical at
    /// any worker count.
    pub threads: Option<usize>,
    /// Shard size for the par engine's work-stealing scheduler (seq is one
    /// shard); `None` (default) sizes shards automatically (~4 per
    /// worker). Wall-clock only, like [`FtConfig::threads`].
    pub par_shard: Option<usize>,
}

/// Why a fault-tolerant sort cannot be planned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FtError {
    /// More faults than the algorithm tolerates in this configuration: a
    /// normal processor could be isolated, or the partition would leave no
    /// live processor per subcube.
    TooManyFaults {
        /// Faults present.
        r: usize,
        /// Cube dimension.
        n: usize,
        /// Explanation.
        reason: &'static str,
    },
}

impl std::fmt::Display for FtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtError::TooManyFaults { r, n, reason } => {
                write!(f, "cannot tolerate {r} faults on Q{n}: {reason}")
            }
        }
    }
}

impl std::error::Error for FtError {}

/// A fully-resolved plan for sorting on a particular faulty hypercube:
/// partition result, heuristic selection, and the designated structure.
#[derive(Clone, Debug)]
pub struct FtPlan {
    faults: FaultSet,
    partition: PartitionResult,
    selection: Selection,
    structure: SingleFaultStructure,
}

impl FtPlan {
    /// Plans a sort: runs the partition algorithm, the selection heuristic
    /// and dangling designation.
    ///
    /// Accepts any fault set for which a single-fault structure with
    /// subcube dimension `s ≥ 1` exists; the paper guarantees this whenever
    /// `r ≤ n − 1`.
    pub fn new(faults: &FaultSet) -> Result<FtPlan, FtError> {
        let n = faults.cube().dim();
        let r = faults.count();
        if faults.isolates_a_normal_node() {
            return Err(FtError::TooManyFaults {
                r,
                n,
                reason: "a normal processor is surrounded by faults",
            });
        }
        let part = partition(faults).ok_or(FtError::TooManyFaults {
            r,
            n,
            reason: "no cutting sequence separates the faults",
        })?;
        if n - part.mincut < 1 && r > 0 {
            return Err(FtError::TooManyFaults {
                r,
                n,
                reason: "partition leaves subcubes with no live processor",
            });
        }
        let selection = select_cutting_sequence(faults, &part.cutting_set);
        let structure = if r >= 2 {
            build_structure(faults, &selection)
        } else {
            // r ≤ 1: no cut, the whole cube is one subcube (dead = the fault)
            SingleFaultStructure::new(faults, &selection.dims)
        };
        Ok(FtPlan {
            faults: faults.clone(),
            partition: part,
            selection,
            structure,
        })
    }

    /// The fault set the plan was built for.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The partition-algorithm output (mincut, `Ψ`).
    pub fn partition(&self) -> &PartitionResult {
        &self.partition
    }

    /// The heuristic selection (`D_β`, cost, dangling address).
    pub fn selection(&self) -> &Selection {
        &self.selection
    }

    /// The designated single-fault structure.
    pub fn structure(&self) -> &SingleFaultStructure {
        &self.structure
    }

    /// Live (data-holding) processors, `N'`.
    pub fn live_count(&self) -> usize {
        self.structure.live_count()
    }

    /// Processor utilization: live processors over normal processors
    /// (the paper's Table 2 metric).
    pub fn utilization(&self) -> f64 {
        self.live_count() as f64 / self.faults.normal_count() as f64
    }
}

/// Virtual-time attribution of a run to the algorithm's phases.
///
/// Each field is the **maximum over processors** of the virtual time that
/// processor spent in the phase (work *and* waiting, so a processor stalled
/// on a partner charges the phase it stalls in). The fields therefore sum
/// to at least the turnaround time of the slowest processor, approximately.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Host scatter (only with [`FtConfig::include_host_io`]).
    pub host_scatter_us: f64,
    /// Step 3: local sort + intra-subcube single-fault bitonic sort.
    pub step3_us: f64,
    /// Step 7: inter-subcube compare-splits (multi-hop).
    pub step7_us: f64,
    /// Step 8: intra-subcube re-merge/re-sort (+ window reversals).
    pub step8_us: f64,
    /// Host gather (only with [`FtConfig::include_host_io`]).
    pub host_gather_us: f64,
}

impl PhaseBreakdown {
    /// Rebuilds the breakdown from recorded phase spans: per node the
    /// unioned span time per phase name, then the maximum over nodes —
    /// the same "work *and* waiting, max over processors" semantics the
    /// inline clock subtraction used to compute, but derived from the
    /// shared span log every algorithm now feeds.
    pub fn from_observation(obs: &RunObservation) -> PhaseBreakdown {
        let report = obs.report(&phase_name);
        let mut breakdown = PhaseBreakdown::default();
        for phase in &report.phases {
            let slot = match phase.name.as_str() {
                "scatter" => &mut breakdown.host_scatter_us,
                "step3" => &mut breakdown.step3_us,
                "step7" => &mut breakdown.step7_us,
                "step8" => &mut breakdown.step8_us,
                "gather" => &mut breakdown.host_gather_us,
                _ => continue,
            };
            *slot = phase.max_node_us;
        }
        breakdown
    }
}

/// Optional attachments to one sort run, of any entry point. Each is
/// unobservable to the simulation — sorted output, virtual times, reports
/// and run files stay byte-identical with or without it — and
/// `Attach::default()` attaches nothing.
pub struct Attach<'a, K> {
    /// Streams every trace record into this sink as the engine emits it —
    /// the O(1)-memory path for writing run files to disk (see
    /// [`StreamingSink`](hypercube::obs::sink::StreamingSink)). The sink
    /// receives events whether or not [`FtConfig::tracing`] is on, which
    /// alone gates the returned observation's in-memory trace.
    pub sink: Option<Arc<Mutex<dyn TraceSink>>>,
    /// Draws compare-split scratch slabs from this caller-owned pool
    /// instead of a run-local one, so the slabs warmed by one run are
    /// reused by the next — the zero-allocation warm path for repeated
    /// runs (benchmark trials, replays); pinned by
    /// `crates/hypercube/tests/alloc_free.rs`. A caller-owned pool keeps
    /// its slabs through the gather; a run-local pool is freed first, so
    /// the M-key output never sits beside the run's parked slabs. A
    /// [`BufferPool::with_stats`] pool also counts its traffic, for the
    /// caller to read from [`BufferPool::counters`] after the run.
    pub pool: Option<&'a BufferPool<K>>,
    /// Records per-worker wall-clock telemetry (poll/steal/park/barrier
    /// splits, steal matrix, shard-size histogram); take the
    /// [`SchedProfile`](hypercube::obs::sched::SchedProfile) with
    /// [`SchedProfiler::take`] after the call. Under [`EngineKind::Seq`]
    /// it profiles one worker. The profile shows the serial flush — which
    /// one worker, a `sink` or contended links turn on — as coordinator
    /// [`Serial`](hypercube::obs::sched::SchedCat::Serial) time.
    pub profiler: Option<Arc<SchedProfiler>>,
}

impl<K> Default for Attach<'_, K> {
    fn default() -> Self {
        Attach {
            sink: None,
            pool: None,
            profiler: None,
        }
    }
}

/// Sorts `data` on the faulty hypercube described by `plan` (see
/// [`FtPlan::new`]).
///
/// Returns the keys sorted ascending (gathered in subcube-address order)
/// with the simulated time and operation counts, where the virtual time
/// went per phase, and the full
/// [`RunObservation`] — phase spans,
/// per-node/per-link metrics and (with [`FtConfig::tracing`]) the event
/// trace — for Perfetto export, report generation and critical-path
/// analysis.
///
/// ```
/// use ftsort::prelude::*;
///
/// // Q4 with three dead processors still sorts — on 12 live processors.
/// let faults = FaultSet::from_raw(Hypercube::new(4), &[2, 7, 13]);
/// let plan = FtPlan::new(&faults).unwrap();
/// let (out, _, _) = fault_tolerant_sort(
///     &plan,
///     &FtConfig::default(),
///     (0..100u32).rev().collect(),
///     Attach::default(),
/// );
/// assert_eq!(out.sorted, (0..100).collect::<Vec<u32>>());
/// assert_eq!(out.processors_used, 12);
/// ```
pub fn fault_tolerant_sort<K: Key>(
    plan: &FtPlan,
    config: &FtConfig,
    data: Vec<K>,
    attach: Attach<'_, K>,
) -> (SortOutcome<K>, PhaseBreakdown, RunObservation) {
    let protocol = config.protocol;
    let step8 = config.step8;
    let st = plan.structure();
    let m = st.m();
    assert!(m <= 16, "tag namespace supports m ≤ 16");
    let live = st.live_in_order();
    let k = chunk_len(data.len(), live.len());
    // Each subcube's member map, built once per run and shared by its
    // members' programs.
    let subcube_members: Vec<Vec<NodeId>> = (0..1u32 << m).map(|v| st.members(v)).collect();
    let (outcome, observation) = sort_on_members(
        plan.faults(),
        config,
        attach,
        &live,
        None,
        data,
        async |ctx, _, mut chunk, scratch| {
            let (v, w) = st.locate(ctx.me());
            let members = &subcube_members[v as usize];
            let dead = st.subcube(v).dead_local.map(|_| 0usize);

            // Step 3: local sort (heapsort per the paper, configurable), then
            // the single-fault bitonic sort inside the subcube; subcube order
            // follows the subcube-address parity. The outer span also covers
            // the local sort, which the bitonic's own span cannot see.
            ctx.span_enter(PHASE_STEP3);
            let comparisons = config.local_sort.sort(&mut chunk, Direction::Ascending);
            ctx.charge_comparisons(comparisons as usize);
            let mut dir = Direction::from_parity(v);
            let mut run = distributed_bitonic_sort(
                ctx,
                members,
                w as usize,
                dead,
                dir,
                chunk,
                PHASE_STEP3,
                protocol,
                scratch,
            )
            .await;
            ctx.span_exit();

            // Steps 4–8: bitonic-like merge over subcubes.
            for i in 0..m {
                let mask = (v >> (i + 1)) & 1; // v_{i+1}, with v_m ≡ 0
                for j in (0..=i).rev() {
                    // Step 7: compare-split with the corresponding processor of
                    // the neighboring subcube along dimension j.
                    let u = v ^ (1 << j);
                    let partner = st.member(u, w);
                    // Invariant: before substage (i, j) the subcube's window
                    // order is ascending iff bit_j(v) == 0 when j == i (set by
                    // the previous block's final re-sort or the step-3 parity),
                    // and iff bit_j(v) == mask otherwise (set by the previous
                    // step 8). Either way the partner, differing in bit j,
                    // carries the opposite order.
                    let expected_asc = if j == i {
                        (v >> j) & 1 == 0
                    } else {
                        (v >> j) & 1 == mask
                    };
                    debug_assert_eq!(
                        dir,
                        if expected_asc {
                            Direction::Ascending
                        } else {
                            Direction::Descending
                        },
                        "window-order invariant broken at (i={i}, j={j}, v={v:b})"
                    );
                    let keep = if (v >> j) & 1 == mask {
                        KeepHalf::Low
                    } else {
                        KeepHalf::High
                    };
                    ctx.span_enter(PHASE_STEP7);
                    run = compare_split_remote(
                        ctx,
                        partner,
                        Tag::phase(PHASE_STEP7, i as u16, j as u16),
                        run,
                        keep,
                        protocol,
                        scratch,
                    )
                    .await;
                    ctx.span_exit();
                    // Step 8: re-establish subcube order; the schedule demands
                    // ascending iff v_{j-1} == mask (v_{-1} ≡ 0). The outer
                    // span spans merge + reversal so the substage reads as one
                    // contiguous interval even across the two inner spans.
                    dir = direction_for(v, j, mask);
                    let phase = PHASE_STEP8_BASE + (i * 16 + j) as u16;
                    ctx.span_enter(phase);
                    run = match step8 {
                        Step8Strategy::FullSort => {
                            distributed_bitonic_sort(
                                ctx, members, w as usize, dead, dir, run, phase, protocol, scratch,
                            )
                            .await
                        }
                        Step8Strategy::BitonicMerge => {
                            // The compare-split left this side's windows in the
                            // bitonic form its kept half implies: Low keepers
                            // can merge ascending, High keepers descending.
                            let compatible = match keep {
                                KeepHalf::Low => Direction::Ascending,
                                KeepHalf::High => Direction::Descending,
                            };
                            let mut run = distributed_bitonic_merge(
                                ctx, members, w as usize, dead, compatible, run, phase, protocol,
                                scratch,
                            )
                            .await;
                            if dir != compatible {
                                run = reverse_windows(
                                    ctx,
                                    members,
                                    w as usize,
                                    dead,
                                    run,
                                    PHASE_STEP8_BASE + 512 + (i * 16 + j) as u16,
                                )
                                .await;
                            }
                            run
                        }
                    };
                    ctx.span_exit();
                }
            }
            assert_eq!(run.len(), k, "sort must preserve run length");
            run
        },
    );
    // Per-phase attribution from the recorded spans: max over processors.
    let breakdown = PhaseBreakdown::from_observation(&observation);
    (outcome, breakdown, observation)
}

/// The one sort driver behind every entry point: scatters `data` over
/// `members`, runs `program` on every node that holds a chunk, and gathers
/// the runs back.
///
/// `members` lists physical nodes in logical order, which is also the
/// output order; slot `dead` (the single-fault sort's logical 0) holds no
/// data. `program` receives the node's context, its logical index, its
/// chunk and a handle on the run's pool, and returns the node's share of
/// the output. The engine, its attachments and the host I/O come from
/// `config` and `attach`. With [`FtConfig::include_host_io`] the chunks
/// travel through binomial scatter/gather collectives rooted at the
/// lowest-addressed holder, and every run must keep its chunk's length.
pub(crate) fn sort_on_members<K, P>(
    faults: &FaultSet,
    config: &FtConfig,
    attach: Attach<'_, K>,
    members: &[NodeId],
    dead: Option<usize>,
    data: Vec<K>,
    program: P,
) -> (SortOutcome<K>, RunObservation)
where
    K: Key,
    P: AsyncFn(&mut NodeCtx<K>, usize, Vec<K>, &mut PoolHandle<K>) -> Vec<K> + Sync,
{
    let Attach {
        sink,
        pool,
        profiler,
    } = attach;
    let cube = faults.cube();
    let holders: Vec<NodeId> = (0..members.len())
        .filter(|&l| dead != Some(l))
        .map(|l| members[l])
        .collect();
    let m_total = data.len();
    let k = chunk_len(m_total, holders.len());
    let chunks = scatter(data, holders.len());
    // Physical address → logical index, looked up once per node program.
    let mut logical = vec![usize::MAX; cube.len()];
    for (l, p) in members.iter().enumerate() {
        logical[p.index()] = l;
    }

    // The host hands each holder its ⌈M/N'⌉ keys — either for free
    // (paper-style timing of the sort proper) or as a real binomial-tree
    // scatter rooted at the host's entry node.
    let host_parts = config.include_host_io.then(|| {
        let host = *holders.iter().min().expect("at least one holder");
        Participants::new(cube.len(), host, &holders)
    });
    let mut inputs: Vec<Option<Vec<K>>> = (0..cube.len()).map(|_| None).collect();
    match &host_parts {
        None => {
            for (&p, chunk) in holders.iter().zip(chunks) {
                inputs[p.index()] = Some(chunk);
            }
        }
        Some(parts) => {
            // the host entry node starts with everything, in rank order
            let mut by_rank: Vec<Vec<K>> = vec![Vec::new(); holders.len()];
            for (&p, chunk) in holders.iter().zip(chunks) {
                by_rank[parts.rank(p).expect("holder participates")] = chunk;
            }
            for &p in &holders {
                inputs[p.index()] = Some(Vec::new());
            }
            inputs[parts.root().index()] = Some(by_rank.into_iter().flatten().collect());
        }
    }
    let host_parts = &host_parts;

    let mut engine = Engine::new(faults.clone(), config.cost)
        .with_router(config.router)
        .with_engine(config.engine)
        .with_link_model(config.link_model);
    let trace = config.tracing.then(Arc::<Mutex<Trace>>::default);
    if let Some(trace) = &trace {
        engine = engine.with_trace_sink(trace.clone());
    }
    if let Some(sink) = sink {
        engine = engine.with_trace_sink(sink);
    }
    if let Some(threads) = config.threads {
        engine = engine.with_workers(threads);
    }
    if let Some(shard) = config.par_shard {
        engine = engine.with_shard_size(shard);
    }
    if let Some(profiler) = profiler {
        engine = engine.with_sched_profiler(profiler);
    }
    // One slab store for the whole run, shared across nodes and engines:
    // compare-splits cycle allocations through per-node handles instead of
    // allocating per substage, and slabs warmed by finished nodes are
    // reused by the rest. Callers with repeated runs can pass their own
    // pool ([`Attach::pool`]) so warm slabs survive run to run. Slab
    // identity is unobservable to the simulation, so results stay
    // byte-identical whichever engine runs and wherever slabs come from.
    let mut local_pool = None;
    let pool: &BufferPool<K> = match pool {
        Some(shared) => shared,
        None => local_pool.insert(BufferPool::new()),
    };
    let (results, mut observation) = engine.run(inputs, async |ctx, mut chunk| {
        let mut scratch = pool.handle();
        if let Some(parts) = host_parts {
            let bundle = (ctx.me() == parts.root()).then_some(chunk);
            chunk =
                collectives::scatter(ctx, parts, Tag::phase(PHASE_SCATTER, 0, 0), bundle, k).await;
        }
        let run = program(ctx, logical[ctx.me().index()], chunk, &mut scratch).await;
        match host_parts {
            None => (run, None),
            Some(parts) => {
                let collected =
                    collectives::gather(ctx, parts, Tag::phase(PHASE_GATHER, 0, 0), run, k).await;
                (Vec::new(), collected)
            }
        }
    });

    // Every handle dropped with its node program; free the run-local
    // pool's slabs before the gather allocates the M-key output.
    drop(local_pool);
    if let Some(trace) = trace {
        observation.trace = std::mem::take(&mut *trace.lock().expect("trace sink lock poisoned"));
    }
    // Gather in logical order.
    let sorted = match host_parts {
        None => {
            let mut by_node: Vec<Option<Vec<K>>> = (0..cube.len()).map(|_| None).collect();
            for (node, (run, _)) in observation.nodes.iter().zip(results) {
                by_node[node.node.index()] = Some(run);
            }
            gather(
                holders
                    .iter()
                    .map(|p| by_node[p.index()].take().expect("holder produced a run")),
                m_total,
            )
        }
        Some(parts) => {
            let root_bundle = results
                .into_iter()
                .find_map(|(_, collected)| collected)
                .expect("host entry node collected the result");
            // rank order → logical order
            gather(
                holders.iter().map(|p| {
                    let r = parts.rank(*p).expect("holder");
                    &root_bundle[r * k..(r + 1) * k]
                }),
                m_total,
            )
        }
    };
    let outcome = SortOutcome {
        sorted,
        time_us: observation.makespan(),
        stats: observation.nodes.iter().map(|n| n.stats).sum(),
        processors_used: holders.len(),
    };
    (outcome, observation)
}

/// The step-8 direction after substage `(i, j)`: ascending iff
/// `v_{j-1} == mask` with `v_{-1} ≡ 0`.
fn direction_for(v: u32, j: usize, mask: u32) -> Direction {
    let v_jm1 = if j == 0 { 0 } else { (v >> (j - 1)) & 1 };
    if v_jm1 == mask {
        Direction::Ascending
    } else {
        Direction::Descending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypercube::topology::Hypercube;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_data(rng: &mut StdRng, m: usize) -> Vec<u32> {
        (0..m).map(|_| rng.random_range(0..1_000_000)).collect()
    }

    fn sort(plan: &FtPlan, config: &FtConfig, data: Vec<u32>) -> SortOutcome<u32> {
        fault_tolerant_sort(plan, config, data, Attach::default()).0
    }

    fn check_sorted(faults: &FaultSet, data: Vec<u32>, protocol: Protocol) -> SortOutcome<u32> {
        let mut expect = data.clone();
        expect.sort_unstable();
        let plan = FtPlan::new(faults).expect("plan must exist");
        let config = FtConfig {
            cost: CostModel::paper_form(),
            protocol,
            ..FtConfig::default()
        };
        let out = sort(&plan, &config, data);
        assert_eq!(out.sorted, expect);
        out
    }

    #[test]
    fn paper_example_configuration_sorts() {
        // Q5 with the paper's 4 faults {3, 5, 16, 24}; 47 keys as in Fig. 6.
        let faults = FaultSet::from_raw(Hypercube::new(5), &[3, 5, 16, 24]);
        let mut rng = StdRng::seed_from_u64(1);
        let data = random_data(&mut rng, 47);
        let out = check_sorted(&faults, data, Protocol::HalfExchange);
        assert_eq!(out.processors_used, 24); // N' = 32 − 8
    }

    #[test]
    fn plan_exposes_paper_quantities() {
        let faults = FaultSet::from_raw(Hypercube::new(5), &[3, 5, 16, 24]);
        let plan = FtPlan::new(&faults).unwrap();
        assert_eq!(plan.partition().mincut, 3);
        assert_eq!(plan.selection().dims, vec![0, 1, 3]);
        assert_eq!(plan.selection().cost, 3);
        assert_eq!(plan.live_count(), 24);
        let util = plan.utilization();
        assert!((util - 24.0 / 28.0).abs() < 1e-12);
    }

    #[test]
    fn zero_and_one_fault_degenerate_to_bitonic() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = random_data(&mut rng, 100);
        let out = check_sorted(
            &FaultSet::none(Hypercube::new(3)),
            data.clone(),
            Protocol::HalfExchange,
        );
        assert_eq!(out.processors_used, 8);
        let out = check_sorted(
            &FaultSet::from_raw(Hypercube::new(3), &[6]),
            data,
            Protocol::HalfExchange,
        );
        assert_eq!(out.processors_used, 7);
    }

    #[test]
    fn pooled_runs_are_byte_identical_and_share_slabs() {
        // Two pooled runs on one caller-owned BufferPool must match the
        // unpooled call exactly (pool identity is unobservable to the
        // simulation), and run 1 must leave warmed slabs in the shared
        // store for run 2 to draw on.
        let faults = FaultSet::from_raw(Hypercube::new(4), &[2, 9]);
        let plan = FtPlan::new(&faults).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let data = random_data(&mut rng, 500);
        let config = FtConfig {
            engine: hypercube::sim::EngineKind::Par,
            threads: Some(2),
            ..FtConfig::default()
        };
        let plain = sort(&plan, &config, data.clone());
        let pool: BufferPool<u32> = BufferPool::new();
        let pooled = || Attach {
            pool: Some(&pool),
            ..Attach::default()
        };
        let (run1, _, _) = fault_tolerant_sort(&plan, &config, data.clone(), pooled());
        assert_eq!(run1.sorted, plain.sorted);
        assert_eq!(run1.time_us.to_bits(), plain.time_us.to_bits());
        assert_eq!(run1.stats, plain.stats);
        let warmed = pool.shared_slabs();
        assert!(warmed > 0, "run 1 must park warmed slabs in the pool");
        let (run2, _, _) = fault_tolerant_sort(&plan, &config, data, pooled());
        assert_eq!(run2.sorted, plain.sorted);
        assert_eq!(run2.time_us.to_bits(), plain.time_us.to_bits());
        assert_eq!(run2.stats, plain.stats);
    }

    #[test]
    fn two_faults_no_dangling_processors() {
        // With r = 2 the cube splits into two half-cubes, each with one
        // fault: N' = N − 2, zero dangling (the paper's headline case).
        let faults = FaultSet::from_raw(Hypercube::new(4), &[2, 3]);
        let plan = FtPlan::new(&faults).unwrap();
        assert_eq!(plan.partition().mincut, 1);
        assert_eq!(plan.structure().dangling_count(), 0);
        assert_eq!(plan.live_count(), 14);
        assert!((plan.utilization() - 1.0).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(3);
        check_sorted(&faults, random_data(&mut rng, 200), Protocol::HalfExchange);
    }

    #[test]
    fn all_fault_counts_on_q4_and_q5() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in [4usize, 5] {
            for r in 0..n {
                for _ in 0..5 {
                    let faults = FaultSet::random(Hypercube::new(n), r, &mut rng);
                    let m_total = rng.random_range(1..300);
                    let data = random_data(&mut rng, m_total);
                    check_sorted(&faults, data, Protocol::HalfExchange);
                }
            }
        }
    }

    #[test]
    fn both_protocols_agree() {
        let mut rng = StdRng::seed_from_u64(5);
        let faults = FaultSet::from_raw(Hypercube::new(4), &[1, 6, 12]);
        let data = random_data(&mut rng, 150);
        let a = check_sorted(&faults, data.clone(), Protocol::FullExchange);
        let b = check_sorted(&faults, data, Protocol::HalfExchange);
        assert_eq!(a.sorted, b.sorted);
    }

    #[test]
    fn tiny_inputs_and_duplicates() {
        let faults = FaultSet::from_raw(Hypercube::new(4), &[0, 15]);
        check_sorted(&faults, vec![], Protocol::HalfExchange);
        check_sorted(&faults, vec![5], Protocol::HalfExchange);
        check_sorted(&faults, vec![9, 9, 9, 9, 9], Protocol::HalfExchange);
        check_sorted(
            &faults,
            (0..50).map(|i| i % 4).collect(),
            Protocol::HalfExchange,
        );
    }

    #[test]
    fn already_sorted_and_reversed_inputs() {
        let faults = FaultSet::from_raw(Hypercube::new(4), &[3, 5, 9]);
        check_sorted(&faults, (0..111).collect(), Protocol::HalfExchange);
        check_sorted(&faults, (0..111).rev().collect(), Protocol::HalfExchange);
    }

    #[test]
    fn utilization_beats_mffs_bound() {
        // Paper: dangling processors ≤ N/4 in the worst case, so utilization
        // ≥ 3/4 over live+dangling; MFFS with r = n−1 is at best N/2.
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let n = 6;
            let faults = FaultSet::random(Hypercube::new(n), n - 1, &mut rng);
            let plan = FtPlan::new(&faults).unwrap();
            let live = plan.live_count();
            assert!(
                live * 4 >= 3 * (1 << n),
                "live {live} below 3N/4 for faults {:?}",
                faults.to_vec()
            );
        }
    }

    #[test]
    fn isolation_is_rejected() {
        // Q2 with node 0's both neighbors faulty
        let faults = FaultSet::from_raw(Hypercube::new(2), &[1, 2]);
        let err = FtPlan::new(&faults).unwrap_err();
        assert!(matches!(err, FtError::TooManyFaults { .. }));
    }

    #[test]
    fn r_equal_n_still_works_when_separable() {
        // The paper notes the partition also applies for r ≥ n if no normal
        // node is isolated.
        let faults = FaultSet::from_raw(Hypercube::new(3), &[0, 1, 2]); // r = n = 3
        let mut rng = StdRng::seed_from_u64(7);
        check_sorted(&faults, random_data(&mut rng, 60), Protocol::HalfExchange);
    }

    #[test]
    fn host_io_collectives_produce_same_result_and_cost_more() {
        let mut rng = StdRng::seed_from_u64(9);
        let faults = FaultSet::from_raw(Hypercube::new(5), &[3, 5, 16, 24]);
        let plan = FtPlan::new(&faults).unwrap();
        let data = random_data(&mut rng, 2_400);
        let mut expect = data.clone();
        expect.sort_unstable();
        let free = sort(&plan, &FtConfig::default(), data.clone());
        let host = sort(
            &plan,
            &FtConfig {
                include_host_io: true,
                ..FtConfig::default()
            },
            data,
        );
        assert_eq!(free.sorted, expect);
        assert_eq!(host.sorted, expect);
        assert!(
            host.time_us > free.time_us,
            "host I/O must add time: {} vs {}",
            host.time_us,
            free.time_us
        );
        assert!(host.stats.element_hops > free.stats.element_hops);
    }

    #[test]
    fn phase_breakdown_accounts_for_the_run() {
        let mut rng = StdRng::seed_from_u64(10);
        let faults = FaultSet::from_raw(Hypercube::new(5), &[3, 5, 16, 24]);
        let plan = FtPlan::new(&faults).unwrap();
        let data = random_data(&mut rng, 4_800);
        let (out, phases, _) =
            fault_tolerant_sort(&plan, &FtConfig::default(), data, Attach::default());
        assert!(phases.step3_us > 0.0);
        assert!(phases.step7_us > 0.0);
        assert!(phases.step8_us > 0.0);
        assert_eq!(phases.host_scatter_us, 0.0, "host I/O off by default");
        assert_eq!(phases.host_gather_us, 0.0);
        let sum = phases.step3_us + phases.step7_us + phases.step8_us;
        // per-phase maxima bound the turnaround from above (waiting charged
        // per phase) and each phase is below the total
        assert!(
            sum >= out.time_us * 0.99,
            "sum {sum} vs total {}",
            out.time_us
        );
        assert!(phases.step3_us < out.time_us);
        // with host I/O on, the I/O phases appear
        let data = random_data(&mut rng, 4_800);
        let (_, phases, _) = fault_tolerant_sort(
            &plan,
            &FtConfig {
                include_host_io: true,
                ..FtConfig::default()
            },
            data,
            Attach::default(),
        );
        assert!(phases.host_scatter_us > 0.0);
        assert!(phases.host_gather_us > 0.0);
    }

    #[test]
    fn local_sort_choices_agree() {
        use crate::seq::LocalSort;
        let mut rng = StdRng::seed_from_u64(11);
        let faults = FaultSet::from_raw(Hypercube::new(4), &[1, 6, 12]);
        let plan = FtPlan::new(&faults).unwrap();
        let data = random_data(&mut rng, 3_000);
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut times = Vec::new();
        for local_sort in [
            LocalSort::Heapsort,
            LocalSort::Quicksort,
            LocalSort::Mergesort,
        ] {
            let out = sort(
                &plan,
                &FtConfig {
                    local_sort,
                    ..FtConfig::default()
                },
                data.clone(),
            );
            assert_eq!(out.sorted, expect, "{local_sort:?}");
            times.push((local_sort, out.time_us, out.stats.comparisons));
        }
        // quicksort should use fewer comparisons than heapsort on random data
        assert!(times[1].2 < times[0].2, "{times:?}");
    }

    #[test]
    fn virtual_time_deterministic() {
        let faults = FaultSet::from_raw(Hypercube::new(5), &[3, 5, 16, 24]);
        let mut rng = StdRng::seed_from_u64(8);
        let data = random_data(&mut rng, 480);
        let plan = FtPlan::new(&faults).unwrap();
        let t1 = sort(&plan, &FtConfig::default(), data.clone()).time_us;
        let t2 = sort(&plan, &FtConfig::default(), data).time_us;
        assert_eq!(t1, t2);
        assert!(t1 > 0.0);
    }
}
