//! Wall-clock scheduler profiler for the work-stealing parallel engine.
//!
//! Everything else in `obs` measures *virtual* time — the simulated
//! hypercube. This module measures the *host*: where each worker of the
//! parallel executor ([`crate::sim::par`]) actually spends wall-clock time
//! (polling shards, delivering commits, stealing, spinning or parked at
//! the barrier, the coordinator's serial pricing pass), so "why par loses
//! to seq" is a pinned artifact instead of a guess.
//!
//! ## Recording model
//!
//! Each worker owns a [`WorkerProf`]: a category state machine plus a
//! preallocated, lock-free local event ring. The engine calls
//! [`WorkerProf::switch`] at every category transition; the delta since
//! the previous transition is added to the outgoing category's running
//! total, so the seven categories **tile the worker's wall time exactly**
//! (busy = poll + deliver + serial; the acceptance bar is that
//! busy + steal + barrier + park covers ≥ 95%, i.e. uncategorized
//! bookkeeping stays under 5%).
//!
//! Each category runs until the next one begins, so no uncategorized gap
//! separates a phase from its barrier. Work acquisition
//! ([`SchedCat::Steal`]) runs from staging the worker's own shards to the
//! barrier arrival once no shard is left; a barrier span runs from the
//! arrival until the worker starts its next phase; the coordinator's
//! serial pass runs up to its barrier arrival. Time the OS keeps a worker
//! off a core, common when workers outnumber cores, is therefore charged
//! to the phase the worker was in. `other` keeps only the recorder's
//! start, before the first staging.
//!
//! Instant events (stage/pop/steal/poll slice) feed the steal matrix, the
//! shard-size histogram ([`super::hist::LogHistogram`]) and the Perfetto
//! runnable-queue counters. The hot path is an array index, a few adds and
//! a capacity-checked push into a preallocated `Vec` — no locks, no
//! allocation (pinned by `crates/hypercube/tests/alloc_free.rs`); when the
//! ring fills, events are dropped and counted, while the totals stay
//! exact. With no profiler attached the engine passes `None` and every
//! hook inlines to a null check.
//!
//! Timestamps are nanoseconds on one shared monotonic epoch
//! ([`std::time::Instant`]), taken at the run start, so worker rings are
//! mutually comparable.
//!
//! ## Outputs
//!
//! A finished run deposits a [`SchedProfile`] (the raw rings) into the
//! [`SchedProfiler`] handle the caller attached. From it:
//! [`SchedProfile::report`] aggregates a [`SchedReport`] (per-worker time
//! split, steal matrix, poll-size histogram, utilization) with an exact
//! JSON round-trip; [`SchedProfile::perfetto_json`] renders
//! one Chrome-trace track per worker (`X` category spans, steal flows
//! from victim to thief, per-worker runnable-queue counters) that
//! `trace-check` validates; [`SchedProfile::timeline`] and
//! [`SchedReport::summary`] render ASCII for terminals.

use super::hist::LogHistogram;
use super::json::{json_object, Json, JsonValue};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Number of scheduler categories.
pub const CATEGORIES: usize = 7;

/// What a worker is doing, at every instant, exactly one of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum SchedCat {
    /// Polling a claimed shard's runnable nodes (phase 1 work).
    Poll = 0,
    /// Draining a claimed shard's bin column + waking (phase 3 work).
    Deliver = 1,
    /// The coordinator's serial flush/pricing pass (phase 2 work).
    Serial = 2,
    /// Acquiring work: staging own shards, own-deque pops and steal probes
    /// between slices, up to the barrier arrival once none is left.
    Steal = 3,
    /// At the barrier: arrival, spin window, post-unpark wakeup, and the
    /// hand-off from the release until the worker's next phase begins.
    Barrier = 4,
    /// Parked on the barrier condvar.
    Park = 5,
    /// Uncategorized: the recorder's start, before the first staging.
    Other = 6,
}

impl SchedCat {
    /// All categories, in `repr` order.
    pub const ALL: [SchedCat; CATEGORIES] = [
        SchedCat::Poll,
        SchedCat::Deliver,
        SchedCat::Serial,
        SchedCat::Steal,
        SchedCat::Barrier,
        SchedCat::Park,
        SchedCat::Other,
    ];

    /// Stable lowercase name (used in JSON and Perfetto span names).
    pub fn name(self) -> &'static str {
        match self {
            SchedCat::Poll => "poll",
            SchedCat::Deliver => "deliver",
            SchedCat::Serial => "serial",
            SchedCat::Steal => "steal",
            SchedCat::Barrier => "barrier",
            SchedCat::Park => "park",
            SchedCat::Other => "other",
        }
    }

    /// One-character glyph for ASCII timelines.
    pub fn glyph(self) -> char {
        match self {
            SchedCat::Poll => '#',
            SchedCat::Deliver => 'd',
            SchedCat::Serial => '$',
            SchedCat::Steal => 's',
            SchedCat::Barrier => '=',
            SchedCat::Park => '.',
            SchedCat::Other => '-',
        }
    }
}

/// One ring entry's payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedEventKind {
    /// Entered `0` at the event's timestamp; the `u32` is the shard id for
    /// [`Poll`](SchedCat::Poll)/[`Deliver`](SchedCat::Deliver), 0 otherwise.
    Switch(SchedCat, u32),
    /// About to push one shard onto the worker's own deque (recorded
    /// *before* the push so the runnable counter never dips negative).
    Stage,
    /// Claimed one shard from the worker's own deque.
    Pop,
    /// Stole one shard from the given victim worker's deque.
    StealOk(u32),
    /// A steal probe of the given victim came back empty (or lost a race).
    StealFail(u32),
    /// Finished a poll slice that ran this many nodes.
    Polled(u32),
}

/// One timestamped scheduler event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedEvent {
    /// Nanoseconds since the run's shared epoch.
    pub t_ns: u64,
    /// The payload.
    pub kind: SchedEventKind,
}

/// Default per-worker event-ring capacity (entries). 64Ki × 16 bytes =
/// 1 MiB per worker — enough for every workload in this repo's test and
/// bench matrix without a drop.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Per-worker recorder: category totals, instant counters and the event
/// ring. Owned exclusively by one worker thread during the run; the
/// engine moves it back for aggregation afterwards.
#[derive(Clone, Debug)]
pub struct WorkerProf {
    worker: usize,
    epoch: Instant,
    start_ns: u64,
    end_ns: u64,
    last_ns: u64,
    cat: SchedCat,
    totals: [u64; CATEGORIES],
    polls: u64,
    nodes_polled: u64,
    shards_popped: u64,
    shards_stolen: u64,
    steal_attempts: u64,
    parks: u64,
    barriers: u64,
    /// Successful steals by victim worker index.
    steal_row: Vec<u64>,
    poll_hist: LogHistogram,
    ring: Vec<SchedEvent>,
    dropped: u64,
}

impl WorkerProf {
    /// A recorder for `worker` in a pool of `workers`, on the run's shared
    /// `epoch`. All storage is allocated here, up front — recording never
    /// allocates.
    pub fn new(worker: usize, workers: usize, epoch: Instant, ring_capacity: usize) -> Self {
        WorkerProf {
            worker,
            epoch,
            start_ns: 0,
            end_ns: 0,
            last_ns: 0,
            cat: SchedCat::Other,
            totals: [0; CATEGORIES],
            polls: 0,
            nodes_polled: 0,
            shards_popped: 0,
            shards_stolen: 0,
            steal_attempts: 0,
            parks: 0,
            barriers: 0,
            steal_row: vec![0; workers],
            poll_hist: LogHistogram::new(),
            ring: Vec::with_capacity(ring_capacity.max(1)),
            dropped: 0,
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn push(&mut self, t_ns: u64, kind: SchedEventKind) {
        if self.ring.len() < self.ring.capacity() {
            self.ring.push(SchedEvent { t_ns, kind });
        } else {
            self.dropped += 1;
        }
    }

    /// Marks the start of the worker's run, on the worker's own thread —
    /// wall time starts here, so thread-spawn latency is not charged.
    #[inline]
    pub fn begin(&mut self) {
        let t = self.now_ns();
        self.start_ns = t;
        self.last_ns = t;
        self.cat = SchedCat::Other;
        self.push(t, SchedEventKind::Switch(SchedCat::Other, 0));
    }

    /// Enters `cat`, charging the elapsed interval to the previous
    /// category. `arg` is the shard id for poll/deliver slices.
    #[inline]
    pub fn switch(&mut self, cat: SchedCat, arg: u32) {
        let t = self.now_ns();
        self.totals[self.cat as usize] += t.saturating_sub(self.last_ns);
        self.last_ns = t;
        self.cat = cat;
        self.push(t, SchedEventKind::Switch(cat, arg));
    }

    /// Records that one shard is about to be pushed onto the own deque.
    #[inline]
    pub fn staged(&mut self) {
        let t = self.now_ns();
        self.push(t, SchedEventKind::Stage);
    }

    /// Records a successful own-deque pop.
    #[inline]
    pub fn popped(&mut self) {
        self.shards_popped += 1;
        let t = self.now_ns();
        self.push(t, SchedEventKind::Pop);
    }

    /// Records a successful steal from `victim`.
    #[inline]
    pub fn stole(&mut self, victim: usize) {
        self.steal_attempts += 1;
        self.shards_stolen += 1;
        self.steal_row[victim] += 1;
        let t = self.now_ns();
        self.push(t, SchedEventKind::StealOk(victim as u32));
    }

    /// Records an empty/lost steal probe of `victim`.
    #[inline]
    pub fn steal_missed(&mut self, victim: usize) {
        self.steal_attempts += 1;
        let t = self.now_ns();
        self.push(t, SchedEventKind::StealFail(victim as u32));
    }

    /// Records a finished poll slice that ran `nodes` nodes.
    #[inline]
    pub fn polled(&mut self, nodes: u32) {
        self.polls += 1;
        self.nodes_polled += nodes as u64;
        self.poll_hist.record(nodes as u64);
        let t = self.now_ns();
        self.push(t, SchedEventKind::Polled(nodes));
    }

    /// Barrier arrival: switch to [`SchedCat::Barrier`] and count it.
    #[inline]
    pub fn barrier_arrived(&mut self) {
        self.barriers += 1;
        self.switch(SchedCat::Barrier, 0);
    }

    /// The spin window expired and the worker is about to park.
    #[inline]
    pub fn parked(&mut self) {
        self.parks += 1;
        self.switch(SchedCat::Park, 0);
    }

    /// Woke from the condvar park, back inside the barrier.
    #[inline]
    pub fn unparked(&mut self) {
        self.switch(SchedCat::Barrier, 0);
    }

    /// Closes the recorder at the worker's last instant (on the worker's
    /// own thread), charging the tail interval to the current category —
    /// after this, the category totals tile `[start, end]` exactly.
    pub fn finish(&mut self) {
        let t = self.now_ns();
        self.totals[self.cat as usize] += t.saturating_sub(self.last_ns);
        self.last_ns = t;
        self.end_ns = t;
    }

    /// The worker's pool index.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Wall nanoseconds from [`begin`](Self::begin) to
    /// [`finish`](Self::finish).
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Nanoseconds charged to `cat`.
    pub fn total_ns(&self, cat: SchedCat) -> u64 {
        self.totals[cat as usize]
    }

    /// Events dropped because the ring filled (totals stay exact).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The recorded events, in time order.
    pub fn events(&self) -> &[SchedEvent] {
        &self.ring
    }
}

/// The raw result of one profiled run: the effective schedule plus every
/// worker's recorder. Produced by the engine, consumed through
/// [`report`](Self::report) / [`perfetto_json`](Self::perfetto_json) /
/// [`timeline`](Self::timeline).
#[derive(Clone, Debug)]
pub struct SchedProfile {
    /// Worker count the caller asked for.
    pub workers_requested: usize,
    /// Worker count that actually ran (after the shard-count clamp).
    pub workers: usize,
    /// Effective shard size (after `auto_shard_size`).
    pub shard_size: usize,
    /// Number of shards.
    pub shard_count: usize,
    /// Participating (live) nodes.
    pub live_nodes: usize,
    /// Whether the serial flush phase ran (sink attached or contended
    /// links).
    pub serial: bool,
    /// Per-worker recorders, indexed by worker.
    pub workers_prof: Vec<WorkerProf>,
}

impl SchedProfile {
    /// Wall nanoseconds from the first worker's start to the last
    /// worker's end.
    pub fn makespan_ns(&self) -> u64 {
        let start = self
            .workers_prof
            .iter()
            .map(|p| p.start_ns)
            .min()
            .unwrap_or(0);
        let end = self
            .workers_prof
            .iter()
            .map(|p| p.end_ns)
            .max()
            .unwrap_or(0);
        end.saturating_sub(start)
    }

    /// Aggregates the rings into a serializable [`SchedReport`].
    pub fn report(&self) -> SchedReport {
        let mut poll_hist = LogHistogram::new();
        let mut per_worker = Vec::with_capacity(self.workers_prof.len());
        let mut steal_matrix = Vec::with_capacity(self.workers_prof.len());
        let mut events_dropped = 0;
        for p in &self.workers_prof {
            poll_hist.merge(&p.poll_hist);
            events_dropped += p.dropped;
            steal_matrix.push(p.steal_row.clone());
            per_worker.push(SchedWorkerReport {
                worker: p.worker,
                poll_ns: p.total_ns(SchedCat::Poll),
                deliver_ns: p.total_ns(SchedCat::Deliver),
                serial_ns: p.total_ns(SchedCat::Serial),
                steal_ns: p.total_ns(SchedCat::Steal),
                barrier_ns: p.total_ns(SchedCat::Barrier),
                park_ns: p.total_ns(SchedCat::Park),
                other_ns: p.total_ns(SchedCat::Other),
                wall_ns: p.wall_ns(),
                polls: p.polls,
                nodes_polled: p.nodes_polled,
                shards_popped: p.shards_popped,
                shards_stolen: p.shards_stolen,
                steal_attempts: p.steal_attempts,
                parks: p.parks,
                barriers: p.barriers,
            });
        }
        SchedReport {
            workers_requested: self.workers_requested,
            workers: self.workers,
            shard_size: self.shard_size,
            shard_count: self.shard_count,
            live_nodes: self.live_nodes,
            serial: self.serial,
            makespan_ns: self.makespan_ns(),
            events_dropped,
            per_worker,
            steal_matrix,
            poll_hist,
        }
    }

    /// Renders the rings as Chrome-trace-event JSON: one track per worker
    /// under a synthetic `pid` 1 "scheduler" process, with `X` category
    /// spans (cat `"sched"`), steal flows from victim to thief (cat
    /// `"steal"`), and one runnable-queue counter track per worker
    /// (`runnable W<i>`; skipped — with a metadata note — when any ring
    /// dropped events, because a truncated ring's deltas no longer
    /// balance). Validated by `validate_chrome_trace`.
    pub fn perfetto_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let emit = |out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
        };

        emit(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"scheduler\"}}}}"
        );
        for p in &self.workers_prof {
            emit(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"worker {}\"}}}}",
                p.worker, p.worker
            );
        }

        // Category spans: each worker's ring is a time-ordered sequence of
        // switches, so per-track timestamps come out non-decreasing —
        // `trace-check` verifies that for cat "sched" tracks. `Other`
        // slices (sub-microsecond bookkeeping) are left as gaps.
        for p in &self.workers_prof {
            let mut open: Option<(SchedCat, u64, u32)> = None;
            let close = |out: &mut String,
                         first: &mut bool,
                         open: &mut Option<(SchedCat, u64, u32)>,
                         end: u64| {
                if let Some((cat, begin, arg)) = open.take() {
                    if cat != SchedCat::Other {
                        emit(out, first);
                        let _ = write!(
                            out,
                            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"sched\",\"ts\":{},\"dur\":{}",
                            p.worker,
                            cat.name(),
                            begin as f64 / 1000.0,
                            end.saturating_sub(begin) as f64 / 1000.0
                        );
                        if matches!(cat, SchedCat::Poll | SchedCat::Deliver) {
                            let _ = write!(out, ",\"args\":{{\"shard\":{arg}}}");
                        }
                        out.push('}');
                    }
                }
            };
            for e in p.events() {
                if let SchedEventKind::Switch(cat, arg) = e.kind {
                    close(&mut out, &mut first, &mut open, e.t_ns);
                    open = Some((cat, e.t_ns, arg));
                }
            }
            close(&mut out, &mut first, &mut open, p.end_ns);
        }

        // Steal flows: start on the victim's track, finish on the thief's,
        // both at the steal instant — the UI draws the migration arrow.
        let mut flow_id = 0u64;
        for p in &self.workers_prof {
            for e in p.events() {
                if let SchedEventKind::StealOk(victim) = e.kind {
                    let ts = e.t_ns as f64 / 1000.0;
                    emit(&mut out, &mut first);
                    let _ = write!(
                        out,
                        "{{\"ph\":\"s\",\"pid\":1,\"tid\":{victim},\"id\":{flow_id},\"name\":\"steal\",\"cat\":\"steal\",\"ts\":{ts}}}"
                    );
                    emit(&mut out, &mut first);
                    let _ = write!(
                        out,
                        "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":{},\"id\":{flow_id},\"name\":\"steal\",\"cat\":\"steal\",\"ts\":{ts}}}",
                        p.worker
                    );
                    flow_id += 1;
                }
            }
        }

        // Runnable-queue depth per worker deque: +1 when the owner stages
        // a shard (recorded before the push), -1 when the owner pops it,
        // -1 against the *victim's* track when a thief steals it. Only
        // sound when every ring is complete — a truncated ring would
        // unbalance the deltas — so drops disable the tracks.
        let dropped: u64 = self.workers_prof.iter().map(|p| p.dropped).sum();
        if dropped == 0 {
            let mut deltas: Vec<Vec<(f64, i64)>> = vec![Vec::new(); self.workers_prof.len()];
            for p in &self.workers_prof {
                for e in p.events() {
                    let ts = e.t_ns as f64 / 1000.0;
                    match e.kind {
                        SchedEventKind::Stage => deltas[p.worker].push((ts, 1)),
                        SchedEventKind::Pop => deltas[p.worker].push((ts, -1)),
                        SchedEventKind::StealOk(victim) => {
                            deltas[victim as usize].push((ts, -1));
                        }
                        _ => {}
                    }
                }
            }
            for (w, series) in deltas.iter_mut().enumerate() {
                super::perfetto::counter_track(
                    &mut out,
                    &mut first,
                    1,
                    &format!("runnable W{w}"),
                    "shards",
                    series,
                );
            }
        } else {
            emit(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"name\":\"sched_events_dropped\",\"args\":{{\"dropped\":{dropped}}}}}"
            );
        }

        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Renders an ASCII timeline: one row of `width` buckets per worker,
    /// each bucket showing the glyph of the category that dominated it
    /// (`#` poll, `d` deliver, `$` serial, `s` steal, `=` barrier,
    /// `.` park, `-` other, space = outside the worker's lifetime).
    pub fn timeline(&self, width: usize) -> String {
        let width = width.max(8);
        let start = self
            .workers_prof
            .iter()
            .map(|p| p.start_ns)
            .min()
            .unwrap_or(0);
        let span = self.makespan_ns().max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "worker timeline ({} buckets × {}): # poll  d deliver  $ serial  s steal  = barrier  . park  - other",
            width,
            fmt_ns(span / width as u64)
        );
        for p in &self.workers_prof {
            // per-bucket nanoseconds per category
            let mut buckets = vec![[0u64; CATEGORIES]; width];
            let mut fill = |cat: SchedCat, begin: u64, end: u64| {
                let (mut b, e) = (begin.max(start) - start, end.max(begin) - start);
                while b < e {
                    let idx = ((b as u128 * width as u128) / span as u128) as usize;
                    let idx = idx.min(width - 1);
                    // end of this bucket in run-relative ns
                    let edge = ((idx as u128 + 1) * span as u128).div_ceil(width as u128) as u64;
                    let stop = e.min(edge.max(b + 1));
                    buckets[idx][cat as usize] += stop - b;
                    b = stop;
                }
            };
            let mut open: Option<(SchedCat, u64)> = None;
            for e in p.events() {
                if let SchedEventKind::Switch(cat, _) = e.kind {
                    if let Some((prev, begin)) = open.take() {
                        fill(prev, begin, e.t_ns);
                    }
                    open = Some((cat, e.t_ns));
                }
            }
            if let Some((prev, begin)) = open.take() {
                fill(prev, begin, p.end_ns);
            }
            let _ = write!(out, "  W{} |", p.worker);
            for b in &buckets {
                let total: u64 = b.iter().sum();
                if total == 0 {
                    out.push(' ');
                } else {
                    let best = SchedCat::ALL
                        .iter()
                        .copied()
                        .max_by_key(|&c| b[c as usize])
                        .expect("categories are non-empty");
                    out.push(best.glyph());
                }
            }
            out.push_str("|\n");
        }
        out
    }
}

/// Per-worker aggregated row of a [`SchedReport`]. All `_ns` fields are
/// wall nanoseconds; the seven category fields tile `wall_ns` exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedWorkerReport {
    /// Pool index.
    pub worker: usize,
    /// Time polling shards.
    pub poll_ns: u64,
    /// Time delivering commits.
    pub deliver_ns: u64,
    /// Time in the coordinator's serial flush (0 for workers ≥ 1).
    pub serial_ns: u64,
    /// Time acquiring work (own pops + steal probes).
    pub steal_ns: u64,
    /// Time at the barrier (arrival, spin, post-unpark).
    pub barrier_ns: u64,
    /// Time parked on the barrier condvar.
    pub park_ns: u64,
    /// Uncategorized scheduler bookkeeping.
    pub other_ns: u64,
    /// Wall time from the worker's begin to its finish.
    pub wall_ns: u64,
    /// Poll slices run.
    pub polls: u64,
    /// Nodes polled, summed over slices.
    pub nodes_polled: u64,
    /// Shards claimed from the own deque.
    pub shards_popped: u64,
    /// Shards stolen from peers.
    pub shards_stolen: u64,
    /// Steal probes issued (hits + misses).
    pub steal_attempts: u64,
    /// Times the worker parked at the barrier.
    pub parks: u64,
    /// Barrier arrivals.
    pub barriers: u64,
}

json_object!(SchedWorkerReport {
    worker,
    poll_ns,
    deliver_ns,
    serial_ns,
    steal_ns,
    barrier_ns,
    park_ns,
    other_ns,
    wall_ns,
    polls,
    nodes_polled,
    shards_popped,
    shards_stolen,
    steal_attempts,
    parks,
    barriers,
});

impl SchedWorkerReport {
    /// Productive time: poll + deliver + serial, saturating.
    pub fn busy_ns(&self) -> u64 {
        self.poll_ns
            .saturating_add(self.deliver_ns)
            .saturating_add(self.serial_ns)
    }

    /// Sum of all seven category buckets — equals `wall_ns` up to clock
    /// granularity.
    pub fn accounted_ns(&self) -> u64 {
        self.busy_ns() + self.steal_ns + self.barrier_ns + self.park_ns + self.other_ns
    }
}

/// The aggregated, serializable scheduler profile of one run. Raw fields
/// round-trip exactly through [`to_json`](Self::to_json) /
/// [`from_json`](Self::from_json); utilization, steal rate and barrier
/// share are derived ([`utilization`](Self::utilization) etc.) and
/// re-derived on parse.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedReport {
    /// Worker count the caller asked for.
    pub workers_requested: usize,
    /// Worker count that actually ran.
    pub workers: usize,
    /// Effective shard size.
    pub shard_size: usize,
    /// Number of shards.
    pub shard_count: usize,
    /// Participating nodes.
    pub live_nodes: usize,
    /// Whether the serial flush phase ran.
    pub serial: bool,
    /// Wall nanoseconds from first worker start to last worker end.
    pub makespan_ns: u64,
    /// Ring entries dropped across all workers (totals stay exact).
    pub events_dropped: u64,
    /// Per-worker rows, indexed by worker.
    pub per_worker: Vec<SchedWorkerReport>,
    /// `steal_matrix[thief][victim]` = successful steals.
    pub steal_matrix: Vec<Vec<u64>>,
    /// Histogram of nodes-per-poll-slice (log₂ buckets).
    pub poll_hist: LogHistogram,
}

json_object!(SchedReport {
    workers_requested,
    workers,
    shard_size,
    shard_count,
    live_nodes,
    serial,
    makespan_ns,
    events_dropped,
    "utilization" = SchedReport::utilization,
    "steal_rate" = SchedReport::steal_rate,
    "barrier_share" = SchedReport::barrier_share,
    "workers_detail": per_worker,
    steal_matrix,
    poll_hist,
});

/// `values` summed without overflow (below 2^64, to the same `f64`).
fn sum_u128(values: impl Iterator<Item = u64>) -> u128 {
    values.map(u128::from).sum()
}

impl SchedReport {
    /// Mean worker utilization: Σ busy / (workers × makespan), in `[0,1]`.
    pub fn utilization(&self) -> f64 {
        let denom = self.per_worker.len() as u128 * u128::from(self.makespan_ns);
        if denom == 0 {
            return 0.0;
        }
        let busy = sum_u128(self.per_worker.iter().map(SchedWorkerReport::busy_ns));
        busy as f64 / denom as f64
    }

    /// Fraction of claimed shard slices that were stolen rather than
    /// popped from the owner's deque.
    pub fn steal_rate(&self) -> f64 {
        let stolen = sum_u128(self.per_worker.iter().map(|w| w.shards_stolen));
        let popped = sum_u128(self.per_worker.iter().map(|w| w.shards_popped));
        if stolen + popped == 0 {
            return 0.0;
        }
        stolen as f64 / (stolen + popped) as f64
    }

    /// Fraction of total worker wall time spent at the barrier (including
    /// parked).
    pub fn barrier_share(&self) -> f64 {
        let wall = sum_u128(self.per_worker.iter().map(|w| w.wall_ns));
        if wall == 0 {
            return 0.0;
        }
        let barrier = sum_u128(
            self.per_worker
                .iter()
                .flat_map(|w| [w.barrier_ns, w.park_ns]),
        );
        barrier as f64 / wall as f64
    }

    /// Serializes to the sched-report JSON schema (DESIGN.md §6). Derived
    /// metrics are included for consumers (`sched_json`, `bench_diff`) but
    /// ignored on parse.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.write(&mut out);
        out
    }

    /// Parses a report serialized by [`to_json`](Self::to_json); the
    /// round-trip is exact on every raw field.
    pub fn from_json(text: &str) -> Result<SchedReport, String> {
        SchedReport::read(&Json::parse(text)?)
    }

    /// Renders the human summary: effective schedule, per-worker split
    /// percentages, and the three headline metrics.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scheduler profile: {} worker(s) ({} requested), {} shard(s) × {} node(s), {} live, makespan {}{}",
            self.workers,
            self.workers_requested,
            self.shard_count,
            self.shard_size,
            self.live_nodes,
            fmt_ns(self.makespan_ns),
            if self.serial { ", serial flush on" } else { "" },
        );
        let _ = writeln!(
            out,
            "  worker    busy%   steal% barrier%    park%   other%    polls  claimed(stolen)  parks"
        );
        for w in &self.per_worker {
            let pct = |ns: u64| {
                if w.wall_ns == 0 {
                    0.0
                } else {
                    100.0 * ns as f64 / w.wall_ns as f64
                }
            };
            let _ = writeln!(
                out,
                "  W{:<7} {:>6.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8}  {:>9}({:<4}) {:>6}",
                w.worker,
                pct(w.busy_ns()),
                pct(w.steal_ns),
                pct(w.barrier_ns),
                pct(w.park_ns),
                pct(w.other_ns),
                w.polls,
                w.shards_popped.saturating_add(w.shards_stolen),
                w.shards_stolen,
                w.parks,
            );
        }
        let _ = writeln!(
            out,
            "  utilization {:.3} | steal rate {:.3} | barrier share {:.3}{}",
            self.utilization(),
            self.steal_rate(),
            self.barrier_share(),
            if self.events_dropped > 0 {
                format!(" | {} ring event(s) dropped", self.events_dropped)
            } else {
                String::new()
            },
        );
        out
    }
}

/// Formats nanoseconds human-readably (ns / µs / ms / s).
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}us", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// The handle a caller attaches to the engine to receive profiles:
/// configuration in, [`SchedProfile`] out (last run wins). The engine
/// only touches it at run setup (ring capacity) and teardown (install) —
/// never on the hot path.
#[derive(Debug, Default)]
pub struct SchedProfiler {
    ring_capacity: usize,
    slot: Mutex<Option<SchedProfile>>,
}

impl SchedProfiler {
    /// A profiler with the default ring capacity.
    pub fn new() -> Self {
        SchedProfiler {
            ring_capacity: 0,
            slot: Mutex::new(None),
        }
    }

    /// Overrides the per-worker event-ring capacity (builder style).
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// The per-worker ring capacity runs will preallocate.
    pub fn ring_capacity(&self) -> usize {
        if self.ring_capacity == 0 {
            DEFAULT_RING_CAPACITY
        } else {
            self.ring_capacity
        }
    }

    /// Deposits a finished run's profile (called by the engine; replaces
    /// any previous run's).
    pub fn install(&self, profile: SchedProfile) {
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(profile);
    }

    /// Takes the most recent run's profile, if any run was profiled.
    pub fn take(&self) -> Option<SchedProfile> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::perfetto::validate_chrome_trace;

    /// Drives two synthetic workers through a plausible round: W0 polls
    /// its own shard; W1 misses once, then steals shard 0 from W0 and
    /// polls it; both cross a barrier (W1 parks).
    fn synthetic_profile() -> SchedProfile {
        let epoch = Instant::now();
        let mut w0 = WorkerProf::new(0, 2, epoch, 64);
        let mut w1 = WorkerProf::new(1, 2, epoch, 64);
        w0.begin();
        w1.begin();
        w0.staged();
        w0.staged();
        w0.switch(SchedCat::Steal, 0);
        w0.popped();
        w0.switch(SchedCat::Poll, 0);
        w0.polled(3);
        w0.switch(SchedCat::Steal, 0);
        w1.switch(SchedCat::Steal, 0);
        w1.steal_missed(0);
        w1.stole(0);
        w1.switch(SchedCat::Poll, 1);
        w1.polled(2);
        w1.switch(SchedCat::Steal, 0);
        w0.switch(SchedCat::Other, 0);
        w1.switch(SchedCat::Other, 0);
        w1.barrier_arrived();
        w1.parked();
        w1.unparked();
        w1.switch(SchedCat::Other, 0);
        w0.barrier_arrived();
        w0.switch(SchedCat::Serial, 0);
        w0.switch(SchedCat::Other, 0);
        w0.finish();
        w1.finish();
        SchedProfile {
            workers_requested: 4,
            workers: 2,
            shard_size: 1,
            shard_count: 2,
            live_nodes: 2,
            serial: true,
            workers_prof: vec![w0, w1],
        }
    }

    #[test]
    fn categories_tile_wall_time_exactly() {
        let profile = synthetic_profile();
        let report = profile.report();
        for w in &report.per_worker {
            assert_eq!(
                w.accounted_ns(),
                w.wall_ns,
                "worker {} categories must tile its wall time",
                w.worker
            );
        }
        assert!(
            report.makespan_ns
                >= report.per_worker[0]
                    .wall_ns
                    .min(report.per_worker[1].wall_ns)
        );
        // counters
        assert_eq!(report.per_worker[0].shards_popped, 1);
        assert_eq!(report.per_worker[1].shards_stolen, 1);
        assert_eq!(report.per_worker[1].steal_attempts, 2);
        assert_eq!(report.steal_matrix[1][0], 1);
        assert_eq!(report.per_worker[1].parks, 1);
        assert_eq!(report.poll_hist.total(), 2);
        // derived metrics are in range
        assert!(report.utilization() >= 0.0 && report.utilization() <= 1.0);
        assert_eq!(report.steal_rate(), 0.5);
        assert!(report.barrier_share() >= 0.0 && report.barrier_share() <= 1.0);
    }

    #[test]
    fn report_json_roundtrip_is_exact() {
        let report = synthetic_profile().report();
        let text = report.to_json();
        let back = SchedReport::from_json(&text).expect("parse");
        assert_eq!(back, report);
        // derived metrics re-serialize identically
        assert_eq!(back.to_json(), text);
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn perfetto_export_validates_and_names_workers() {
        let profile = synthetic_profile();
        let text = profile.perfetto_json();
        let doc = Json::parse(&text).expect("valid JSON");
        let check = validate_chrome_trace(&doc).expect("structurally valid");
        assert!(check.spans > 0, "category spans present");
        assert_eq!(check.flows, 1, "one steal flow");
        assert!(check.counters > 0, "runnable counters present");
        assert!(text.contains("\"worker 0\""));
        assert!(text.contains("\"worker 1\""));
        assert!(text.contains("\"cat\":\"steal\""));
        assert!(text.contains("runnable W0"));
    }

    #[test]
    fn ring_overflow_drops_events_but_keeps_totals() {
        let epoch = Instant::now();
        let mut w = WorkerProf::new(0, 1, epoch, 4);
        w.begin();
        for _ in 0..10 {
            w.switch(SchedCat::Poll, 0);
            w.switch(SchedCat::Steal, 0);
        }
        w.finish();
        assert_eq!(w.events().len(), 4);
        assert_eq!(w.dropped(), 17);
        assert_eq!(
            w.total_ns(SchedCat::Poll) + w.total_ns(SchedCat::Steal) + w.total_ns(SchedCat::Other),
            w.wall_ns(),
            "totals stay exact past the drop point"
        );
        // dropped rings disable the runnable counter tracks
        let profile = SchedProfile {
            workers_requested: 1,
            workers: 1,
            shard_size: 1,
            shard_count: 1,
            live_nodes: 1,
            serial: false,
            workers_prof: vec![w],
        };
        let text = profile.perfetto_json();
        assert!(!text.contains("runnable W0"));
        assert!(text.contains("sched_events_dropped"));
        assert!(
            validate_chrome_trace(&Json::parse(&text).unwrap()).is_ok(),
            "truncated export still validates"
        );
    }

    #[test]
    fn timeline_has_one_row_per_worker() {
        let profile = synthetic_profile();
        let text = profile.timeline(32);
        let rows: Vec<&str> = text.lines().collect();
        assert_eq!(rows.len(), 3, "header + one row per worker");
        assert!(rows[1].starts_with("  W0 |"));
        assert!(rows[2].starts_with("  W1 |"));
        // rows are exactly the bucket width between the pipes
        let body = rows[1].split('|').nth(1).expect("bucket body");
        assert_eq!(body.chars().count(), 32);
    }

    #[test]
    fn profiler_mailbox_takes_last_install() {
        let profiler = SchedProfiler::new().with_ring_capacity(8);
        assert_eq!(profiler.ring_capacity(), 8);
        assert!(profiler.take().is_none());
        profiler.install(synthetic_profile());
        let mut second = synthetic_profile();
        second.live_nodes = 99;
        profiler.install(second);
        let got = profiler.take().expect("installed");
        assert_eq!(got.live_nodes, 99, "last run wins");
        assert!(profiler.take().is_none(), "take consumes");
        assert_eq!(SchedProfiler::new().ring_capacity(), DEFAULT_RING_CAPACITY);
    }
}
