//! Space-time trace of a small fault-tolerant sort: every message and
//! computation, with virtual timestamps — the view a logic analyzer would
//! give you on the real machine — followed by the run's critical path
//! (the happens-before chain that gated the makespan) drawn on an ASCII
//! gantt chart.
//!
//! ```text
//! cargo run --release --example message_trace [n] [r] [M]
//! ```

use ftsort::distribute::chunk_len;
use ftsort::prelude::*;
use hypercube::obs::critical_path::{gantt, CriticalPath, SegmentKind};
use hypercube::sim::TraceKind;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);
    let r: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1);
    let m_total: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(21);

    let cube = Hypercube::new(n);
    if r > 1 {
        eprintln!("this trace demonstrates the single-fault sort: r must be 0 or 1");
        std::process::exit(2);
    }
    let mut rng = StdRng::seed_from_u64(3);
    let faults = FaultSet::random(cube, r, &mut rng);
    println!(
        "tracing a single-fault bitonic sort: Q{n}, faults {:?}, M = {m_total}\n",
        faults.to_vec()
    );

    // Run the distributed bitonic sort (with reindexing if r == 1) with an
    // in-memory trace attached.
    let data: Vec<u32> = (0..m_total as u32)
        .map(|_| rng.random_range(0..100))
        .collect();
    let config = FtConfig {
        cost: CostModel::paper_form(),
        tracing: true,
        ..FtConfig::default()
    };
    let (out, obs) = if faults.is_empty() {
        bitonic_sort(cube, &config, data, Attach::default())
    } else {
        single_fault_bitonic_sort(&faults, &config, data, Attach::default())
    };

    // Render the trace.
    println!("{:>10}  {:>4}  event", "time µs", "node");
    println!("{}", "-".repeat(64));
    for e in obs.trace.events() {
        let desc = match e.kind {
            TraceKind::Send { to, elements, hops } => {
                format!("send → P{:<2}  {elements} keys, {hops} hop(s)", to.raw())
            }
            TraceKind::Recv { from, elements, .. } => {
                format!("recv ← P{:<2}  {elements} keys", from.raw())
            }
            TraceKind::Compute { comparisons } => format!("compute    {comparisons} comparisons"),
        };
        println!("{:>10.1}  P{:<3}  {desc}", e.time, e.node.raw());
    }
    println!(
        "\n{} events; turnaround {:.1} µs; {} keys per live processor",
        obs.trace.len(),
        out.time_us,
        chunk_len(m_total, out.processors_used)
    );

    // Walk the happens-before graph backward from the last-finishing node
    // and show which stretches were local work vs message transfers.
    let path = CriticalPath::compute(&obs).expect("traced run has a path");
    println!("\ncritical path ({} segments):", path.segments.len());
    for seg in &path.segments {
        match seg.kind {
            SegmentKind::Local => println!(
                "  {:>8.1} – {:>8.1} µs  P{:<3} local",
                seg.begin,
                seg.end,
                seg.node.raw()
            ),
            SegmentKind::Transfer => println!(
                "  {:>8.1} – {:>8.1} µs  P{} → P{} transfer",
                seg.begin,
                seg.end,
                seg.from.expect("transfer has a sender").raw(),
                seg.node.raw()
            ),
            SegmentKind::Wait => println!(
                "  {:>8.1} – {:>8.1} µs  P{} → P{} link wait",
                seg.begin,
                seg.end,
                seg.from.expect("wait has a sender").raw(),
                seg.node.raw()
            ),
        }
    }
    println!();
    print!("{}", gantt(&obs, &path, &ftsort::ftsort::phase_name, 64));
}
