//! The run-file gzip codec, pinned and fuzzed.
//!
//! * **Byte identity.** The encoder is a fixed greedy algorithm
//!   (fixed-Huffman DEFLATE, 32 KiB window, hash chains cut at 64
//!   candidates, 64 KiB batches), so its output is a pure function of the
//!   input bytes and of where the writer flushed. The compressed length and
//!   CRC32 of four inputs are pinned below; any change to the match finder
//!   or bit writer that moves a single output byte fails here.
//! * **Hostile input.** `GzDecoder` must answer every mutation of a valid
//!   stream — truncation, bit flips, a huge stored-block `LEN`, a huge
//!   `ISIZE` — with `Err` or the right bytes, never a panic or an
//!   allocation sized by the attacker.
//!
//! (Seeded loops rather than a property-test framework: the build is
//! offline. Failures print the case index.)

use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use hypercube::fault::FaultSet;
use hypercube::obs::gz::{GzDecoder, GzEncoder};
use hypercube::obs::sink::{StreamingSink, TraceSink};
use hypercube::sim::EngineKind;
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};

/// Tracks the largest single allocation each thread asks for, so the
/// fuzzer can check that no header field sizes one.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping only updates a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

/// Bitwise CRC32 (IEEE, reflected): an oracle independent of the codec's
/// table-driven one.
fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// Streams a seeded Q6 sort (faults {5, 18, 43}, 6 000 keys) into `sink`.
fn q6_run(sink: Arc<Mutex<dyn TraceSink>>) {
    let faults = FaultSet::from_raw(Hypercube::new(6), &[5, 18, 43]);
    let plan = FtPlan::new(&faults).expect("tolerable");
    let mut rng = StdRng::seed_from_u64(0x6a);
    let data: Vec<u32> = (0..6_000).map(|_| rng.random()).collect();
    let config = FtConfig {
        engine: EngineKind::Seq,
        ..FtConfig::default()
    };
    fault_tolerant_sort(
        &plan,
        &config,
        data,
        Attach {
            sink: Some(sink),
            ..Attach::default()
        },
    );
}

/// The plain run-file bytes of [`q6_run`].
fn q6_plain() -> Vec<u8> {
    let sink = Arc::new(Mutex::new(StreamingSink::new(Vec::<u8>::new())));
    q6_run(sink.clone());
    Arc::try_unwrap(sink)
        .ok()
        .expect("the engine dropped its sink handle")
        .into_inner()
        .unwrap()
        .into_inner()
        .unwrap()
}

/// [`q6_run`] streamed to a `.jsonl.gz` file, as `sort --run-out` does.
fn q6_gz_file() -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("ftsort_gz_pin_{}.jsonl.gz", std::process::id()));
    {
        let sink = StreamingSink::create(&path).expect("create");
        q6_run(Arc::new(Mutex::new(sink)));
    }
    let bytes = std::fs::read(&path).expect("gz readable");
    let _ = std::fs::remove_file(&path);
    bytes
}

/// Inflates a member held in memory through [`GzDecoder`], as replay
/// reads a run file.
fn inflate(packed: &[u8]) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    GzDecoder::new(packed).read_to_end(&mut out).map(|_| out)
}

fn gzip(data: &[u8]) -> Vec<u8> {
    let mut enc = GzEncoder::new(Vec::new()).expect("header");
    enc.write_all(data).expect("write");
    enc.finish().expect("finish")
}

/// `data` in 7-byte writes with a `flush()` after every 97th: mid-stream
/// flushes cut batches short, which the encoder must reproduce exactly.
fn gzip_chunked(data: &[u8]) -> Vec<u8> {
    let mut enc = GzEncoder::new(Vec::new()).expect("header");
    for (k, chunk) in data.chunks(7).enumerate() {
        enc.write_all(chunk).expect("write");
        if (k + 1) % 97 == 0 {
            enc.flush().expect("flush");
        }
    }
    enc.finish().expect("finish")
}

fn xorshift_noise(len: usize) -> Vec<u8> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

#[test]
fn encoder_output_is_pinned() {
    let plain = q6_plain();
    let mod251: Vec<u8> = (0..1_000_000usize).map(|i| (i % 251) as u8).collect();
    let noise = xorshift_noise(300_000);
    let cases: [(&str, &[u8], Vec<u8>); 4] = [
        (
            "Q6 run file via StreamingSink::create",
            &plain,
            q6_gz_file(),
        ),
        ("1 MB of i % 251", &mod251, gzip(&mod251)),
        ("300 KB of xorshift noise", &noise, gzip(&noise)),
        (
            "Q6 run file, 7-byte writes, flush every 97",
            &plain,
            gzip_chunked(&plain),
        ),
    ];
    let got: Vec<(usize, u32)> = cases
        .iter()
        .map(|(name, input, packed)| {
            assert_eq!(&inflate(packed).expect(name), input, "{name}: round trip");
            (packed.len(), crc32(packed))
        })
        .collect();
    for ((name, _, _), g) in cases.iter().zip(&got) {
        eprintln!("{name}: {} bytes, crc32 {:#010x}", g.0, g.1);
    }
    assert_eq!(got, PINNED, "encoder output moved");
}

/// `(compressed length, CRC32 of the compressed bytes)` per case, recorded
/// from the original byte-at-a-time encoder (the oracle `obs::gz`'s unit
/// tests keep): cases 1 and 2 when it was replaced, cases 0 and 3 on the
/// schema-v3 Q6 text (239,781 bytes), fed in the same writes.
const PINNED: [(usize, u32); 4] = [
    (48_461, 0x78fd_1afb),
    (9_488, 0xba57_e074),
    (316_368, 0x292e_d02b),
    (48_896, 0x2845_8309),
];

/// A gzip member around one stored block holding `payload`, with the
/// given trailer.
fn stored_member(len: u16, payload: &[u8], crc: u32, isize: u32) -> Vec<u8> {
    let mut data = vec![0x1f, 0x8b, 0x08, 0, 0, 0, 0, 0, 0, 0xff, 0b001];
    data.extend_from_slice(&len.to_le_bytes());
    data.extend_from_slice(&(!len).to_le_bytes());
    data.extend_from_slice(payload);
    data.extend_from_slice(&crc.to_le_bytes());
    data.extend_from_slice(&isize.to_le_bytes());
    data
}

#[test]
fn mutated_gzip_streams_fail_cleanly() {
    let plain: Vec<u8> = q6_plain().into_iter().take(40_000).collect();
    let base = gzip(&plain);
    let set_isize = |mut m: Vec<u8>, isize: u32| {
        let at = m.len() - 4;
        m[at..].copy_from_slice(&isize.to_le_bytes());
        m
    };
    let mut cases: Vec<Vec<u8>> = Vec::new();
    // truncation at many offsets
    let step = (base.len() / 80).max(1);
    cases.extend(
        (0..base.len())
            .step_by(step)
            .map(|cut| base[..cut].to_vec()),
    );
    // random bit flips, anywhere (header, block type, codes, trailer)
    let mut rng = StdRng::seed_from_u64(0x5eed_06a1);
    for _ in 0..400 {
        let mut m = base.clone();
        for _ in 0..rng.random_range(1..=3) {
            let at = rng.random_range(0..m.len());
            m[at] ^= 1 << rng.random_range(0..8u32);
        }
        cases.push(m);
    }
    // huge ISIZE, short ISIZE
    cases.push(set_isize(base.clone(), u32::MAX));
    cases.push(set_isize(base.clone(), 1));
    // a stored block claiming 64 KiB that is not there, under either trailer
    cases.push(stored_member(u16::MAX, b"only a few bytes", 0, u32::MAX));
    cases.push(stored_member(u16::MAX, b"only a few bytes", 0, 16));
    // a complete 64 KiB stored block whose trailer admits 100 bytes
    cases.push(stored_member(u16::MAX, &[7; 65_535], 0, 100));

    let mut errors = 0;
    for (case, m) in cases.iter().enumerate() {
        LARGEST.with(|l| l.set(0));
        let result = inflate(m);
        let largest = LARGEST.with(Cell::get);
        // DEFLATE expands at most 1032:1; nothing a header claims may
        // push an allocation past that (or past the true output)
        let bound = (1032 * m.len()).max(2 * plain.len()) + (1 << 20);
        assert!(
            largest <= bound,
            "case {case}: allocated {largest} bytes for a {}-byte stream",
            m.len()
        );
        match result {
            Ok(out) => assert_eq!(
                out, plain,
                "case {case}: a stream that checks out must be the original"
            ),
            Err(_) => errors += 1,
        }
    }
    assert!(
        errors > cases.len() / 2,
        "most mutations must be caught ({errors} of {})",
        cases.len()
    );
}
