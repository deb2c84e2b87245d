//! Minimal gzip (RFC 1952) + DEFLATE (RFC 1951) — enough to stream run
//! files through `.gz` compression and read them back, with no external
//! crates (the workspace builds offline).
//!
//! **Compressor.** [`GzEncoder`] emits a single fixed-Huffman DEFLATE
//! block: greedy LZ77 over a 32 KiB sliding history, hash chains cut at
//! 64 candidates, input compressed in batches that close once
//! 64 KiB are pending (or at a flush), so a streamed run costs O(window)
//! memory, not O(file). Run files are line-oriented JSON with heavily
//! repeated key names, so even this modest scheme compresses them ~8×.
//! The output is a pure function of the input bytes and the batch
//! boundaries, and it is pinned byte for byte (`tests/gz_codec.rs`, plus a
//! differential test against the original byte-at-a-time encoder below).
//! What makes it fast without moving a byte:
//!
//! * the hash heads and a `u32` ring of `prev` links persist across
//!   batches, so the 32 KiB history is never re-hashed and nothing is
//!   reallocated per batch (stream positions are rebased long before they
//!   could overflow `u32`);
//! * a chain candidate is rejected by the four bytes ending where it
//!   would have to match to beat the current best, before any comparison,
//!   and matches are measured 8 bytes at a time;
//! * codes come from precomputed tables, bits are packed into a per-batch
//!   byte buffer that reaches the writer once per batch, and CRC32 is
//!   sliced by 8.
//!
//! **Decompressor.** [`GzDecoder`] is complete — stored, fixed and dynamic
//! blocks — so externally-gzipped run files replay too. It streams:
//! reading it inflates the member block by block into a buffer that holds
//! the 32 KiB window back-references reach into plus at most 64 KiB of new
//! output, fed 32 KiB of compressed input at a time, so its memory does
//! not grow with the member. When the member ends it checks the trailer's
//! CRC32 and `ISIZE` (so members of 4 GiB or more, whose `ISIZE` wraps,
//! are rejected) and that no bytes follow it. Huffman symbols decode
//! through a lookup table and the bit buffer refills a word at a time.
//! It is the one inflate path: a member held in memory is read through it
//! as a byte slice.

use super::metrics;
use std::io::{self, Read, Write};
use std::sync::OnceLock;

/// The gzip magic bytes.
pub fn is_gzip(data: &[u8]) -> bool {
    data.len() >= 2 && data[0] == 0x1f && data[1] == 0x8b
}

// ---------------------------------------------------------------- CRC32

/// Slicing-by-8 tables: `CRC_TABLES[k][b]` is the CRC register after byte
/// `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let c = t[k - 1][i];
            t[k][i] = (c >> 8) ^ t[0][(c & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

struct Crc32 {
    state: u32,
}

impl Crc32 {
    fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    fn value(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

// ------------------------------------------------------- DEFLATE tables

const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
/// RFC 1951 §3.2.7: the order code-length code lengths are transmitted in.
const CLEN_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

const WINDOW: usize = 32 * 1024;
const BATCH: usize = 64 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const HASH_BITS: u32 = 15;
/// Chain candidates examined per position before the search gives up.
const CHAIN_LIMIT: usize = 64;

/// Reverses the low `n` bits of `code` — Huffman codes are packed into the
/// LSB-first bitstream starting from their most significant bit.
const fn reverse_bits(code: u32, n: u32) -> u32 {
    code.reverse_bits() >> (32 - n)
}

/// The fixed litlen code (RFC 1951 §3.2.6): `(code, bits)` per symbol.
const fn fixed_litlen(sym: usize) -> (u32, u32) {
    match sym {
        0..=143 => (0x30 + sym as u32, 8),
        144..=255 => (0x190 + (sym - 144) as u32, 9),
        256..=279 => ((sym - 256) as u32, 7),
        _ => (0xC0 + (sym - 280) as u32, 8),
    }
}

/// Per litlen symbol: `(bits in stream order, width)` of its fixed code.
static LIT_CODES: [(u32, u32); 288] = lit_codes();
/// Per match length 3..=258: the length symbol's fixed code followed by
/// its extra bits, as one `(bits, width)` pair.
static LEN_CODES: [(u32, u32); MAX_MATCH + 1] = len_codes();
/// Distance code by `dist - 1` for distances up to 256, then by
/// `256 + ((dist - 1) >> 7)` (every code boundary above 256 is a multiple
/// of 128).
static DIST_CODES: [u8; 512] = dist_codes();

const fn lit_codes() -> [(u32, u32); 288] {
    let mut t = [(0u32, 0u32); 288];
    let mut sym = 0;
    while sym < 288 {
        let (code, n) = fixed_litlen(sym);
        t[sym] = (reverse_bits(code, n), n);
        sym += 1;
    }
    t
}

const fn len_codes() -> [(u32, u32); MAX_MATCH + 1] {
    let mut t = [(0u32, 0u32); MAX_MATCH + 1];
    let mut len = MIN_MATCH;
    while len <= MAX_MATCH {
        // code 284 covers 227..=257; 258 has its own zero-extra code 285
        let mut c = 28;
        while LEN_BASE[c] as usize > len {
            c -= 1;
        }
        let (code, n) = fixed_litlen(257 + c);
        let extra = (len - LEN_BASE[c] as usize) as u32;
        t[len] = (reverse_bits(code, n) | extra << n, n + LEN_EXTRA[c] as u32);
        len += 1;
    }
    t
}

const fn dist_codes() -> [u8; 512] {
    let mut t = [0u8; 512];
    let mut c = 0;
    while c < 30 {
        let mut d = DIST_BASE[c] as usize;
        while d < DIST_BASE[c] as usize + (1 << DIST_EXTRA[c]) {
            let slot = if d <= 256 {
                d - 1
            } else {
                256 + ((d - 1) >> 7)
            };
            t[slot] = c as u8;
            d += 1;
        }
        c += 1;
    }
    t
}

/// The distance code of `dist` and its extra bits, as one `(bits, width)`.
#[inline]
fn dist_code(dist: usize) -> (u32, u32) {
    let c = if dist <= 256 {
        DIST_CODES[dist - 1]
    } else {
        DIST_CODES[256 + ((dist - 1) >> 7)]
    } as usize;
    let extra = (dist - DIST_BASE[c] as usize) as u32;
    (
        reverse_bits(c as u32, 5) | extra << 5,
        5 + DIST_EXTRA[c] as u32,
    )
}

// ------------------------------------------------------------ GzEncoder

/// LSB-first bit packer into a byte buffer.
struct BitWriter {
    bytes: Vec<u8>,
    bitbuf: u64,
    nbits: u32,
}

impl BitWriter {
    /// Appends the low `n` bits of `value` (`n ≤ 32`, no higher bits set).
    #[inline]
    fn put(&mut self, value: u32, n: u32) {
        self.bitbuf |= (value as u64) << self.nbits;
        self.nbits += n;
        if self.nbits >= 32 {
            self.bytes
                .extend_from_slice(&(self.bitbuf as u32).to_le_bytes());
            self.bitbuf >>= 32;
            self.nbits -= 32;
        }
    }

    /// Moves every complete byte of the bit buffer into `bytes`.
    fn drain_whole_bytes(&mut self) {
        while self.nbits >= 8 {
            self.bytes.push(self.bitbuf as u8);
            self.bitbuf >>= 8;
            self.nbits -= 8;
        }
    }
}

/// Stream position of the first input byte. Positions start above the
/// window so the zero an empty hash slot holds is always out of reach.
const ORIGIN: u32 = WINDOW as u32 + 1;
/// Positions are rebased once they pass this (low under test, so the
/// differential tests cross it).
const REBASE_AT: usize = if cfg!(test) { 1 << 20 } else { 1 << 31 };
/// The most input one `write` call accepts, so one batch never spans
/// more than `u32` positions.
const MAX_WRITE: usize = 1 << 30;

/// The greedy match finder, carried across batches.
struct Lz77 {
    /// The last ≤ [`WINDOW`] compressed bytes, then the pending input.
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already compressed.
    done: usize,
    /// Stream position of `buf[0]`.
    base: u32,
    /// Index in `buf` of the next position to enter the hash chains.
    hashed: usize,
    /// Most recent position per hash of the three bytes starting there.
    head: Vec<u32>,
    /// Ring indexed by `position % WINDOW`: the previous position with the
    /// same hash. Only read for positions within the window, whose slot no
    /// later position has reused yet.
    prev: Vec<u32>,
}

#[inline]
fn hash3(w: &[u8], i: usize) -> usize {
    let h = (w[i] as u32)
        .wrapping_mul(0x9E37)
        .wrapping_add((w[i + 1] as u32).wrapping_mul(0x85EB))
        .wrapping_add(w[i + 2] as u32);
    (h.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `w[a..]` and `w[b..]`, capped at
/// `limit` (`b + limit ≤ w.len()`, `a < b`).
#[inline]
fn match_len(w: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let mut l = 0;
    while l + 8 <= limit {
        let x = u64::from_le_bytes(w[a + l..a + l + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(w[b + l..b + l + 8].try_into().expect("8 bytes"));
        let diff = x ^ y;
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && w[a + l] == w[b + l] {
        l += 1;
    }
    l
}

/// The bytes of `w[at..]` a match longer than `best_len` must repeat,
/// ending at offset `best_len` (`at + best_len < w.len()`): four of them
/// once `best_len ≥ 3`, the one at `best_len` before that.
#[inline]
fn probe(w: &[u8], at: usize, best_len: usize) -> u32 {
    if best_len >= 3 {
        let from = at + best_len - 3;
        u32::from_le_bytes(w[from..from + 4].try_into().expect("4 bytes"))
    } else {
        w[at + best_len] as u32
    }
}

impl Lz77 {
    fn new() -> Self {
        Lz77 {
            buf: Vec::with_capacity(WINDOW + BATCH + 1024),
            done: 0,
            base: ORIGIN,
            hashed: 0,
            head: vec![0; 1 << HASH_BITS],
            prev: vec![0; WINDOW],
        }
    }

    fn pending(&self) -> usize {
        self.buf.len() - self.done
    }

    /// Shifts every stored position down by a multiple of [`WINDOW`] (so
    /// ring slots stay put). Positions older than the history clamp
    /// toward zero and stay out of reach.
    fn rebase(&mut self) {
        let shift = (self.base - ORIGIN) / WINDOW as u32 * WINDOW as u32;
        for p in self.head.iter_mut().chain(self.prev.iter_mut()) {
            *p = p.saturating_sub(shift);
        }
        self.base -= shift;
    }

    /// Codes every pending byte into `bits`, then slides the history.
    ///
    /// At each position the chain of earlier positions with the same hash
    /// is walked newest first, up to [`CHAIN_LIMIT`] candidates within the
    /// window; the first longest match wins, and a match of at least
    /// [`MIN_MATCH`] bytes is taken greedily.
    fn compress(&mut self, bits: &mut BitWriter) {
        if self.base as usize + self.buf.len() > REBASE_AT {
            self.rebase();
        }
        let Lz77 {
            buf,
            done,
            base,
            hashed,
            head,
            prev,
        } = self;
        let w: &[u8] = buf;
        let end = w.len();
        let mut i = *done;
        while i < end {
            let limit = (end - i).min(MAX_MATCH);
            let mut best_len = 0;
            let mut best_dist = 0;
            if limit >= MIN_MATCH {
                while *hashed < i {
                    let p = *base + *hashed as u32;
                    let h = hash3(w, *hashed);
                    prev[p as usize & (WINDOW - 1)] = head[h];
                    head[h] = p;
                    *hashed += 1;
                }
                let pos = *base + i as u32;
                let mut cand = head[hash3(w, i)];
                for _ in 0..CHAIN_LIMIT {
                    let dist = (pos - cand) as usize;
                    if dist > WINDOW {
                        break;
                    }
                    let c = i - dist;
                    // only a candidate matching through `best_len` can beat
                    // it: probe the byte there, with the three before it
                    if probe(w, c, best_len) == probe(w, i, best_len) {
                        let l = match_len(w, c, i, limit);
                        if l > best_len {
                            best_len = l;
                            best_dist = dist;
                            if l == limit {
                                break;
                            }
                        }
                    }
                    cand = prev[cand as usize & (WINDOW - 1)];
                }
            }
            if best_len >= MIN_MATCH {
                let (lb, ln) = LEN_CODES[best_len];
                let (db, dn) = dist_code(best_dist);
                bits.put(lb | db << ln, ln + dn);
                i += best_len;
            } else {
                let (lb, ln) = LIT_CODES[w[i] as usize];
                bits.put(lb, ln);
                i += 1;
            }
        }
        // Positions not yet hashed are the tail of the last match (or the
        // last two bytes): at most MAX_MATCH back, so inside the kept window.
        let cut = end - end.min(WINDOW);
        debug_assert!(*hashed >= cut);
        buf.drain(..cut);
        *base += cut as u32;
        *hashed -= cut;
        *done = buf.len();
    }
}

/// A gzip compressor over any writer. Bytes written are compressed in
/// batches; the stream is completed (end-of-block symbol, CRC32 + ISIZE
/// trailer) by [`finish`](GzEncoder::finish), or on drop if never finished
/// explicitly, where an error writing the trailer is lost. A
/// [`StreamingSink`](super::sink::StreamingSink) ends its encoder when the
/// run finishes, and keeps that error.
pub struct GzEncoder<W: Write> {
    out: Option<W>,
    crc: Crc32,
    total_in: u32,
    total_out: u64,
    lz: Lz77,
    bits: BitWriter,
    finished: bool,
}

impl<W: Write> GzEncoder<W> {
    /// Writes the gzip header and the (single) fixed-block header.
    pub fn new(mut out: W) -> io::Result<Self> {
        // magic, CM=deflate, no flags, no mtime, no XFL, OS=unknown
        out.write_all(&[0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff])?;
        let mut bits = BitWriter {
            bytes: Vec::with_capacity(BATCH),
            bitbuf: 0,
            nbits: 0,
        };
        bits.put(1, 1); // BFINAL: one block for the whole stream
        bits.put(0b01, 2); // BTYPE: fixed Huffman
        Ok(GzEncoder {
            out: Some(out),
            crc: Crc32::new(),
            total_in: 0,
            total_out: 10,
            lz: Lz77::new(),
            bits,
            finished: false,
        })
    }

    /// Uncompressed bytes fed in so far (wraps with gzip's 32-bit ISIZE).
    pub fn total_in(&self) -> u64 {
        self.total_in as u64
    }

    /// Compressed bytes handed to the writer so far (header included; up
    /// to 7 bits may still sit in the bit buffer until the stream ends).
    pub fn total_out(&self) -> u64 {
        self.total_out
    }

    /// Hands every complete byte of the bitstream to the writer.
    fn write_bits(&mut self) -> io::Result<()> {
        self.bits.drain_whole_bytes();
        self.out
            .as_mut()
            .expect("writer taken")
            .write_all(&self.bits.bytes)?;
        self.total_out += self.bits.bytes.len() as u64;
        self.bits.bytes.clear();
        Ok(())
    }

    /// Compresses everything pending and writes out the finished bytes.
    fn compress_pending(&mut self) -> io::Result<()> {
        if self.lz.pending() == 0 {
            return Ok(());
        }
        self.lz.compress(&mut self.bits);
        self.write_bits()
    }

    /// Completes the stream in place; later calls do nothing.
    pub(crate) fn finish_stream(&mut self) -> io::Result<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        self.compress_pending()?;
        let (eob, n) = LIT_CODES[256];
        self.bits.put(eob, n);
        let pad = (8 - self.bits.nbits % 8) % 8;
        self.bits.put(0, pad);
        self.bits.drain_whole_bytes();
        let (crc, isize) = (self.crc.value(), self.total_in);
        self.bits.bytes.extend_from_slice(&crc.to_le_bytes());
        self.bits.bytes.extend_from_slice(&isize.to_le_bytes());
        self.write_bits()?;
        // The stream's byte totals fold in once, when it ends.
        metrics::fold(|t| {
            t.gz_bytes_in += u64::from(self.total_in);
            t.gz_bytes_out += self.total_out;
        });
        self.out.as_mut().expect("writer taken").flush()
    }

    /// Completes the stream and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.finish_stream()?;
        Ok(self.out.take().expect("writer taken"))
    }
}

impl<W: Write> Write for GzEncoder<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.finished {
            return Err(io::Error::other("write after gzip stream was finished"));
        }
        let buf = &buf[..buf.len().min(MAX_WRITE)];
        self.crc.update(buf);
        self.total_in = self.total_in.wrapping_add(buf.len() as u32);
        self.lz.buf.extend_from_slice(buf);
        if self.lz.pending() >= BATCH {
            self.compress_pending()?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // Push pending bytes into the bitstream (whole bytes reach the
        // writer; up to 7 bits stay buffered — a gzip stream is only
        // decodable once finished anyway) and flush the writer.
        if !self.finished {
            self.compress_pending()?;
        }
        self.out.as_mut().expect("writer taken").flush()
    }
}

impl<W: Write> Drop for GzEncoder<W> {
    fn drop(&mut self) {
        if self.out.is_some() {
            let _ = self.finish_stream();
        }
    }
}

// -------------------------------------------------------------- inflate

const EOF: &str = "gzip: unexpected end of compressed data";
/// Compressed bytes asked of the source at a time.
const INPUT_CHUNK: usize = 32 * 1024;
/// The decoder's output buffer: the [`WINDOW`] of history back-references
/// reach into, then up to 64 KiB inflated per refill.
const OUTPUT_CAP: usize = WINDOW + 64 * 1024;

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn eof() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, EOF)
}

/// Maps running out of input to the error `what`; other errors pass.
fn truncated(what: &'static str) -> impl Fn(io::Error) -> io::Error {
    move |e| match e.kind() {
        io::ErrorKind::UnexpectedEof => corrupt(what),
        _ => e,
    }
}

/// One `read` from `src`, retried while it is interrupted (as
/// `read_exact` does).
pub(crate) fn read_some(src: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match src.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            done => return done,
        }
    }
}

/// An LSB-first bit reader over a source, holding at most
/// [`INPUT_CHUNK`] compressed bytes at a time.
struct BitReader<R> {
    src: R,
    /// Bytes read from `src`; those from `pos` on are not yet in `bitbuf`.
    buf: Vec<u8>,
    pos: usize,
    /// Whether `src` has reported its end.
    eof: bool,
    /// Bits not yet consumed, LSB first. Bits above `nbits` are lookahead
    /// copies of `buf[pos..]`, so re-reading those bytes is idempotent.
    bitbuf: u64,
    nbits: u32,
}

impl<R: Read> BitReader<R> {
    fn new(src: R) -> Self {
        BitReader {
            src,
            buf: Vec::with_capacity(INPUT_CHUNK),
            pos: 0,
            eof: false,
            bitbuf: 0,
            nbits: 0,
        }
    }

    /// Drops the bytes already in `bitbuf` and reads from the source until
    /// at least 8 bytes are buffered or the source ends.
    #[cold]
    fn fill(&mut self) -> io::Result<()> {
        self.buf.drain(..self.pos);
        self.pos = 0;
        while self.buf.len() < 8 && !self.eof {
            let len = self.buf.len();
            self.buf.resize(INPUT_CHUNK, 0);
            let read = read_some(&mut self.src, &mut self.buf[len..]);
            let n = *read.as_ref().unwrap_or(&0);
            self.buf.truncate(len + n);
            self.eof = read? == 0;
        }
        Ok(())
    }

    /// Tops the bit buffer up to at least 56 bits, or to the end of the
    /// input.
    #[inline]
    fn refill(&mut self) -> io::Result<()> {
        if self.buf.len() - self.pos < 8 {
            self.fill()?;
        }
        if let Some(word) = self.buf.get(self.pos..self.pos + 8) {
            self.bitbuf |= u64::from_le_bytes(word.try_into().expect("8 bytes")) << self.nbits;
            let take = (63 - self.nbits) / 8;
            self.pos += take as usize;
            self.nbits += take * 8;
        } else {
            while self.nbits <= 56 && self.pos < self.buf.len() {
                self.bitbuf |= (self.buf[self.pos] as u64) << self.nbits;
                self.pos += 1;
                self.nbits += 8;
            }
        }
        Ok(())
    }

    #[inline]
    fn consume(&mut self, n: u32) {
        self.bitbuf >>= n;
        self.nbits -= n;
    }

    /// The next `n ≤ 32` bits.
    fn take_bits(&mut self, n: u32) -> io::Result<u32> {
        if self.nbits < n {
            self.refill()?;
            if self.nbits < n {
                return Err(eof());
            }
        }
        let v = (self.bitbuf & ((1u64 << n) - 1)) as u32;
        self.consume(n);
        Ok(v)
    }

    /// Drops the bits up to the next byte boundary.
    fn align_byte(&mut self) {
        self.consume(self.nbits % 8);
    }

    /// Appends between 1 and `max ≥ 1` bytes of a byte-aligned stored block
    /// to `out`, and returns how many.
    fn copy_to(&mut self, out: &mut Vec<u8>, max: usize) -> io::Result<usize> {
        if self.nbits >= 8 {
            // whole bytes still in the bit buffer come first
            out.push(self.bitbuf as u8);
            self.consume(8);
            return Ok(1);
        }
        self.bitbuf = 0; // lookahead only: the bytes are copied from `buf`
        if self.pos == self.buf.len() {
            self.fill()?;
        }
        let n = max.min(self.buf.len() - self.pos);
        if n == 0 {
            return Err(corrupt("gzip: truncated stored block"));
        }
        out.extend_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }

    /// Whether the input ends here.
    fn at_end(&mut self) -> io::Result<bool> {
        if self.nbits == 0 && self.pos == self.buf.len() {
            self.fill()?;
        }
        Ok(self.nbits == 0 && self.pos == self.buf.len())
    }
}

/// Codes up to this long decode with one table lookup.
const FAST_BITS: u32 = 10;

/// Canonical Huffman decoder: a [`FAST_BITS`] lookup table, with a
/// per-length first-code walk for longer codes.
struct Huffman {
    /// Indexed by the next `FAST_BITS` stream bits: `symbol << 4 | length`
    /// of the code they start with, or 0 if that code is longer (or the
    /// bits start no code).
    fast: Vec<u16>,
    /// Per code length 1..=15: (first code, first symbol index, count).
    levels: Vec<(u32, u32, u32)>,
    symbols: Vec<u16>,
}

impl Huffman {
    fn new(lengths: &[u8]) -> io::Result<Huffman> {
        let mut fast = vec![0u16; 1 << FAST_BITS];
        let max_len = lengths.iter().copied().max().unwrap_or(0) as usize;
        if max_len == 0 {
            // A legal alphabet with no codes (e.g. the distance table of a
            // match-free dynamic block): decoding any symbol is an error,
            // but building the table is not.
            return Ok(Huffman {
                fast,
                levels: Vec::new(),
                symbols: Vec::new(),
            });
        }
        let mut count = vec![0u32; max_len + 1];
        for &l in lengths {
            count[l as usize] += 1;
        }
        count[0] = 0;
        let mut symbols = Vec::with_capacity(lengths.len());
        let mut levels = Vec::with_capacity(max_len);
        let mut code = 0u32;
        #[allow(clippy::needless_range_loop)] // `bits` is the code length, not just an index
        for bits in 1..=max_len {
            code <<= 1;
            levels.push((code, symbols.len() as u32, count[bits]));
            for (sym, &l) in lengths.iter().enumerate() {
                if l as usize == bits {
                    if bits as u32 <= FAST_BITS {
                        let sym_code = code + symbols.len() as u32 - levels[bits - 1].1;
                        let mut slot = reverse_bits(sym_code, bits as u32) as usize;
                        while slot < fast.len() {
                            fast[slot] = (sym as u16) << 4 | bits as u16;
                            slot += 1 << bits;
                        }
                    }
                    symbols.push(sym as u16);
                }
            }
            code += count[bits];
            if code as u64 > 1u64 << bits {
                return Err(corrupt("gzip: over-subscribed Huffman code"));
            }
        }
        Ok(Huffman {
            fast,
            levels,
            symbols,
        })
    }

    #[inline]
    fn decode<R: Read>(&self, r: &mut BitReader<R>) -> io::Result<u16> {
        if r.nbits < 15 {
            r.refill()?;
        }
        let e = self.fast[(r.bitbuf & ((1 << FAST_BITS) - 1)) as usize];
        if e != 0 {
            let len = (e & 15) as u32;
            if len > r.nbits {
                return Err(eof());
            }
            r.consume(len);
            return Ok(e >> 4);
        }
        let mut code = 0u32;
        for (k, &(first, sym_base, count)) in self.levels.iter().enumerate() {
            if k as u32 >= r.nbits {
                return Err(eof());
            }
            code = (code << 1) | ((r.bitbuf >> k) & 1) as u32;
            if code < first + count {
                r.consume(k as u32 + 1);
                return Ok(self.symbols[(sym_base + code - first) as usize]);
            }
        }
        Err(corrupt("gzip: invalid Huffman code"))
    }
}

fn fixed_tables() -> &'static (Huffman, Huffman) {
    static FIXED: OnceLock<(Huffman, Huffman)> = OnceLock::new();
    FIXED.get_or_init(|| {
        let litlen: Vec<u8> = (0..288).map(|sym| fixed_litlen(sym).1 as u8).collect();
        (
            Huffman::new(&litlen).expect("fixed litlen table"),
            Huffman::new(&[5u8; 30]).expect("fixed dist table"),
        )
    })
}

fn read_dynamic_tables<R: Read>(r: &mut BitReader<R>) -> io::Result<(Huffman, Huffman)> {
    let hlit = r.take_bits(5)? as usize + 257;
    let hdist = r.take_bits(5)? as usize + 1;
    let hclen = r.take_bits(4)? as usize + 4;
    let mut clen_lengths = [0u8; 19];
    for &pos in CLEN_ORDER.iter().take(hclen) {
        clen_lengths[pos] = r.take_bits(3)? as u8;
    }
    let clen = Huffman::new(&clen_lengths)?;
    let mut lengths = Vec::with_capacity(hlit + hdist);
    while lengths.len() < hlit + hdist {
        match clen.decode(r)? {
            sym @ 0..=15 => lengths.push(sym as u8),
            16 => {
                let last = *lengths
                    .last()
                    .ok_or_else(|| corrupt("gzip: repeat with no previous length"))?;
                let n = r.take_bits(2)? + 3;
                for _ in 0..n {
                    lengths.push(last);
                }
            }
            17 => {
                let n = r.take_bits(3)? + 3;
                lengths.resize(lengths.len() + n as usize, 0);
            }
            18 => {
                let n = r.take_bits(7)? + 11;
                lengths.resize(lengths.len() + n as usize, 0);
            }
            _ => return Err(corrupt("gzip: invalid code-length symbol")),
        }
    }
    if lengths.len() != hlit + hdist {
        return Err(corrupt("gzip: code lengths overflow the alphabets"));
    }
    let litlen = Huffman::new(&lengths[..hlit])?;
    let dist = Huffman::new(&lengths[hlit..])?;
    Ok((litlen, dist))
}

/// Decodes a Huffman-coded block's symbols into `out` until the block ends
/// (`true`) or `out` has no room left for a longest match (`false`).
fn inflate_codes<R: Read>(
    r: &mut BitReader<R>,
    out: &mut Vec<u8>,
    litlen: &Huffman,
    dist: &Huffman,
) -> io::Result<bool> {
    while out.len() + MAX_MATCH <= OUTPUT_CAP {
        let sym = litlen.decode(r)? as usize;
        if sym < 256 {
            out.push(sym as u8);
        } else if sym == 256 {
            return Ok(true);
        } else if sym <= 285 {
            let lc = sym - 257;
            let len = LEN_BASE[lc] as usize + r.take_bits(LEN_EXTRA[lc] as u32)? as usize;
            let dc = dist.decode(r)? as usize;
            if dc >= 30 {
                return Err(corrupt("gzip: invalid distance code"));
            }
            let d = DIST_BASE[dc] as usize + r.take_bits(DIST_EXTRA[dc] as u32)? as usize;
            // `out` keeps the whole window, so this is "before the start"
            if d > out.len() {
                return Err(corrupt("gzip: distance beyond output"));
            }
            // an overlapping match repeats its last `d` bytes
            let mut left = len;
            while left > 0 {
                let n = left.min(d);
                let from = out.len() - d;
                out.extend_from_within(from..from + n);
                left -= n;
            }
        } else {
            return Err(corrupt("gzip: invalid litlen symbol"));
        }
    }
    Ok(false)
}

/// Where a [`GzDecoder`] stands in its member.
enum Block {
    /// The gzip header comes next.
    Start,
    /// A block header comes next, or the trailer after the last block.
    Between,
    /// Inside a stored block, with this many bytes left.
    Stored(usize),
    /// Inside a fixed-Huffman block.
    Fixed,
    /// Inside a dynamic-Huffman block, with its litlen and distance codes.
    Dynamic(Box<(Huffman, Huffman)>),
    /// The trailer checked out: the member is complete.
    Done,
}

/// A streaming gzip decompressor: reading it yields the bytes of the one
/// gzip member its source holds, inflated a block at a time into a buffer
/// of 96 KiB (the 32 KiB window and up to 64 KiB of new output), so memory
/// does not grow with the member. When the member ends it checks the
/// trailer's CRC32 and `ISIZE` (a member of 4 GiB or more, whose `ISIZE`
/// wraps, fails) and that nothing follows it; a corrupt stream is an
/// `io::Error` naming the fault. The bytes handed out before an error are
/// not checked yet.
pub struct GzDecoder<R: Read> {
    bits: BitReader<R>,
    block: Block,
    /// Whether the current (or just finished) block is the member's last.
    last: bool,
    /// The last ≤ [`WINDOW`] bytes handed out, then the ones not yet.
    out: Vec<u8>,
    /// Index in `out` of the next byte to hand out.
    next: usize,
    crc: Crc32,
    /// Bytes inflated so far.
    total: u64,
}

impl<R: Read> GzDecoder<R> {
    /// A decoder of the gzip member `src` holds; nothing is read until the
    /// first `read`.
    pub fn new(src: R) -> Self {
        GzDecoder {
            bits: BitReader::new(src),
            block: Block::Start,
            last: false,
            out: Vec::with_capacity(OUTPUT_CAP),
            next: 0,
            crc: Crc32::new(),
            total: 0,
        }
    }

    /// Reads the gzip header (RFC 1952 §2.3), up to the first block.
    fn read_header(&mut self) -> io::Result<()> {
        let r = &mut self.bits;
        let mut byte = |what| r.take_bits(8).map_err(truncated(what));
        if byte("not a gzip stream (bad magic)")? != 0x1f
            || byte("not a gzip stream (bad magic)")? != 0x8b
        {
            return Err(corrupt("not a gzip stream (bad magic)"));
        }
        let method = byte("gzip: truncated stream")?;
        if method != 0x08 {
            return Err(corrupt(format!(
                "gzip: unsupported compression method {method}"
            )));
        }
        let flg = byte("gzip: truncated stream")?;
        for _ in 0..6 {
            byte("gzip: truncated stream")?; // MTIME, XFL, OS
        }
        if flg & 0x04 != 0 {
            // FEXTRA
            let xlen = byte("gzip: truncated FEXTRA")? | byte("gzip: truncated FEXTRA")? << 8;
            for _ in 0..xlen {
                byte("gzip: truncated FEXTRA")?;
            }
        }
        for flag in [0x08, 0x10] {
            // FNAME, FCOMMENT: zero-terminated strings
            if flg & flag != 0 {
                while byte("gzip: truncated header string")? != 0 {}
            }
        }
        if flg & 0x02 != 0 {
            byte("gzip: truncated stream")?; // FHCRC
            byte("gzip: truncated stream")?;
        }
        Ok(())
    }

    /// Checks the trailer of a member whose last block just ended.
    fn read_trailer(&mut self) -> io::Result<()> {
        let r = &mut self.bits;
        r.align_byte();
        let mut word = || r.take_bits(32).map_err(truncated("gzip: truncated stream"));
        let (want_crc, want_isize) = (word()?, word()?);
        if self.crc.value() != want_crc {
            return Err(corrupt("gzip: CRC32 mismatch"));
        }
        if self.total != u64::from(want_isize) {
            return Err(corrupt("gzip: ISIZE mismatch"));
        }
        if !self.bits.at_end()? {
            return Err(corrupt("gzip: data after the end of the member"));
        }
        Ok(())
    }

    /// Slides the window and inflates until the buffer is full or the
    /// member ends.
    fn inflate_more(&mut self) -> io::Result<()> {
        let cut = self.out.len().saturating_sub(WINDOW);
        self.out.drain(..cut);
        let start = self.out.len();
        while self.out.len() + MAX_MATCH <= OUTPUT_CAP {
            let r = &mut self.bits;
            match &mut self.block {
                Block::Start => {
                    self.read_header()?;
                    self.block = Block::Between;
                }
                Block::Between if self.last => break,
                Block::Between => {
                    self.last = r.take_bits(1)? == 1;
                    self.block = match r.take_bits(2)? {
                        0b00 => {
                            r.align_byte();
                            let len = r.take_bits(16)?;
                            if r.take_bits(16)? != !len & 0xFFFF {
                                return Err(corrupt("gzip: stored block LEN/NLEN mismatch"));
                            }
                            Block::Stored(len as usize)
                        }
                        0b01 => Block::Fixed,
                        0b10 => Block::Dynamic(Box::new(read_dynamic_tables(r)?)),
                        _ => return Err(corrupt("gzip: reserved block type")),
                    };
                }
                Block::Stored(0) => self.block = Block::Between,
                Block::Stored(left) => {
                    let room = OUTPUT_CAP - self.out.len();
                    *left -= r.copy_to(&mut self.out, (*left).min(room))?;
                }
                Block::Fixed => {
                    let (litlen, dist) = fixed_tables();
                    if inflate_codes(r, &mut self.out, litlen, dist)? {
                        self.block = Block::Between;
                    }
                }
                Block::Dynamic(codes) => {
                    if inflate_codes(r, &mut self.out, &codes.0, &codes.1)? {
                        self.block = Block::Between;
                    }
                }
                Block::Done => break,
            }
        }
        self.crc.update(&self.out[start..]);
        self.total += (self.out.len() - start) as u64;
        self.next = start;
        if self.last && matches!(self.block, Block::Between) {
            self.read_trailer()?;
            self.block = Block::Done;
        }
        Ok(())
    }
}

impl<R: Read> Read for GzDecoder<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.next == self.out.len() {
            if buf.is_empty() || matches!(self.block, Block::Done) {
                return Ok(0);
            }
            self.inflate_more()?;
        }
        let n = buf.len().min(self.out.len() - self.next);
        buf[..n].copy_from_slice(&self.out[self.next..self.next + n]);
        self.next += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original byte-at-a-time encoder: rebuilds its hash chains from
    /// the history every batch and writes each output byte as it forms.
    /// Kept as the oracle the fast encoder must match byte for byte.
    struct Reference {
        out: Vec<u8>,
        hist: Vec<u8>,
        pending: Vec<u8>,
        bitbuf: u64,
        nbits: u32,
    }

    impl Reference {
        fn new() -> Self {
            let mut r = Reference {
                out: vec![0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff],
                hist: Vec::new(),
                pending: Vec::new(),
                bitbuf: 0,
                nbits: 0,
            };
            r.put_bits(1, 1);
            r.put_bits(0b01, 2);
            r
        }

        fn put_bits(&mut self, value: u32, n: u32) {
            self.bitbuf |= (value as u64) << self.nbits;
            self.nbits += n;
            while self.nbits >= 8 {
                self.out.push((self.bitbuf & 0xFF) as u8);
                self.bitbuf >>= 8;
                self.nbits -= 8;
            }
        }

        fn put_symbol(&mut self, sym: usize) {
            let (code, bits) = fixed_litlen(sym);
            self.put_bits(reverse_bits(code, bits), bits);
        }

        fn write(&mut self, data: &[u8]) {
            self.pending.extend_from_slice(data);
            if self.pending.len() >= BATCH {
                self.compress_pending();
            }
        }

        fn compress_pending(&mut self) {
            if self.pending.is_empty() {
                return;
            }
            let base = self.hist.len();
            let mut window = std::mem::take(&mut self.hist);
            window.append(&mut self.pending);
            let mut head = vec![usize::MAX; 1 << HASH_BITS];
            let mut prev = vec![usize::MAX; window.len()];
            let insert = |head: &mut Vec<usize>, prev: &mut Vec<usize>, w: &[u8], i: usize| {
                if i + MIN_MATCH <= w.len() {
                    let h = hash3(w, i);
                    prev[i] = head[h];
                    head[h] = i;
                }
            };
            for i in 0..base {
                insert(&mut head, &mut prev, &window, i);
            }
            let mut i = base;
            while i < window.len() {
                let mut best_len = 0usize;
                let mut best_dist = 0usize;
                if i + MIN_MATCH <= window.len() {
                    let limit = (window.len() - i).min(MAX_MATCH);
                    let mut cand = head[hash3(&window, i)];
                    let mut chain = 0;
                    while cand != usize::MAX && chain < CHAIN_LIMIT {
                        let dist = i - cand;
                        if dist > WINDOW {
                            break;
                        }
                        let mut l = 0usize;
                        while l < limit && window[cand + l] == window[i + l] {
                            l += 1;
                        }
                        if l > best_len {
                            best_len = l;
                            best_dist = dist;
                            if l == limit {
                                break;
                            }
                        }
                        cand = prev[cand];
                        chain += 1;
                    }
                }
                if best_len >= MIN_MATCH {
                    let mut lc = 28;
                    while LEN_BASE[lc] as usize > best_len {
                        lc -= 1;
                    }
                    self.put_symbol(257 + lc);
                    if LEN_EXTRA[lc] > 0 {
                        self.put_bits(
                            (best_len - LEN_BASE[lc] as usize) as u32,
                            LEN_EXTRA[lc] as u32,
                        );
                    }
                    let mut dc = 29;
                    while DIST_BASE[dc] as usize > best_dist {
                        dc -= 1;
                    }
                    self.put_bits(reverse_bits(dc as u32, 5), 5);
                    if DIST_EXTRA[dc] > 0 {
                        self.put_bits(
                            (best_dist - DIST_BASE[dc] as usize) as u32,
                            DIST_EXTRA[dc] as u32,
                        );
                    }
                    for k in i..i + best_len {
                        insert(&mut head, &mut prev, &window, k);
                    }
                    i += best_len;
                } else {
                    self.put_symbol(window[i] as usize);
                    insert(&mut head, &mut prev, &window, i);
                    i += 1;
                }
            }
            let keep = window.len().min(WINDOW);
            self.hist = window[window.len() - keep..].to_vec();
        }

        fn finish(mut self, input: &[u8]) -> Vec<u8> {
            self.compress_pending();
            self.put_symbol(256);
            if self.nbits > 0 {
                self.put_bits(0, 8 - self.nbits);
            }
            // bitwise CRC32, independent of the sliced tables
            let mut c = 0xFFFF_FFFFu32;
            for &b in input {
                c ^= b as u32;
                for _ in 0..8 {
                    c = if c & 1 == 1 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            self.out.extend_from_slice(&(!c).to_le_bytes());
            self.out
                .extend_from_slice(&(input.len() as u32).to_le_bytes());
            self.out
        }
    }

    /// Feeds `data` to both encoders in the same writes, flushing after
    /// the writes `flush_at` selects, and returns (fast, reference).
    fn both(data: &[u8], chunks: &[usize], flush_at: impl Fn(usize) -> bool) -> (Vec<u8>, Vec<u8>) {
        let mut fast = GzEncoder::new(Vec::new()).expect("header");
        let mut reference = Reference::new();
        let mut at = 0;
        for (k, &n) in chunks.iter().cycle().enumerate() {
            if at == data.len() {
                break;
            }
            let piece = &data[at..(at + n).min(data.len())];
            fast.write_all(piece).expect("write");
            reference.write(piece);
            if flush_at(k) {
                fast.flush().expect("flush");
                reference.compress_pending();
            }
            at += piece.len();
        }
        (fast.finish().expect("finish"), reference.finish(data))
    }

    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    /// Inflates a member held in memory through [`GzDecoder`].
    fn inflate(packed: &[u8]) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        GzDecoder::new(packed).read_to_end(&mut out).map(|_| out)
    }

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let mut enc = GzEncoder::new(Vec::new()).expect("header");
        enc.write_all(data).expect("write");
        let packed = enc.finish().expect("finish");
        assert!(is_gzip(&packed));
        inflate(&packed).expect("inflate")
    }

    #[test]
    fn crc32_matches_the_bitwise_definition() {
        for data in [&b""[..], b"a", b"123456789", &noise(1000, 7)] {
            let mut sliced = Crc32::new();
            sliced.update(data);
            let mut c = 0xFFFF_FFFFu32;
            for &b in data {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            assert_eq!(sliced.value(), !c);
        }
        let mut check = Crc32::new();
        check.update(b"123456789");
        assert_eq!(check.value(), 0xCBF4_3926, "the standard check value");
    }

    #[test]
    fn code_tables_match_the_rfc_search() {
        for (len, &got) in LEN_CODES.iter().enumerate().skip(MIN_MATCH) {
            let lc = (0..29)
                .rev()
                .find(|&c| LEN_BASE[c] as usize <= len)
                .unwrap();
            let (code, n) = fixed_litlen(257 + lc);
            let want = reverse_bits(code, n) | ((len - LEN_BASE[lc] as usize) as u32) << n;
            assert_eq!(got, (want, n + LEN_EXTRA[lc] as u32), "len {len}");
        }
        for dist in 1..=WINDOW {
            let dc = (0..30)
                .rev()
                .find(|&c| DIST_BASE[c] as usize <= dist)
                .unwrap();
            let want = reverse_bits(dc as u32, 5) | ((dist - DIST_BASE[dc] as usize) as u32) << 5;
            assert_eq!(
                dist_code(dist),
                (want, 5 + DIST_EXTRA[dc] as u32),
                "dist {dist}"
            );
        }
    }

    #[test]
    fn matches_the_reference_encoder_byte_for_byte() {
        let mut json = String::new();
        for i in 0..5_000u64 {
            json.push_str(&format!(
                ",\n{{\"t\":{}.5,\"node\":{},\"tag\":\"{}\",\"kind\":\"send\",\"elements\":{}}}",
                i * 37,
                i % 16,
                (i << 60) | (i % 5),
                i % 7
            ));
        }
        let runs: Vec<u8> = (0..200_000usize)
            .map(|i| if i % 1000 < 600 { b'a' } else { (i % 3) as u8 })
            .collect();
        let mixed: Vec<u8> = noise(40_000, 3)
            .into_iter()
            .chain(json.bytes().take(100_000))
            .chain(noise(40_000, 3))
            .collect();
        let cases: [(&str, &[u8]); 5] = [
            ("empty", b""),
            ("json", json.as_bytes()),
            ("runs", &runs),
            ("noise then repeats", &mixed),
            ("short", b"abcabcabcabcabcabc"),
        ];
        for (name, data) in cases {
            for (chunks, every) in [
                (vec![data.len().max(1)], usize::MAX),
                (vec![7], 97),
                (vec![1, 300, 65_536, 13], 3),
                (vec![70_000], 1),
                (vec![2], usize::MAX),
            ] {
                let (fast, reference) = both(data, &chunks, |k| (k + 1) % every == 0);
                assert!(
                    fast == reference,
                    "{name}, chunks {chunks:?}, flush every {every}"
                );
                assert_eq!(inflate(&fast).expect("inflate"), data, "{name}");
            }
        }
    }

    #[test]
    fn rebasing_positions_does_not_move_a_byte() {
        // Past REBASE_AT (1 MiB under test) twice, in batch-sized and in
        // odd-sized writes.
        let data: Vec<u8> = (0..2_600_000usize)
            .map(|i| {
                if i % 50_000 < 30_000 {
                    (i % 251) as u8 ^ (i / 7919) as u8
                } else {
                    (i * 31 % 256) as u8
                }
            })
            .collect();
        for chunks in [vec![BATCH], vec![100_003]] {
            let (fast, reference) = both(&data, &chunks, |_| false);
            assert!(fast == reference, "chunks {chunks:?}");
        }
    }

    #[test]
    fn roundtrips_empty_and_tiny_inputs() {
        assert_eq!(roundtrip(b""), b"");
        assert_eq!(roundtrip(b"a"), b"a");
        assert_eq!(roundtrip(b"abcabcabcabc"), b"abcabcabcabc");
    }

    #[test]
    fn roundtrips_repetitive_json_and_compresses_it() {
        let mut line = String::new();
        for i in 0..5000 {
            line.push_str(&format!(
                "{{\"t\":{}.5,\"node\":{},\"kind\":\"send\",\"elements\":128}}\n",
                i * 37,
                i % 16
            ));
        }
        let mut enc = GzEncoder::new(Vec::new()).expect("header");
        enc.write_all(line.as_bytes()).expect("write");
        let packed = enc.finish().expect("finish");
        assert_eq!(inflate(&packed).expect("inflate"), line.as_bytes());
        assert!(
            packed.len() * 5 < line.len(),
            "repetitive input should compress >5x, got {} -> {}",
            line.len(),
            packed.len()
        );
    }

    #[test]
    fn roundtrips_incompressible_bytes_across_batches() {
        let data = noise(300_000, 0x2545F491_4F6CDD1D);
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn roundtrips_required_edge_cases() {
        // empty input
        assert_eq!(roundtrip(b""), b"");
        // a single byte
        assert_eq!(roundtrip(b"\x00"), b"\x00");
        assert_eq!(roundtrip(b"z"), b"z");
        // incompressible (xorshift) random data
        let noise = noise(4096, 0x9E3779B9_7F4A7C15);
        assert_eq!(roundtrip(&noise), noise);
        // a stream comfortably past 64 KiB (crosses the compress batch)
        let big: Vec<u8> = (0..100_000usize).map(|i| (i % 251) as u8).collect();
        assert!(big.len() > 64 * 1024);
        assert_eq!(roundtrip(&big), big);
    }

    #[test]
    fn byte_totals_track_the_stream() {
        let data = b"some bytes some bytes some bytes";
        let mut enc = GzEncoder::new(Vec::new()).expect("header");
        enc.write_all(data).expect("write");
        enc.flush().expect("flush");
        assert_eq!(enc.total_in(), data.len() as u64);
        let mid_out = enc.total_out();
        assert!(mid_out >= 10, "header bytes are counted");
        let packed = enc.finish().expect("finish");
        assert!(packed.len() as u64 >= mid_out);
        assert_eq!(inflate(&packed).expect("inflate"), data);
    }

    #[test]
    fn chunked_writes_match_one_shot() {
        let data: Vec<u8> = (0..100_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut enc = GzEncoder::new(Vec::new()).expect("header");
        for chunk in data.chunks(7) {
            enc.write_all(chunk).expect("write");
        }
        let packed = enc.finish().expect("finish");
        assert_eq!(inflate(&packed).expect("inflate"), data);
    }

    #[test]
    fn drop_finishes_the_stream() {
        let mut out = Vec::new();
        {
            let mut enc = GzEncoder::new(&mut out).expect("header");
            enc.write_all(b"dropped, not finished").expect("write");
        }
        assert_eq!(inflate(&out).expect("inflate"), b"dropped, not finished");
    }

    #[test]
    fn inflates_a_stored_block() {
        // hand-built gzip member with one stored block: "hi"
        let mut data = vec![0x1f, 0x8b, 0x08, 0, 0, 0, 0, 0, 0, 0xff];
        data.push(0b001); // BFINAL=1, BTYPE=00
        data.extend_from_slice(&2u16.to_le_bytes());
        data.extend_from_slice(&(!2u16).to_le_bytes());
        data.extend_from_slice(b"hi");
        let mut crc = Crc32::new();
        crc.update(b"hi");
        data.extend_from_slice(&crc.value().to_le_bytes());
        data.extend_from_slice(&2u32.to_le_bytes());
        assert_eq!(inflate(&data).expect("inflate"), b"hi");
    }

    #[test]
    fn inflates_a_dynamic_block() {
        // Hand-built dynamic block encoding "A": litlen lengths give only
        // 'A' (65) and EOB (256) one-bit codes; one unused distance code.
        struct W {
            bytes: Vec<u8>,
            buf: u64,
            n: u32,
        }
        impl W {
            fn put(&mut self, v: u32, n: u32) {
                self.buf |= (v as u64) << self.n;
                self.n += n;
                while self.n >= 8 {
                    self.bytes.push((self.buf & 0xFF) as u8);
                    self.buf >>= 8;
                    self.n -= 8;
                }
            }
            fn done(mut self) -> Vec<u8> {
                if self.n > 0 {
                    self.bytes.push((self.buf & 0xFF) as u8);
                }
                self.bytes
            }
        }
        let mut w = W {
            bytes: Vec::new(),
            buf: 0,
            n: 0,
        };
        w.put(1, 1); // BFINAL
        w.put(0b10, 2); // dynamic
        w.put(0, 5); // HLIT = 257
        w.put(0, 5); // HDIST = 1
        w.put(15, 4); // HCLEN = 19
                      // code-length code lengths in CLEN_ORDER; syms 18 (pos 2) and 1
                      // (pos 17) get length 1 -> canonical codes: sym1=0, sym18=1
        for pos in 0..19 {
            w.put(if pos == 2 || pos == 17 { 1 } else { 0 }, 3);
        }
        // litlen lengths: 65 zeros, len-1, 190 zeros (138 + 52), len-1
        w.put(1, 1); // sym18
        w.put(65 - 11, 7);
        w.put(0, 1); // sym1 -> 'A' has length 1
        w.put(1, 1); // sym18
        w.put(138 - 11, 7);
        w.put(1, 1); // sym18
        w.put(52 - 11, 7);
        w.put(0, 1); // sym1 -> EOB has length 1
                     // one distance code of length 1 (never used)
        w.put(0, 1); // sym1
                     // data: 'A' (code 0), EOB (code 1)
        w.put(0, 1);
        w.put(1, 1);
        let body = w.done();

        let mut data = vec![0x1f, 0x8b, 0x08, 0, 0, 0, 0, 0, 0, 0xff];
        data.extend_from_slice(&body);
        let mut crc = Crc32::new();
        crc.update(b"A");
        data.extend_from_slice(&crc.value().to_le_bytes());
        data.extend_from_slice(&1u32.to_le_bytes());
        assert_eq!(inflate(&data).expect("inflate"), b"A");
    }

    #[test]
    fn rejects_corrupt_streams() {
        let mut enc = GzEncoder::new(Vec::new()).expect("header");
        enc.write_all(b"payload bytes here").expect("write");
        let mut packed = enc.finish().expect("finish");
        assert!(inflate(b"no").is_err());
        assert!(inflate(&packed[..12]).is_err());
        let last = packed.len() - 1;
        packed[last] ^= 0xFF; // corrupt ISIZE
        assert!(inflate(&packed).is_err());
    }

    #[test]
    fn output_is_bounded_by_the_trailer() {
        let data: Vec<u8> = (0..50_000usize).map(|i| (i % 13) as u8).collect();
        let mut packed = {
            let mut enc = GzEncoder::new(Vec::new()).expect("header");
            enc.write_all(&data).expect("write");
            enc.finish().expect("finish")
        };
        let at = packed.len() - 4;
        // a short ISIZE and a huge one both fail at the trailer (what
        // they may allocate is bounded in `tests/gz_codec.rs`)
        for isize in [1000, u32::MAX] {
            packed[at..].copy_from_slice(&isize.to_le_bytes());
            let err = inflate(&packed).expect_err("wrong ISIZE").to_string();
            assert!(err.contains("ISIZE mismatch"), "{isize}: {err}");
        }
        // a stored block claiming more bytes than the stream holds
        let mut stored = vec![0x1f, 0x8b, 0x08, 0, 0, 0, 0, 0, 0, 0xff, 0b001];
        stored.extend_from_slice(&u16::MAX.to_le_bytes());
        stored.extend_from_slice(&0u16.to_le_bytes());
        stored.extend_from_slice(&[0; 8]);
        let err = inflate(&stored).expect_err("huge LEN").to_string();
        assert!(err.contains("stored block"), "{err}");
    }

    #[test]
    fn overlapping_matches_repeat_the_window() {
        // distance 1 and 3 runs longer than their distance
        let mut data = vec![b'x'; 1000];
        data.extend(b"abc".iter().cycle().take(1000));
        assert_eq!(roundtrip(&data), data);
    }

    /// A source that hands out one compressed byte per read.
    struct OneByte<'a>(&'a [u8]);

    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.0.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// Inflates `packed` from one-byte reads into 333-byte reads.
    fn trickle(packed: &[u8]) -> Vec<u8> {
        let mut dec = GzDecoder::new(OneByte(packed));
        let (mut out, mut chunk) = (Vec::new(), [0u8; 333]);
        loop {
            let n = dec.read(&mut chunk).expect("inflates");
            if n == 0 {
                return out;
            }
            out.extend_from_slice(&chunk[..n]);
        }
    }

    #[test]
    fn streaming_reads_any_input_and_output_split() {
        // Huffman-coded: noise, then repeats, past several output buffers
        let data: Vec<u8> = noise(50_000, 11)
            .into_iter()
            .chain((0..400_000usize).map(|i| (i % 251) as u8))
            .collect();
        let mut enc = GzEncoder::new(Vec::new()).expect("header");
        enc.write_all(&data).expect("write");
        let packed = enc.finish().expect("finish");
        assert!(trickle(&packed) == data);
        // two stored blocks, each larger than one output buffer's room
        let stored = noise(120_000, 5);
        let mut member = vec![0x1f, 0x8b, 0x08, 0, 0, 0, 0, 0, 0, 0xff];
        for (last, block) in [(0u8, &stored[..60_000]), (1, &stored[60_000..])] {
            let len = block.len() as u16;
            member.push(last);
            member.extend_from_slice(&len.to_le_bytes());
            member.extend_from_slice(&(!len).to_le_bytes());
            member.extend_from_slice(block);
        }
        let mut crc = Crc32::new();
        crc.update(&stored);
        member.extend_from_slice(&crc.value().to_le_bytes());
        member.extend_from_slice(&(stored.len() as u32).to_le_bytes());
        assert!(trickle(&member) == stored);
        // the decoder checks that nothing follows the member
        let mut trailing = packed.clone();
        trailing.push(0);
        let err = GzDecoder::new(&trailing[..])
            .read_to_end(&mut Vec::new())
            .expect_err("trailing byte");
        assert!(err.to_string().contains("after the end"), "{err}");
    }
}
