//! Structured leveled logging: JSON lines through a pluggable writer.
//!
//! Ad-hoc `eprintln!` diagnostics suit a person at a terminal, not a
//! harness that collects a run's logs, which must be machine-parseable
//! and level-filtered (`ftsort-cli --log-out`). This module
//! is the substrate: one process-global logger (install with [`init`]),
//! an atomic [`Level`] threshold, and one JSON object per line:
//!
//! ```json
//! {"ts":1754640000.123,"level":"info","target":"ftsort::cli","msg":"sort done","n":1024}
//! ```
//!
//! `ts` is the wall clock (seconds since the Unix epoch, millisecond
//! precision) — wall time, *not* the simulation's virtual clock, so log
//! records never feed back into pricing. Like the metrics registry, the
//! logger is invisible to the simulation: when nothing is installed,
//! [`log`] is a single `None` check.
//!
//! Unlike metric recording, emitting a log line allocates (it formats
//! JSON) and takes the writer lock — logging is for low-rate lifecycle
//! events, counters are for hot paths.

use super::json::{write_str, JsonValue};
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The run cannot proceed correctly.
    Error,
    /// Something surprising that does not stop the run.
    Warn,
    /// Lifecycle events (run started, artifacts written).
    Info,
    /// Detail useful when debugging a run.
    Debug,
    /// Very chatty diagnostics.
    Trace,
}

impl Level {
    /// The lowercase name used in log records and `--log-level` values.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a `--log-level` value (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            3 => Level::Debug,
            _ => Level::Trace,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed field value for structured records.
#[derive(Clone, Copy, Debug)]
pub enum Value<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered with `{}` — `NaN`/infinities become `null`).
    F64(f64),
    /// String (JSON-escaped).
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

struct Logger {
    level: AtomicU8,
    out: Mutex<Box<dyn Write + Send>>,
}

static LOGGER: OnceLock<Logger> = OnceLock::new();

/// Installs the process-global logger writing to `out` at `level`.
/// The first call wins the writer; later calls only update the level
/// (the logger, like the metrics registry, is install-once). Returns
/// whether this call installed the writer.
pub fn init(level: Level, out: Box<dyn Write + Send>) -> bool {
    let mut installed = false;
    let logger = LOGGER.get_or_init(|| {
        installed = true;
        Logger {
            level: AtomicU8::new(level as u8),
            out: Mutex::new(out),
        }
    });
    if !installed {
        logger.level.store(level as u8, Ordering::Relaxed);
    }
    installed
}

/// Installs the global logger writing JSON lines to stderr.
pub fn init_stderr(level: Level) -> bool {
    init(level, Box::new(std::io::stderr()))
}

/// Adjusts the level threshold of an installed logger (no-op otherwise).
pub fn set_level(level: Level) {
    if let Some(l) = LOGGER.get() {
        l.level.store(level as u8, Ordering::Relaxed);
    }
}

/// The installed logger's threshold, or `None` when logging is off.
pub fn level() -> Option<Level> {
    LOGGER
        .get()
        .map(|l| Level::from_u8(l.level.load(Ordering::Relaxed)))
}

/// Whether a record at `lvl` would currently be written.
pub fn enabled(lvl: Level) -> bool {
    level().is_some_and(|threshold| lvl <= threshold)
}

/// Formats one record as a JSON line (without trailing newline).
fn render(ts: f64, lvl: Level, target: &str, msg: &str, fields: &[(&str, Value<'_>)]) -> String {
    use std::fmt::Write as _;
    let mut line = String::with_capacity(96 + msg.len());
    let _ = write!(line, "{{\"ts\":{ts:.3},\"level\":\"{lvl}\",\"target\":");
    write_str(&mut line, target);
    line.push_str(",\"msg\":");
    write_str(&mut line, msg);
    for (k, v) in fields {
        line.push(',');
        write_str(&mut line, k);
        line.push(':');
        match v {
            Value::U64(n) => n.write(&mut line),
            Value::I64(n) => {
                let _ = write!(line, "{n}");
            }
            Value::F64(f) if f.is_finite() => f.write(&mut line),
            Value::F64(_) => line.push_str("null"),
            Value::Str(s) => write_str(&mut line, s),
            Value::Bool(b) => b.write(&mut line),
        }
    }
    line.push('}');
    line
}

fn wall_clock() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// Emits a structured record if a logger is installed and `lvl` passes
/// the threshold; silently drops it otherwise.
pub fn log(lvl: Level, target: &str, msg: &str, fields: &[(&str, Value<'_>)]) {
    let Some(logger) = LOGGER.get() else { return };
    if lvl > Level::from_u8(logger.level.load(Ordering::Relaxed)) {
        return;
    }
    let line = render(wall_clock(), lvl, target, msg, fields);
    if let Ok(mut out) = logger.out.lock() {
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &str, msg: &str, fields: &[(&str, Value<'_>)]) {
    log(Level::Info, target, msg, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &str, msg: &str, fields: &[(&str, Value<'_>)]) {
    log(Level::Warn, target, msg, fields);
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, msg: &str, fields: &[(&str, Value<'_>)]) {
    log(Level::Error, target, msg, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &str, msg: &str, fields: &[(&str, Value<'_>)]) {
    log(Level::Debug, target, msg, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("bogus"), None);
        assert!(
            Level::Error < Level::Trace,
            "severity orders most-severe-first"
        );
        assert_eq!(Level::Debug.to_string(), "debug");
        for l in [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::from_u8(l as u8), l);
        }
    }

    #[test]
    fn render_is_valid_json_with_typed_fields() {
        let line = render(
            1234.5678,
            Level::Info,
            "hypercube::test",
            "hello \"world\"\n",
            &[
                ("n", Value::U64(1024)),
                ("delta", Value::I64(-3)),
                ("ratio", Value::F64(0.5)),
                ("nan", Value::F64(f64::NAN)),
                ("engine", Value::Str("par")),
                ("ok", Value::Bool(true)),
            ],
        );
        let parsed = crate::obs::json::Json::parse(&line).expect("record parses as JSON");
        assert_eq!(
            parsed.get("level").and_then(crate::obs::json::Json::as_str),
            Some("info")
        );
        assert_eq!(
            parsed.get("msg").and_then(crate::obs::json::Json::as_str),
            Some("hello \"world\"\n")
        );
        assert_eq!(
            parsed.get("n").and_then(crate::obs::json::Json::as_u64),
            Some(1024)
        );
        assert_eq!(
            parsed
                .get("engine")
                .and_then(crate::obs::json::Json::as_str),
            Some("par")
        );
        assert!(
            parsed.get("nan").is_some(),
            "non-finite floats render as null"
        );
        let ts = parsed
            .get("ts")
            .and_then(crate::obs::json::Json::as_f64)
            .unwrap();
        assert!(
            (ts - 1234.568).abs() < 1e-9,
            "ts keeps millisecond precision"
        );
    }

    #[test]
    fn uninstalled_logger_is_silent_and_disabled() {
        // These run before (or regardless of) any init in this binary's
        // other tests only if nothing installed a logger; `enabled` must
        // simply agree with `level()` either way.
        assert_eq!(enabled(Level::Error), level().is_some());
    }

    #[test]
    fn shared_sink_records_filter_by_level() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct Sink(Arc<Mutex<Vec<u8>>>);
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let sink = Sink::default();
        let installed = init(Level::Info, Box::new(sink.clone()));
        // Whatever test ran first owns the writer; level updates apply.
        set_level(Level::Info);
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        log(Level::Debug, "t", "dropped", &[]);
        log(Level::Info, "t", "kept", &[]);
        if installed {
            // We own the writer, so the records landed in our sink.
            let bytes = sink.0.lock().unwrap().clone();
            let text = String::from_utf8(bytes).unwrap();
            assert!(!text.contains("dropped"));
            assert!(text.contains("kept"));
            for line in text.lines() {
                crate::obs::json::Json::parse(line).expect("every log line is JSON");
            }
        }
    }
}
