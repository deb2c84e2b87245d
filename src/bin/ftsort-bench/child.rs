//! Runs one child process and measures it from outside: wall time from
//! spawn to exit, the arrival time of every stderr line, and the child's
//! own CPU time and peak RSS from `wait4`'s resource usage.

use std::io::{BufRead, BufReader, Read};
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A child still running after this long is killed and its op fails, so
/// a hung program (say, a deadlocked barrier) cannot hang the benchmark.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// What one finished child did.
pub struct Outcome {
    pub start: Instant,
    pub wall_s: f64,
    /// User plus system CPU time of the child.
    pub cpu_s: f64,
    pub max_rss_kb: u64,
    /// Raw `wait4` status; 0 means the child exited with code 0.
    pub status: i32,
    pub stdout: String,
    /// Each stderr line with its arrival time in seconds after spawn.
    pub stderr: Vec<(f64, String)>,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of Linux: two timevals, then fourteen longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

/// `siginfo_t`: 128 bytes, filled by `waitid` and not read here.
#[repr(C, align(8))]
struct SigInfo([u8; 128]);

const P_PID: c_int = 1;
const WEXITED: c_int = 4;
const WNOWAIT: c_int = 0x0100_0000;
const SIGKILL: c_int = 9;

extern "C" {
    fn waitid(idtype: c_int, id: u32, infop: *mut SigInfo, options: c_int) -> c_int;
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

fn seconds(t: &Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 * 1e-6
}

/// Spawns `program args`, collects its output, and reaps it with `wait4`.
pub fn run(program: &Path, args: &[String]) -> std::io::Result<Outcome> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let pid = child.id() as c_int;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let stderr = child.stderr.take().expect("stderr is piped");
    let exited = Mutex::new(false);
    let wake = Condvar::new();
    std::thread::scope(|s| {
        let out = s.spawn(move || {
            let mut buf = Vec::new();
            let _ = stdout.read_to_end(&mut buf);
            String::from_utf8_lossy(&buf).into_owned()
        });
        let err = s.spawn(move || {
            let mut reader = BufReader::new(stderr);
            let mut lines = Vec::new();
            let mut buf = Vec::new();
            while reader.read_until(b'\n', &mut buf).is_ok_and(|n| n > 0) {
                let at = start.elapsed().as_secs_f64();
                lines.push((at, String::from_utf8_lossy(&buf).trim_end().to_string()));
                buf.clear();
            }
            lines
        });
        s.spawn(|| {
            let done = exited.lock().expect("watchdog lock poisoned");
            let (done, _) = wake
                .wait_timeout_while(done, CHILD_TIMEOUT, |done| !*done)
                .expect("watchdog lock poisoned");
            if !*done {
                // SAFETY: plain syscall. The child is not reaped until
                // `exited` is set under this lock, so `pid` still names it.
                unsafe { kill(pid, SIGKILL) };
            }
        });
        // Wait for the exit without reaping: the zombie keeps `pid`
        // reserved while the watchdog may still signal it.
        let mut info = SigInfo([0; 128]);
        let waited = loop {
            // SAFETY: `info` is a writable siginfo_t-sized buffer.
            if unsafe { waitid(P_PID, pid as u32, &mut info, WEXITED | WNOWAIT) } == 0 {
                break Ok(());
            }
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                break Err(e);
            }
        };
        let wall_s = start.elapsed().as_secs_f64();
        *exited.lock().expect("watchdog lock poisoned") = true;
        wake.notify_all();
        if waited.is_err() {
            // SAFETY: plain syscall on our own unreaped child.
            unsafe { kill(pid, SIGKILL) };
        }
        let mut status: c_int = 0;
        let mut usage = Rusage::default();
        // SAFETY: both out-pointers are valid for writes; the child is ours.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) } == pid;
        let stdout = out.join().expect("stdout reader panicked");
        let stderr = err.join().expect("stderr reader panicked");
        waited?;
        if !reaped {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Outcome {
            start,
            wall_s,
            cpu_s: seconds(&usage.utime) + seconds(&usage.stime),
            max_rss_kb: usage.maxrss as u64,
            status,
            stdout,
            stderr,
        })
    })
}
