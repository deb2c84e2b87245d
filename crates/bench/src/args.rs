//! The one argument parser of every binary in the workspace.
//!
//! A binary declares its flags once, as tables of [`Flag`]s: name, value
//! placeholder (empty for a switch) and help line. [`Args::parse`] reads
//! the command line against them, and typed getters read each value with
//! a range and a default. Each problem (an unknown flag, a stray word, a
//! missing value, a value that does not parse or lies outside its range)
//! is recorded, and [`Args::finish`] exits with status 2 on the first one,
//! naming the flag and printing the declared usage. So a binary reads all
//! its flags and calls `finish` before it sorts or writes anything.

use hypercube::address::MAX_RUN_DIM;
use hypercube::sim::{EngineKind, LinkModel};
use std::cell::RefCell;
use std::fmt::Debug;
use std::ops::{RangeBounds, RangeInclusive};
use std::str::FromStr;

/// One declared flag: its name (with the leading `--`), the placeholder
/// of its value (empty for a switch, which takes none) and its help line.
pub type Flag = (&'static str, &'static str, &'static str);

/// `--engine`, read with [`engine`].
#[rustfmt::skip]
pub const ENGINE: Flag = ("--engine", "seq|par", "simulation engine, same results (default seq)");

/// `--key-type`, read with [`KeyType::parse`](ftsort::seq::KeyType::parse).
pub const KEY_TYPE: Flag = ("--key-type", "u32|u64|i64|pair", "key type (default i64)");

/// `--link-model`, read with [`link_model`].
#[rustfmt::skip]
pub const LINK_MODEL: Flag =
    ("--link-model", "uncontended|contended", "link pricing (default uncontended)");

/// The cube dimensions a flag accepts, from `min` to [`MAX_RUN_DIM`]: one
/// bound for every binary and the run-file reader.
pub fn dims(min: usize) -> RangeInclusive<usize> {
    min..=MAX_RUN_DIM
}

/// `s` as a `T` inside `range`.
pub fn number<T, R>(s: &str, range: &R) -> Result<T, String>
where
    T: FromStr + PartialOrd + Debug,
    R: RangeBounds<T> + Debug,
{
    match s.parse() {
        Ok(v) if range.contains(&v) => Ok(v),
        Ok(v) => Err(format!("{v:?} is outside {range:?}")),
        Err(_) => Err(format!("bad value '{s}'")),
    }
}

/// An `--engine` value.
pub fn engine(s: &str) -> Result<EngineKind, String> {
    EngineKind::parse(s).ok_or_else(|| format!("unknown engine '{s}' (seq|par)"))
}

/// A `--link-model` value.
pub fn link_model(s: &str) -> Result<LinkModel, String> {
    LinkModel::parse(s).ok_or_else(|| format!("unknown link model '{s}' (uncontended|contended)"))
}

/// A command line read against a binary's declaration.
pub struct Args {
    /// What the usage line names, e.g. `ftsort-cli sort`.
    program: String,
    tables: Vec<&'static [Flag]>,
    /// The flags given, in order, with their values (empty for a switch).
    given: Vec<(&'static str, String)>,
    /// The first usage error found.
    error: RefCell<Option<String>>,
}

impl Args {
    /// Reads this process's arguments against `tables`.
    pub fn parse(program: &str, tables: &[&'static [Flag]]) -> Args {
        Args::read(program, tables, std::env::args().skip(1))
    }

    /// Reads `argv` against `tables`. A value never starts with `--`, so a
    /// flag followed by another flag is missing its value.
    pub fn read(
        program: &str,
        tables: &[&'static [Flag]],
        argv: impl IntoIterator<Item = String>,
    ) -> Args {
        let mut words = argv.into_iter();
        let mut given = Vec::new();
        let error = loop {
            let Some(word) = words.next() else {
                break None;
            };
            let Some(&(name, value, _)) = tables.iter().copied().flatten().find(|f| f.0 == word)
            else {
                break Some(match word.starts_with("--") {
                    true => format!("unknown flag {word}"),
                    false => format!("unexpected argument '{word}'"),
                });
            };
            if value.is_empty() {
                given.push((name, String::new()));
                continue;
            }
            match words.next() {
                Some(v) if !v.starts_with("--") => given.push((name, v)),
                _ => break Some(format!("{name} needs {value}")),
            }
        };
        Args {
            program: program.to_string(),
            tables: tables.to_vec(),
            given,
            error: RefCell::new(error),
        }
    }

    /// The last value given for `flag`, converted by `convert`; `None`
    /// when the flag is absent. Each value given must convert.
    pub fn value<T>(&self, flag: &str, convert: impl Fn(&str) -> Result<T, String>) -> Option<T> {
        let mut last = None;
        for (_, v) in self.given.iter().filter(|(name, _)| *name == flag) {
            match convert(v) {
                Ok(v) => last = Some(v),
                Err(e) => self.fail(format!("{flag}: {e}")),
            }
        }
        last
    }

    /// The number given for `flag`, or `default`; either must lie in
    /// `range`.
    pub fn get<T, R>(&self, flag: &str, range: R, default: T) -> T
    where
        T: FromStr + PartialOrd + Debug + Copy,
        R: RangeBounds<T> + Debug,
    {
        self.value(flag, |s| number(s, &range)).unwrap_or_else(|| {
            if !range.contains(&default) {
                self.fail(format!("{flag}: {default:?} is outside {range:?}"));
            }
            default
        })
    }

    /// The comma-separated numbers given for `flag`, each in `range`, or
    /// `default`.
    pub fn list<T, R>(&self, flag: &str, range: R, default: &[T]) -> Vec<T>
    where
        T: FromStr + PartialOrd + Debug + Clone,
        R: RangeBounds<T> + Debug,
    {
        let read = |s: &str| s.split(',').map(|x| number(x.trim(), &range)).collect();
        self.value(flag, read).unwrap_or_else(|| default.to_vec())
    }

    /// The path given for `flag`, if any.
    pub fn path(&self, flag: &str) -> Option<String> {
        self.value(flag, |s| Ok(s.to_string()))
    }

    /// The path given for `flag`, which must be given.
    pub fn required(&self, flag: &str) -> String {
        self.path(flag).unwrap_or_else(|| {
            self.fail(format!("{flag} is required"));
            String::new()
        })
    }

    /// Whether switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| *name == flag)
    }

    /// Records a usage error; [`finish`](Self::finish) reports the first.
    pub fn fail(&self, msg: String) {
        self.error.borrow_mut().get_or_insert(msg);
    }

    /// Exits with status 2 on the first usage error found, printing it and
    /// the declared usage to stderr.
    pub fn finish(&self) {
        let Some(e) = self.error.take() else {
            return;
        };
        eprintln!("error: {e}");
        eprintln!("usage: {} [flags]", self.program);
        let flags = self.tables.iter().copied().flatten();
        let width = flags.clone().map(|f| f.0.len() + f.1.len()).max();
        for (name, value, help) in flags {
            let pad = width.unwrap_or(0) - name.len() - value.len();
            eprintln!("  {name} {value}{:pad$}  {help}", "");
        }
        std::process::exit(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[rustfmt::skip]
    const FLAGS: &[Flag] = &[
        ("--n", "N", "cube dimension"),
        ("--sizes", "N,N,..", "cube dimensions"),
        ("--to", "NODE", "a node"),
        ("--out", "FILE", "output"),
        ("--csv", "", "a switch"),
    ];

    fn read(argv: &str) -> Args {
        Args::read("test", &[FLAGS], argv.split_whitespace().map(String::from))
    }

    fn error(args: &Args) -> Option<String> {
        args.error.borrow().clone()
    }

    #[test]
    fn dimensions_stop_at_the_run_file_readers_bound() {
        let args = read("--n 24 --sizes 3,24");
        assert_eq!(args.get("--n", dims(0), 6), 24);
        assert_eq!(args.list("--sizes", dims(1), &[6]), [3, 24]);
        assert!(error(&args).is_none());
        let args = read("--n 25 --sizes 3,25");
        args.get("--n", dims(0), 6);
        assert_eq!(error(&args).as_deref(), Some("--n: 25 is outside 0..=24"));
        let args = read("--n 25 --sizes 3,25");
        args.list("--sizes", dims(1), &[6]);
        assert_eq!(
            error(&args).as_deref(),
            Some("--sizes: 25 is outside 1..=24")
        );
        // Lower bounds are each binary's own: `ftsort-cli --n 0` runs Q0.
        assert_eq!(read("--n 0").get("--n", dims(0), 6), 0);
        let args = read("--n 0");
        args.get("--n", dims(1), 6);
        assert_eq!(error(&args).as_deref(), Some("--n: 0 is outside 1..=24"));
    }

    #[test]
    fn scanning_names_the_first_bad_word() {
        for (argv, want) in [
            ("--n 3 --mm 10", "unknown flag --mm"),
            ("--csv yes", "unexpected argument 'yes'"),
            ("--n 3 --out", "--out needs FILE"),
            ("--out --csv", "--out needs FILE"),
            ("3", "unexpected argument '3'"),
        ] {
            assert_eq!(error(&read(argv)).as_deref(), Some(want), "{argv}");
        }
        let args = read("--csv --out a --n 3");
        assert!(args.switch("--csv"));
        assert_eq!(args.path("--out").as_deref(), Some("a"));
        assert_eq!(args.get("--n", dims(0), 6), 3);
        assert!(error(&args).is_none());
    }

    #[test]
    fn every_value_is_checked_and_the_last_wins() {
        let args = read("--n 3 --n 5");
        assert_eq!(args.get("--n", dims(0), 6), 5);
        assert!(error(&args).is_none());
        let args = read("--n x --n 5");
        args.get("--n", dims(0), 6);
        assert_eq!(error(&args).as_deref(), Some("--n: bad value 'x'"));
        // A default must fit a range that depends on another flag.
        let args = read("--n 0");
        let n = args.get("--n", dims(0), 6);
        args.get("--to", 0..1u32 << n, 1);
        assert_eq!(error(&args).as_deref(), Some("--to: 1 is outside 0..1"));
        let args = read("");
        assert_eq!(args.required("--out"), "");
        assert_eq!(error(&args).as_deref(), Some("--out is required"));
    }
}
