//! The key-type abstraction for the branchless kernel layer.
//!
//! The scalar reference kernels in [`super::merge`] work over any `K: Ord`.
//! The branchless/cache-blocked kernels in [`super::branchless`] additionally
//! need keys they can load and move by value inside a fixed-width inner loop
//! with no data-dependent control flow — that is what [`Key`] captures:
//! `Ord + Copy` plus the thread bounds the parallel engine needs to ship
//! runs between nodes. Everything above the kernels (`compare_split_remote`, the
//! sorts in `ftsort`/`mffs`/`baselines`) dispatches over `Key`
//! monomorphically, so each concrete key type gets its own specialized
//! branchless loop.

/// A sortable key the branchless kernels can move by value.
///
/// Implemented for the primitive integers, for [`KeyPair`]
/// (key + payload), and for [`crate::distribute::Padded<K>`] so the
/// dummy-extended element type used on the wire is itself a `Key`.
///
/// `Copy` is the load-bearing bound: the branchless inner loop reads both
/// candidates, selects with a conditional move, and advances one index —
/// none of which is expressible (without branches) over move-only values.
/// `Send + Sync + 'static` are what the work-stealing engine requires to
/// poll node programs, and ship their runs, on worker threads.
pub trait Key: Ord + Copy + Send + Sync + std::fmt::Debug + 'static {}

macro_rules! impl_key {
    ($($t:ty),*) => {$( impl Key for $t {} )*};
}
impl_key!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

/// A 16-byte key + payload record: orders by `key` first (then `payload`,
/// so ties stay deterministic), carries `payload` along untouched.
///
/// This is the "sorting real records, not bare integers" row in the kernel
/// bench: twice the bytes per element of `u64`, same comparison counts.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct KeyPair {
    /// The sort key.
    pub key: u64,
    /// Opaque payload, moved wherever the key goes.
    pub payload: u64,
}

impl KeyPair {
    /// A record sorting by `key`, carrying `payload`.
    pub fn new(key: u64, payload: u64) -> Self {
        KeyPair { key, payload }
    }
}

impl Key for KeyPair {}

/// The concrete key types the CLI and report bins can sort — the monomorphic
/// dispatch set. Parsed from `--key-type`, recorded in `RunReport` JSON.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum KeyType {
    /// 4-byte unsigned keys.
    U32,
    /// 8-byte unsigned keys.
    U64,
    /// 8-byte signed keys (the default).
    #[default]
    I64,
    /// 16-byte [`KeyPair`] records.
    Pair,
}

impl KeyType {
    /// All variants, in `--key-type` spelling order.
    pub const ALL: [KeyType; 4] = [KeyType::U32, KeyType::U64, KeyType::I64, KeyType::Pair];

    /// Parses a `--key-type` argument.
    pub fn parse(s: &str) -> Result<KeyType, String> {
        match s {
            "u32" => Ok(KeyType::U32),
            "u64" => Ok(KeyType::U64),
            "i64" => Ok(KeyType::I64),
            "pair" => Ok(KeyType::Pair),
            other => Err(format!(
                "unknown key type '{other}' (expected u32|u64|i64|pair)"
            )),
        }
    }

    /// The `--key-type` spelling (also what reports record).
    pub fn as_str(self) -> &'static str {
        match self {
            KeyType::U32 => "u32",
            KeyType::U64 => "u64",
            KeyType::I64 => "i64",
            KeyType::Pair => "pair",
        }
    }
}

impl std::fmt::Display for KeyType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl<K: Key> Key for crate::distribute::Padded<K> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_pair_orders_by_key_then_payload() {
        assert!(KeyPair::new(1, 9) < KeyPair::new(2, 0));
        assert!(KeyPair::new(1, 0) < KeyPair::new(1, 1));
        assert_eq!(KeyPair::new(3, 3), KeyPair::new(3, 3));
    }

    #[test]
    fn key_type_parses_every_spelling_and_rejects_junk() {
        for kt in KeyType::ALL {
            assert_eq!(KeyType::parse(kt.as_str()), Ok(kt));
            assert_eq!(kt.to_string(), kt.as_str());
        }
        assert!(KeyType::parse("f32").is_err());
        assert_eq!(KeyType::default(), KeyType::I64);
    }
}
