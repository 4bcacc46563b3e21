//! `hicond-artifact`: binary persistence and content-addressed caching.
//!
//! The [φ, ρ]-decomposition and the multilevel Steiner preconditioner are
//! expensive precomputations that amortize over many solves. This crate
//! makes that amortization cross *process* boundaries: build once, persist
//! to disk, reload bit-for-bit on the next run.
//!
//! Four pieces:
//!
//! - [`codec`] — little-endian [`Encode`]/[`Decode`] primitives. `f64`
//!   travels as its bit pattern, so round-trips are bitwise and a loaded
//!   preconditioner reproduces PCG residual trajectories exactly.
//! - [`container`] — the versioned `.hca` container (magic, format
//!   version, section table, in-crate CRC32 over every byte). Corrupt or
//!   truncated input yields a structured [`ArtifactError`], never a panic.
//! - [`fingerprint`] — stable 64-bit FNV-1a content hashes, independent of
//!   thread count and host word size, for cache keys.
//! - [`cache`] — the on-disk store (`HICOND_CACHE_DIR`) with atomic
//!   write-then-rename publication and `ls`/`gc`/`verify` maintenance.
//!
//! Type-specific `Encode`/`Decode` impls live next to the types they
//! serialize (in `hicond-linalg`, `hicond-core`, `hicond-precond`); this
//! crate only knows bytes.

pub mod cache;
pub mod codec;
pub mod container;
pub mod crc32;
pub mod fingerprint;

pub use cache::{Cache, CacheEntry, GcReport, VerifyReport, CACHE_ENV, DEFAULT_CACHE_DIR};
pub use codec::{decode_exact, encode_to_vec, ArtifactError, Decode, Decoder, Encode, Encoder};
pub use container::{kinds, ArtifactReader, ArtifactWriter, FORMAT_VERSION, MAGIC};
pub use crc32::{crc32, Crc32};
pub use fingerprint::{fnv64, Fnv64};
