//! The versioned artifact container format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"HICONDA\0"
//! 8       4     format version (u32, currently 2)
//! 12      4     artifact kind (u32, see [`kinds`])
//! 16      4     section count S (u32)
//! 20      16*S  section table: S entries of { tag: u32, len: u64, crc32: u32 }
//! 20+16S  4     header CRC32 over bytes [0, 20+16S)
//! ...           section payloads, concatenated in table order
//! ```
//!
//! Every byte of the file is covered by exactly one CRC32 — the header and
//! table by the header checksum, each payload by its table entry — so any
//! single-byte flip or truncation is rejected with a structured
//! [`ArtifactError`] before a single payload byte is decoded.

use crate::codec::{decode_exact, le_bytes, ArtifactError, Decode, Encode, Encoder};
use crate::crc32::crc32;

/// File magic: 8 bytes, ASCII + NUL pad.
pub const MAGIC: [u8; 8] = *b"HICONDA\0";

/// Current (and only) container format version. Bump it with every change
/// to a payload layout: the parser refuses other versions, and the solver
/// cache key hashes it, so an old entry misses instead of being misread.
pub const FORMAT_VERSION: u32 = 2;

/// Upper bound on sections per container; real artifacts use < 10, so a
/// larger count is corruption, not scale.
const MAX_SECTIONS: u32 = 64;

/// Registry of artifact kinds. Kinds partition the cache namespace and are
/// validated on load, so a container of another kind is never decoded as
/// a solver.
pub mod kinds {
    /// Full Laplacian solver state (multilevel preconditioner + factors):
    /// the one kind the cache stores.
    pub const SOLVER: u32 = 5;

    /// Human-readable name for a kind id.
    pub fn name(kind: u32) -> &'static str {
        match kind {
            SOLVER => "solver",
            _ => "unknown",
        }
    }
}

/// Builds a container: collect tagged sections, then [`finish`](ArtifactWriter::finish).
#[derive(Debug)]
pub struct ArtifactWriter {
    kind: u32,
    sections: Vec<(u32, Vec<u8>)>,
}

impl ArtifactWriter {
    /// A writer for an artifact of `kind` (see [`kinds`]).
    pub fn new(kind: u32) -> Self {
        ArtifactWriter {
            kind,
            sections: Vec::new(),
        }
    }

    /// Appends a section holding `value` encoded under `tag`.
    pub fn section<T: Encode>(&mut self, tag: u32, value: &T) -> &mut Self {
        let mut enc = Encoder::new();
        value.encode(&mut enc);
        self.sections.push((tag, enc.into_bytes()));
        self
    }

    /// Appends a raw pre-encoded section.
    pub fn raw_section(&mut self, tag: u32, bytes: Vec<u8>) -> &mut Self {
        self.sections.push((tag, bytes));
        self
    }

    /// Serializes the container to bytes.
    pub fn finish(&self) -> Vec<u8> {
        let mut header = Encoder::new();
        header.put_raw(&MAGIC);
        header.put_u32(FORMAT_VERSION);
        header.put_u32(self.kind);
        // fits: MAX_SECTIONS bounds real section counts far below u32::MAX
        header.put_u32(self.sections.len() as u32);
        for (tag, payload) in &self.sections {
            header.put_u32(*tag);
            header.put_u64(payload.len() as u64);
            header.put_u32(crc32(payload));
        }
        let mut out = header.into_bytes();
        let hcrc = crc32(&out);
        out.extend_from_slice(&hcrc.to_le_bytes());
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }
}

/// A parsed, checksum-verified view over container bytes.
#[derive(Debug)]
pub struct ArtifactReader<'a> {
    kind: u32,
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> ArtifactReader<'a> {
    /// Parses and fully verifies `bytes`: magic, version, section table,
    /// header CRC, exact total length, and every payload CRC. Corrupt or
    /// truncated input returns an error; this function never panics.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, ArtifactError> {
        let fixed = MAGIC.len() + 4 + 4 + 4;
        if bytes.len() < fixed {
            return Err(ArtifactError::Truncated {
                needed: fixed,
                available: bytes.len(),
            });
        }
        if bytes.get(..MAGIC.len()) != Some(MAGIC.as_slice()) {
            return Err(ArtifactError::BadMagic);
        }
        // Bounds-checked field access: every header read goes through
        // `field`, so no offset arithmetic can index out of range.
        let field = |off: usize, n: usize| -> Result<&[u8], ArtifactError> {
            off.checked_add(n)
                .and_then(|end| bytes.get(off..end))
                .ok_or(ArtifactError::Truncated {
                    needed: off.saturating_add(n),
                    available: bytes.len(),
                })
        };
        let le32 = |off: usize| -> Result<u32, ArtifactError> {
            Ok(u32::from_le_bytes(le_bytes(field(off, 4)?)))
        };
        let le64 = |off: usize| -> Result<u64, ArtifactError> {
            Ok(u64::from_le_bytes(le_bytes(field(off, 8)?)))
        };
        let version = le32(8)?;
        if version != FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let kind = le32(12)?;
        let count = le32(16)?;
        if count > MAX_SECTIONS {
            return Err(ArtifactError::Malformed(format!(
                "section count {count} exceeds the {MAX_SECTIONS} limit"
            )));
        }
        // fits: count <= MAX_SECTIONS = 64, so the table arithmetic cannot
        // overflow, but stay total anyway.
        let table_len = (count as usize).saturating_mul(16);
        let header_len = fixed.saturating_add(table_len);
        let hcrc_end = header_len.saturating_add(4);
        if bytes.len() < hcrc_end {
            return Err(ArtifactError::Truncated {
                needed: hcrc_end,
                available: bytes.len(),
            });
        }
        let stored_hcrc = le32(header_len)?;
        let header_bytes = bytes.get(..header_len).ok_or(ArtifactError::Truncated {
            needed: header_len,
            available: bytes.len(),
        })?;
        if crc32(header_bytes) != stored_hcrc {
            return Err(ArtifactError::ChecksumMismatch { section: 0 });
        }
        // Header is now trustworthy; walk the table.
        let mut entries = Vec::with_capacity(count as usize);
        let mut total: u64 = 0;
        for i in 0..count as usize {
            let off = fixed.saturating_add(i.saturating_mul(16));
            let tag = le32(off)?;
            let len = le64(off.saturating_add(4))?;
            let crc = le32(off.saturating_add(12))?;
            if entries.iter().any(|&(t, _, _)| t == tag) {
                return Err(ArtifactError::Malformed(format!(
                    "duplicate section tag {tag}"
                )));
            }
            total = total.checked_add(len).ok_or_else(|| {
                ArtifactError::Malformed("section lengths overflow u64".to_string())
            })?;
            entries.push((tag, len, crc));
        }
        let payload_start = hcrc_end;
        let expected_total = (payload_start as u64).checked_add(total).ok_or_else(|| {
            ArtifactError::Malformed("container length overflows u64".to_string())
        })?;
        if (bytes.len() as u64) < expected_total {
            return Err(ArtifactError::Truncated {
                // fits: expected_total <= bytes.len() failed, so it may exceed
                // usize on 32-bit hosts; saturate for the report only
                needed: usize::try_from(expected_total).unwrap_or(usize::MAX),
                available: bytes.len(),
            });
        }
        if (bytes.len() as u64) > expected_total {
            // fits: difference is <= bytes.len(), a usize
            let remaining = (bytes.len() as u64 - expected_total) as usize;
            return Err(ArtifactError::TrailingBytes { remaining });
        }
        let mut sections = Vec::with_capacity(entries.len());
        let mut cursor = payload_start;
        for (tag, len, crc) in entries {
            // cursor + len <= bytes.len() was proven by the exact
            // total-length check above, so `get` cannot fail; keep the
            // checked form anyway so a future refactor degrades to an
            // error, not a panic.
            let len = usize::try_from(len).map_err(|_| {
                ArtifactError::Malformed(format!("section length {len} exceeds the address space"))
            })?;
            let end = cursor.checked_add(len).ok_or_else(|| {
                ArtifactError::Malformed("section offsets overflow usize".to_string())
            })?;
            let payload = bytes.get(cursor..end).ok_or(ArtifactError::Truncated {
                needed: end,
                available: bytes.len(),
            })?;
            if crc32(payload) != crc {
                return Err(ArtifactError::ChecksumMismatch { section: tag });
            }
            sections.push((tag, payload));
            cursor = end;
        }
        Ok(ArtifactReader { kind, sections })
    }

    /// The artifact kind declared in the header.
    pub fn kind(&self) -> u32 {
        self.kind
    }

    /// Fails unless the container is of `expected` kind.
    pub fn expect_kind(&self, expected: u32) -> Result<(), ArtifactError> {
        if self.kind != expected {
            return Err(ArtifactError::WrongKind {
                expected,
                found: self.kind,
            });
        }
        Ok(())
    }

    /// The verified payload for `tag`, if present.
    pub fn section(&self, tag: u32) -> Option<&'a [u8]> {
        self.sections
            .iter()
            .find(|&&(t, _)| t == tag)
            .map(|&(_, p)| p)
    }

    /// All (tag, payload) pairs in file order.
    pub fn sections(&self) -> &[(u32, &'a [u8])] {
        &self.sections
    }

    /// Decodes the section under `tag` as a `T`, requiring the section to
    /// exist and be fully consumed.
    pub fn decode_section<T: Decode>(&self, tag: u32) -> Result<T, ArtifactError> {
        let payload = self
            .section(tag)
            .ok_or(ArtifactError::MissingSection { tag })?;
        decode_exact(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A kind id no artifact uses, to tell kinds apart.
    const OTHER: u32 = 1;

    fn sample() -> Vec<u8> {
        let mut w = ArtifactWriter::new(OTHER);
        w.section(1, &vec![1u32, 2, 3]);
        w.section(2, &"metadata".to_string());
        w.section(7, &vec![0.5f64, -1.25]);
        w.finish()
    }

    #[test]
    fn roundtrip() {
        let bytes = sample();
        let r = ArtifactReader::parse(&bytes).unwrap();
        assert_eq!(r.kind(), OTHER);
        r.expect_kind(OTHER).unwrap();
        assert!(r.expect_kind(kinds::SOLVER).is_err());
        let v: Vec<u32> = r.decode_section(1).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        let s: String = r.decode_section(2).unwrap();
        assert_eq!(s, "metadata");
        let f: Vec<f64> = r.decode_section(7).unwrap();
        assert_eq!(f, vec![0.5, -1.25]);
        assert!(matches!(
            r.decode_section::<u32>(99),
            Err(ArtifactError::MissingSection { tag: 99 })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let bytes = sample();
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80] {
                let mut copy = bytes.clone();
                copy[i] ^= flip;
                assert!(
                    ArtifactReader::parse(&copy).is_err(),
                    "flip {flip:#x} at byte {i} was accepted"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            assert!(
                ArtifactReader::parse(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes was accepted"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample();
        bytes.push(0xAB);
        assert!(matches!(
            ArtifactReader::parse(&bytes),
            Err(ArtifactError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn wrong_magic_and_version() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert!(matches!(
            ArtifactReader::parse(&bytes),
            Err(ArtifactError::BadMagic)
        ));
        let mut bytes = sample();
        bytes[8] = 99;
        // Version byte is covered by the header CRC, so either error is a
        // structured rejection; rebuild with a consistent CRC to hit the
        // version check specifically.
        assert!(ArtifactReader::parse(&bytes).is_err());
        let mut w = Encoder::new();
        w.put_raw(&MAGIC);
        w.put_u32(FORMAT_VERSION + 1);
        w.put_u32(OTHER);
        w.put_u32(0);
        let mut out = w.into_bytes();
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            ArtifactReader::parse(&out),
            Err(ArtifactError::UnsupportedVersion { found, .. }) if found == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn empty_container_roundtrips() {
        let bytes = ArtifactWriter::new(kinds::SOLVER).finish();
        let r = ArtifactReader::parse(&bytes).unwrap();
        assert_eq!(r.kind(), kinds::SOLVER);
        assert!(r.sections().is_empty());
    }

    #[test]
    fn absurd_section_count_rejected_cheaply() {
        let mut w = Encoder::new();
        w.put_raw(&MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u32(OTHER);
        w.put_u32(u32::MAX);
        let mut out = w.into_bytes();
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            ArtifactReader::parse(&out),
            Err(ArtifactError::Malformed(_))
        ));
    }

    #[test]
    fn duplicate_tags_rejected() {
        let mut w = ArtifactWriter::new(OTHER);
        w.section(1, &1u32);
        w.section(1, &2u32);
        let bytes = w.finish();
        assert!(matches!(
            ArtifactReader::parse(&bytes),
            Err(ArtifactError::Malformed(_))
        ));
    }
}
