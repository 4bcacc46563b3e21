//! Artifact [`Encode`]/[`Decode`] impls for the hierarchy build options
//! (which travel inside a solver artifact), plus option-set
//! fingerprinting for cache keys.

use crate::fixed_degree::FixedDegreeOptions;
use crate::hierarchy::HierarchyOptions;
use hicond_artifact::{ArtifactError, Decode, Decoder, Encode, Encoder, Fnv64};

impl Encode for FixedDegreeOptions {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.k);
        enc.put_u64(self.seed);
        enc.put_bool(self.perturb);
        enc.put_bool(self.parallel);
    }
}

impl Decode for FixedDegreeOptions {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, ArtifactError> {
        Ok(FixedDegreeOptions {
            k: dec.usize_()?,
            seed: dec.u64()?,
            perturb: dec.bool()?,
            parallel: dec.bool()?,
        })
    }
}

impl Encode for HierarchyOptions {
    fn encode(&self, enc: &mut Encoder) {
        self.fixed_degree.encode(enc);
        enc.put_usize(self.coarse_size);
        enc.put_usize(self.max_levels);
    }
}

impl Decode for HierarchyOptions {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, ArtifactError> {
        Ok(HierarchyOptions {
            fixed_degree: FixedDegreeOptions::decode(dec)?,
            coarse_size: dec.usize_()?,
            max_levels: dec.usize_()?,
        })
    }
}

/// Folds a [`HierarchyOptions`] into a fingerprint hasher. Every field that
/// influences the built hierarchy participates, so two option sets collide
/// only if they build identical hierarchies on every input.
pub fn hash_hierarchy_options(h: &mut Fnv64, opts: &HierarchyOptions) {
    h.write_str("hierarchy-opts-v1");
    h.write_usize(opts.fixed_degree.k);
    h.write_u64(opts.fixed_degree.seed);
    h.write_bool(opts.fixed_degree.perturb);
    // `parallel` is deliberately excluded: the engine guarantees bitwise
    // identical results at every thread count, so parallel on/off does not
    // change the artifact content and must not split the cache.
    h.write_usize(opts.coarse_size);
    h.write_usize(opts.max_levels);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hicond_artifact::{decode_exact, encode_to_vec};

    #[test]
    fn options_roundtrip_and_hash_sensitivity() {
        let opts = HierarchyOptions::default();
        let back: HierarchyOptions = decode_exact(&encode_to_vec(&opts)).unwrap();
        assert_eq!(back.coarse_size, opts.coarse_size);
        assert_eq!(back.fixed_degree.k, opts.fixed_degree.k);

        let key = |o: &HierarchyOptions| {
            let mut h = Fnv64::new();
            hash_hierarchy_options(&mut h, o);
            h.finish()
        };
        let base = key(&opts);
        let mut o2 = opts;
        o2.fixed_degree.seed += 1;
        assert_ne!(base, key(&o2), "seed must split the cache");
        let mut o3 = opts;
        o3.coarse_size += 1;
        assert_ne!(base, key(&o3), "coarse_size must split the cache");
        let mut o4 = opts;
        o4.fixed_degree.parallel = !o4.fixed_degree.parallel;
        assert_eq!(base, key(&o4), "parallelism must NOT split the cache");
    }
}
