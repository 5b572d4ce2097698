//! Canonical, content-addressed cell descriptors.
//!
//! A campaign cell's result is a pure function of its inputs: the machine
//! topology, the workload (or phase timeline), the effective placement
//! policy, the scenario, the worker count, the DWP point, the simulation
//! config (including the engine mode, which is pinned bit-identical), and
//! whatever the cell draws from its seed (a fleet's arrival schedule).
//! [`CellDescriptor`] captures *all* of those inputs in one
//! stable, versioned, serde-free text serialization plus a content hash —
//! the foundation for exact memoization: equal descriptors imply
//! byte-identical deterministic results, by construction (and enforced by
//! proptest in `bwap-runtime`).
//!
//! Design rules, in priority order:
//!
//! 1. **Bit-exact.** Every `f64` is serialized via [`f64::to_bits`] in
//!    hex, never through decimal formatting — two configs that differ in
//!    the last ulp get different descriptors.
//! 2. **Versioned.** The header line carries a format version; any change
//!    to what a descriptor covers or how it is encoded must bump
//!    [`FORMAT_VERSION`], which invalidates every on-disk cache entry
//!    rather than silently aliasing old results.
//! 3. **Unambiguous.** Fields are `name=value` lines; names come from a
//!    builder that forbids the separator characters, so no two distinct
//!    input structures can serialize to the same text.
//! 4. **Collision-proof by construction.** The FNV-style hash is only an
//!    index; consumers that dedup or cache compare the full descriptor
//!    text before sharing a result, so a 64-bit hash collision can cost
//!    a duplicate execution but never a wrong result.
//!
//! # Examples
//!
//! ```
//! use bwap::descriptor::DescriptorBuilder;
//!
//! let mut b = DescriptorBuilder::new("bwap-cell");
//! b.field_str("workload", "SC");
//! b.field_u64("workers", 2);
//! b.field_f64("dwp", 0.35);
//! let d = b.finish();
//! assert!(d.text().starts_with("bwap-cell-descriptor v2\n"));
//! // Same inputs, same descriptor and hash — content-addressed.
//! let mut b2 = DescriptorBuilder::new("bwap-cell");
//! b2.field_str("workload", "SC");
//! b2.field_u64("workers", 2);
//! b2.field_f64("dwp", 0.35);
//! assert_eq!(d, b2.finish());
//! ```

use crate::seed::derive_seed;

/// Version of the descriptor text format. Bump on ANY change to the
/// encoding or to the set of fields a consumer serializes — stale cache
/// entries from older versions must never alias current results. v2
/// dropped the constant `seed` line campaign cells carried.
pub const FORMAT_VERSION: u32 = 2;

/// A finished canonical descriptor: the full text and its content hash.
///
/// Equality is on the full text (the hash is derived, never trusted as a
/// proxy); ordering is on the text too, so descriptor sets sort stably.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellDescriptor {
    text: String,
    hash: u64,
}

impl CellDescriptor {
    /// The canonical serialized form, including the versioned header.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The 64-bit content hash of [`Self::text`] — an *index*, not an
    /// identity: always compare texts before treating two descriptors as
    /// the same cell.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The hash formatted as the fixed-width lowercase hex token used for
    /// cache file names and `dedup_class` provenance labels.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.hash)
    }

    /// Reconstruct a descriptor from serialized text (e.g. read back from
    /// a cache entry). Returns `None` if the header is missing or carries
    /// a different format version — stale entries are rejected, never
    /// reinterpreted.
    pub fn from_text(text: &str) -> Option<Self> {
        let header = text.lines().next()?;
        let expected = format!("{DESCRIPTOR_MAGIC} v{FORMAT_VERSION}");
        if header != expected {
            return None;
        }
        let hash = content_hash(text);
        Some(Self { text: text.to_string(), hash })
    }
}

/// First token of the header line; the builder's `kind` is folded into the
/// body instead so every descriptor shares one parseable header.
const DESCRIPTOR_MAGIC: &str = "bwap-cell-descriptor";

/// Hash the canonical text. FNV-1a 64 over the bytes, finished with the
/// same SplitMix64 avalanche as [`derive_seed`] (root 0 keeps the
/// derivation pure on the text).
pub fn content_hash(text: &str) -> u64 {
    derive_seed(0, text)
}

/// Incremental builder for [`CellDescriptor`]s.
///
/// Field names must be non-empty and free of `=` and newline characters
/// (checked, panics on violation — a malformed name is a programming
/// error, not data). Values are encoded so they cannot contain a raw
/// newline: strings are escaped, numbers are formatted from their bit
/// patterns.
#[derive(Debug)]
pub struct DescriptorBuilder {
    text: String,
}

impl DescriptorBuilder {
    /// Start a descriptor of the given kind (e.g. `"bwap-cell"`). The kind
    /// is recorded as the first body field so differently-shaped
    /// descriptors can never alias.
    pub fn new(kind: &str) -> Self {
        let mut b = Self { text: format!("{DESCRIPTOR_MAGIC} v{FORMAT_VERSION}\n") };
        b.field_str("kind", kind);
        b
    }

    fn push_name(&mut self, name: &str) {
        assert!(
            !name.is_empty() && !name.contains('=') && !name.contains('\n'),
            "invalid descriptor field name: {name:?}"
        );
        self.text.push_str(name);
        self.text.push('=');
    }

    /// A string field. The value is escaped (`\\`, `\n`, `\r` → escape
    /// sequences) so arbitrary workload/policy names stay line-safe and
    /// unambiguous.
    pub fn field_str(&mut self, name: &str, value: &str) {
        self.push_name(name);
        self.text.push('s');
        for c in value.chars() {
            match c {
                '\\' => self.text.push_str("\\\\"),
                '\n' => self.text.push_str("\\n"),
                '\r' => self.text.push_str("\\r"),
                c => self.text.push(c),
            }
        }
        self.text.push('\n');
    }

    /// An unsigned integer field.
    pub fn field_u64(&mut self, name: &str, value: u64) {
        self.push_name(name);
        self.text.push_str(&format!("u{value}\n"));
    }

    /// A float field, serialized bit-exactly via [`f64::to_bits`] hex.
    /// `-0.0`, NaN payloads and last-ulp differences all produce distinct
    /// descriptors — which is exactly right for exact memoization.
    pub fn field_f64(&mut self, name: &str, value: f64) {
        self.push_name(name);
        self.text.push_str(&format!("f{:016x}\n", value.to_bits()));
    }

    /// A boolean field.
    pub fn field_bool(&mut self, name: &str, value: bool) {
        self.push_name(name);
        self.text.push_str(if value { "b1\n" } else { "b0\n" });
    }

    /// Open a labelled section: a marker field that scopes the fields
    /// that follow (purely textual — sections exist so list-shaped data
    /// like topology nodes serializes unambiguously with a count).
    pub fn section(&mut self, name: &str, count: usize) {
        self.push_name(name);
        self.text.push_str(&format!("#{count}\n"));
    }

    /// Finish: freeze the text and compute the content hash.
    pub fn finish(self) -> CellDescriptor {
        let hash = content_hash(&self.text);
        CellDescriptor { text: self.text, hash }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple(kind: &str, dwp: f64) -> CellDescriptor {
        let mut b = DescriptorBuilder::new(kind);
        b.field_str("workload", "SC");
        b.field_f64("dwp", dwp);
        b.finish()
    }

    #[test]
    fn equal_inputs_equal_descriptor() {
        assert_eq!(simple("cell", 0.3), simple("cell", 0.3));
        assert_eq!(simple("cell", 0.3).hash(), simple("cell", 0.3).hash());
    }

    #[test]
    fn distinct_inputs_distinct_text() {
        assert_ne!(simple("cell", 0.3), simple("cell", 0.30000000000000004));
        assert_ne!(simple("cell", 0.3), simple("probe", 0.3));
        // Negative zero is a different bit pattern, hence a different cell.
        assert_ne!(simple("cell", 0.0), simple("cell", -0.0));
    }

    #[test]
    fn field_order_matters() {
        let mut a = DescriptorBuilder::new("k");
        a.field_u64("x", 1);
        a.field_u64("y", 2);
        let mut b = DescriptorBuilder::new("k");
        b.field_u64("y", 2);
        b.field_u64("x", 1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn string_escaping_is_unambiguous() {
        let mut a = DescriptorBuilder::new("k");
        a.field_str("name", "a\nb");
        let mut b = DescriptorBuilder::new("k");
        b.field_str("name", "a\\nb");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn round_trips_through_text() {
        let d = simple("cell", 0.45);
        let back = CellDescriptor::from_text(d.text()).expect("round trip");
        assert_eq!(d, back);
        assert_eq!(d.hash(), back.hash());
    }

    #[test]
    fn stale_version_rejected() {
        let d = simple("cell", 0.45);
        let stale = d.text().replacen(&format!("v{FORMAT_VERSION}"), "v0", 1);
        assert!(CellDescriptor::from_text(&stale).is_none());
        assert!(CellDescriptor::from_text("").is_none());
        assert!(CellDescriptor::from_text("garbage\nkind=scell\n").is_none());
    }

    #[test]
    fn hash_hex_is_stable_width() {
        let d = simple("cell", 0.0);
        assert_eq!(d.hash_hex().len(), 16);
        assert_eq!(u64::from_str_radix(&d.hash_hex(), 16).unwrap(), d.hash());
    }

    #[test]
    #[should_panic(expected = "invalid descriptor field name")]
    fn bad_field_name_panics() {
        let mut b = DescriptorBuilder::new("k");
        b.field_u64("a=b", 1);
    }
}
