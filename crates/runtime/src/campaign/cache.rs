//! Persistent on-disk cell cache: one file per descriptor hash.
//!
//! The cache is what turns the campaign engine's exact memoization into
//! warm reruns and kill-and-resume: every executed equivalence class
//! stores its outcome under `<cache_dir>/<hash>.cell`; a later campaign
//! (or the same campaign restarted after a kill) replays the stored cells
//! and executes only the remainder. Because the descriptor covers every
//! input of the computation, a hit is *exact* — the fanned-out report is
//! byte-identical to an uninterrupted cold run.
//!
//! Trust model — the cache is an accelerator, never an authority:
//!
//! * Entries embed the **full descriptor text**, verified byte-for-byte
//!   against the locally computed descriptor on load. A 64-bit hash
//!   collision (or a tampered file) costs a re-execution, never a wrong
//!   result.
//! * The header line carries a [`content_hash`] of everything after it,
//!   verified on load: any single changed byte of the descriptor *or*
//!   the outcome is a miss, never a wrong number.
//! * Any malformed, truncated, or version-skewed entry is a miss.
//!   Corruption is tolerated silently (the cell just runs); it is never
//!   propagated.
//! * Writes go through a temp file + atomic rename, so a campaign killed
//!   mid-write leaves either the old entry or the new one — never a torn
//!   file.
//!
//! Floats round-trip through [`f64::to_bits`] hex, so a cached
//! [`RunResult`] is restored bit-exactly — the report serializer then
//! necessarily produces the same bytes it would for a fresh run.
//!
//! `docs/ROBUSTNESS.md` lists the tests that damage real entries to pin
//! these rules.

use crate::scenario::RunResult;
use bwap::descriptor::{content_hash, CellDescriptor};
use std::path::{Path, PathBuf};

/// Version tag of the entry file format (independent of the descriptor
/// format version, which is checked via the embedded descriptor itself).
/// v2 added the body checksum to the header line; v1 entries are misses.
const ENTRY_MAGIC: &str = "bwap-cell-cache v2";

/// A persistent cell cache rooted at a directory.
#[derive(Debug, Clone)]
pub struct CellCache {
    dir: PathBuf,
}

impl CellCache {
    /// Open (creating if needed) a cache directory. Directory-creation
    /// failure disables the cache rather than failing the campaign: a
    /// read-only filesystem degrades to cold execution. The `campaign`
    /// binary creates the directory first and reports that failure.
    pub fn open(dir: &Path) -> Option<CellCache> {
        std::fs::create_dir_all(dir).ok()?;
        Some(CellCache { dir: dir.to_path_buf() })
    }

    /// Path of the entry file for a descriptor.
    pub fn entry_path(&self, desc: &CellDescriptor) -> PathBuf {
        self.dir.join(format!("{}.cell", desc.hash_hex()))
    }

    /// Load the outcome stored for `desc`, if a valid, descriptor-exact
    /// entry exists. Every failure mode — missing file, torn write,
    /// version skew, hash collision — is a plain miss.
    pub fn load(&self, desc: &CellDescriptor) -> Option<Result<RunResult, String>> {
        let bytes = std::fs::read(self.entry_path(desc)).ok()?;
        let text = String::from_utf8(bytes).ok()?;
        let (stored_desc, outcome) = decode_entry(&text)?;
        // The hash named the file; the text is the identity.
        (stored_desc == desc.text()).then_some(outcome)
    }

    /// Store an outcome under `desc` via temp file + atomic rename.
    /// Filesystem refusals are swallowed — caching is best-effort by
    /// design, and a missing entry only costs a re-execution.
    pub fn store(&self, desc: &CellDescriptor, outcome: &Result<RunResult, String>) {
        let tmp = self.dir.join(format!(".tmp-{}-{}", std::process::id(), desc.hash_hex()));
        if std::fs::write(&tmp, encode_entry(desc, outcome)).is_err()
            || std::fs::rename(&tmp, self.entry_path(desc)).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// Serialize one entry: a header line (magic and the [`content_hash`] of
/// the body), then the body — descriptor (byte length + verbatim bytes)
/// and the outcome with every float as a bit pattern.
pub fn encode_entry(desc: &CellDescriptor, outcome: &Result<RunResult, String>) -> String {
    let mut s = String::with_capacity(desc.text().len() + 512);
    s.push_str(&format!("descriptor {}\n", desc.text().len()));
    s.push_str(desc.text());
    match outcome {
        Ok(r) => {
            s.push_str("outcome ok\n");
            s.push_str(&format!("policy {}\n", escape(&r.policy)));
            s.push_str(&format!("workload {}\n", escape(&r.workload)));
            s.push_str(&format!("workers {}\n", r.workers));
            s.push_str(&format!("exec_time_s {:016x}\n", r.exec_time_s.to_bits()));
            s.push_str(&opt_bits("chosen_dwp", r.chosen_dwp));
            s.push_str(&format!("migrated_pages {}\n", r.migrated_pages));
            s.push_str(&format!("stall_frac {:016x}\n", r.stall_frac.to_bits()));
            s.push_str(&opt_bits("a_stall_frac", r.a_stall_frac));
            s.push_str(&format!("read_bytes {:016x}\n", r.read_bytes.to_bits()));
            s.push_str(&format!("traffic_bytes {:016x}\n", r.traffic_bytes.to_bits()));
            match r.retunes {
                Some(n) => s.push_str(&format!("retunes {n}\n")),
                None => s.push_str("retunes none\n"),
            }
            match &r.retune_times_s {
                Some(ts) => {
                    let hex: Vec<String> =
                        ts.iter().map(|t| format!("{:016x}", t.to_bits())).collect();
                    s.push_str(&format!("retune_times_s {}\n", hex.join(",")));
                }
                None => s.push_str("retune_times_s none\n"),
            }
            match r.phase_switches {
                Some(n) => s.push_str(&format!("phase_switches {n}\n")),
                None => s.push_str("phase_switches none\n"),
            }
            match r.jobs {
                Some(n) => s.push_str(&format!("jobs {n}\n")),
                None => s.push_str("jobs none\n"),
            }
            match &r.job_slowdowns {
                Some(ss) => {
                    let hex: Vec<String> =
                        ss.iter().map(|t| format!("{:016x}", t.to_bits())).collect();
                    s.push_str(&format!("job_slowdowns {}\n", hex.join(",")));
                }
                None => s.push_str("job_slowdowns none\n"),
            }
            s.push_str(&opt_bits("slowdown_p50", r.slowdown_p50));
            s.push_str(&opt_bits("slowdown_p95", r.slowdown_p95));
            s.push_str(&opt_bits("slowdown_p99", r.slowdown_p99));
        }
        Err(e) => {
            s.push_str("outcome err\n");
            s.push_str(&format!("error {}\n", escape(e)));
        }
    }
    format!("{ENTRY_MAGIC} {:016x}\n{s}", content_hash(&s))
}

/// Parse an entry back into `(descriptor text, outcome)`. `None` on any
/// structural problem or checksum mismatch — the caller treats that as a
/// miss.
fn decode_entry(text: &str) -> Option<(&str, Result<RunResult, String>)> {
    let (header, body) = text.split_once('\n')?;
    let checksum = header.strip_prefix(ENTRY_MAGIC)?.strip_prefix(' ')?;
    // Compare the rendered text, not the parsed value: a case flip in a
    // hex digit must be a miss too.
    if checksum != format!("{:016x}", content_hash(body)) {
        return None;
    }
    let (len_line, rest) = body.split_once('\n')?;
    let len: usize = len_line.strip_prefix("descriptor ")?.parse().ok()?;
    if !rest.is_char_boundary(len) || rest.len() < len {
        return None;
    }
    let (desc_text, rest) = rest.split_at(len);
    let mut lines = rest.lines();
    match lines.next()? {
        "outcome ok" => {
            let mut next = |name: &str| -> Option<String> {
                lines.next()?.strip_prefix(name)?.strip_prefix(' ').map(str::to_string)
            };
            let policy = unescape(&next("policy")?);
            let workload = unescape(&next("workload")?);
            let workers: usize = next("workers")?.parse().ok()?;
            let exec_time_s = bits(&next("exec_time_s")?)?;
            let chosen_dwp = opt_bits_parse(&next("chosen_dwp")?)?;
            let migrated_pages: u64 = next("migrated_pages")?.parse().ok()?;
            let stall_frac = bits(&next("stall_frac")?)?;
            let a_stall_frac = opt_bits_parse(&next("a_stall_frac")?)?;
            let read_bytes = bits(&next("read_bytes")?)?;
            let traffic_bytes = bits(&next("traffic_bytes")?)?;
            let retunes = match next("retunes")?.as_str() {
                "none" => None,
                v => Some(v.parse().ok()?),
            };
            let retune_times_s = match next("retune_times_s")?.as_str() {
                "none" => None,
                "" => Some(Vec::new()),
                v => Some(v.split(',').map(bits).collect::<Option<Vec<f64>>>()?),
            };
            let phase_switches = match next("phase_switches")?.as_str() {
                "none" => None,
                v => Some(v.parse().ok()?),
            };
            let jobs = match next("jobs")?.as_str() {
                "none" => None,
                v => Some(v.parse().ok()?),
            };
            let job_slowdowns = match next("job_slowdowns")?.as_str() {
                "none" => None,
                "" => Some(Vec::new()),
                v => Some(v.split(',').map(bits).collect::<Option<Vec<f64>>>()?),
            };
            let slowdown_p50 = opt_bits_parse(&next("slowdown_p50")?)?;
            let slowdown_p95 = opt_bits_parse(&next("slowdown_p95")?)?;
            let slowdown_p99 = opt_bits_parse(&next("slowdown_p99")?)?;
            Some((
                desc_text,
                Ok(RunResult {
                    policy,
                    workload,
                    workers,
                    exec_time_s,
                    chosen_dwp,
                    migrated_pages,
                    stall_frac,
                    a_stall_frac,
                    read_bytes,
                    traffic_bytes,
                    retunes,
                    retune_times_s,
                    phase_switches,
                    jobs,
                    job_slowdowns,
                    slowdown_p50,
                    slowdown_p95,
                    slowdown_p99,
                }),
            ))
        }
        "outcome err" => {
            let e = lines.next()?.strip_prefix("error ")?;
            Some((desc_text, Err(unescape(e))))
        }
        _ => None,
    }
}

fn bits(hex: &str) -> Option<f64> {
    u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
}

fn opt_bits(name: &str, v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{name} {:016x}\n", x.to_bits()),
        None => format!("{name} none\n"),
    }
}

fn opt_bits_parse(v: &str) -> Option<Option<f64>> {
    match v {
        "none" => Some(None),
        hex => Some(Some(bits(hex)?)),
    }
}

/// Keep stored strings single-line (policy labels and error messages can
/// in principle carry anything).
fn escape(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n").replace('\r', "\\r")
}

fn unescape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap::descriptor::DescriptorBuilder;

    fn desc(tag: &str) -> CellDescriptor {
        let mut b = DescriptorBuilder::new("campaign-cell");
        b.field_str("tag", tag);
        b.finish()
    }

    fn result() -> RunResult {
        RunResult {
            policy: "bwap".into(),
            workload: "SC".into(),
            workers: 2,
            exec_time_s: 12.5e-1 + 0.1, // deliberately non-round bits
            chosen_dwp: Some(0.30000000000000004),
            migrated_pages: 42,
            stall_frac: 0.33,
            a_stall_frac: None,
            read_bytes: 1e9,
            traffic_bytes: 1.5e9,
            retunes: Some(2),
            retune_times_s: Some(vec![3.5, 9.25]),
            phase_switches: None,
            jobs: Some(3),
            job_slowdowns: Some(vec![1.0, 1.25, 2.5]),
            slowdown_p50: Some(1.25),
            slowdown_p95: Some(2.5),
            slowdown_p99: Some(2.5),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bwap-cache-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn round_trips_ok_and_err_bit_exactly() {
        let d = desc("rt");
        for outcome in [Ok(result()), Err("boom\nline2".to_string())] {
            let enc = encode_entry(&d, &outcome);
            let (dt, back) = decode_entry(&enc).expect("decodes");
            assert_eq!(dt, d.text());
            match (&outcome, &back) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.policy, b.policy);
                    assert_eq!(a.exec_time_s.to_bits(), b.exec_time_s.to_bits());
                    assert_eq!(a.chosen_dwp.map(f64::to_bits), b.chosen_dwp.map(f64::to_bits));
                    assert_eq!(a.retune_times_s, b.retune_times_s);
                    assert_eq!(a.a_stall_frac, b.a_stall_frac);
                    assert_eq!(a.retunes, b.retunes);
                    assert_eq!(a.phase_switches, b.phase_switches);
                    assert_eq!(a.jobs, b.jobs);
                    assert_eq!(a.job_slowdowns, b.job_slowdowns);
                    assert_eq!(a.slowdown_p50.map(f64::to_bits), b.slowdown_p50.map(f64::to_bits));
                    assert_eq!(a.slowdown_p95.map(f64::to_bits), b.slowdown_p95.map(f64::to_bits));
                    assert_eq!(a.slowdown_p99.map(f64::to_bits), b.slowdown_p99.map(f64::to_bits));
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                _ => panic!("outcome kind flipped"),
            }
        }
    }

    #[test]
    fn store_load_hit_and_cold_miss() {
        let dir = tmp("hit");
        let cache = CellCache::open(&dir).expect("open");
        let d = desc("cell-a");
        assert!(cache.load(&d).is_none(), "cold cache must miss");
        cache.store(&d, &Ok(result()));
        let hit = cache.load(&d).expect("hit").expect("ok outcome");
        assert_eq!(hit.exec_time_s.to_bits(), result().exec_time_s.to_bits());
        // A different descriptor is a different entry.
        assert!(cache.load(&desc("cell-b")).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_truncated_and_skewed_entries_are_misses() {
        let dir = tmp("corrupt");
        let cache = CellCache::open(&dir).expect("open");
        let d = desc("cell-c");
        cache.store(&d, &Ok(result()));
        let path = cache.entry_path(&d);
        let full = std::fs::read_to_string(&path).expect("entry");

        // Truncation (torn write survived a rename somehow): miss.
        std::fs::write(&path, &full[..full.len() / 2]).expect("truncate");
        assert!(cache.load(&d).is_none());

        // Garbage: miss.
        std::fs::write(&path, "not an entry").expect("garbage");
        assert!(cache.load(&d).is_none());

        // Version skew in the embedded descriptor: stored text no longer
        // matches the computed descriptor byte-for-byte -> miss.
        std::fs::write(&path, full.replace("tag=scell-c", "tag=scell-X")).expect("skew");
        assert!(cache.load(&d).is_none());

        // A v1 entry (no checksum in the header) from before the format
        // bump: miss, so it re-executes once and is rewritten as v2.
        let body = full.split_once('\n').expect("header").1;
        std::fs::write(&path, format!("bwap-cell-cache v1\n{body}")).expect("v1");
        assert!(cache.load(&d).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Every single-bit flip of every byte of an entry is a miss — in the
    /// header, the descriptor and the outcome alike. Verifying only the
    /// descriptor let a flipped result digit through as a wrong result.
    #[test]
    fn every_single_bit_flip_is_a_miss() {
        let dir = tmp("bit-flips");
        let cache = CellCache::open(&dir).expect("open");
        let d = desc("flip-cell");
        let path = cache.entry_path(&d);
        for outcome in [Ok(result()), Err("boom: 0xdeadbeef".to_string())] {
            let entry = encode_entry(&d, &outcome).into_bytes();
            std::fs::write(&path, &entry).expect("write");
            assert!(cache.load(&d).is_some(), "the intact entry hits");
            for i in 0..entry.len() {
                for bit in 0..8 {
                    let mut flipped = entry.clone();
                    flipped[i] ^= 1 << bit;
                    std::fs::write(&path, &flipped).expect("write");
                    assert!(
                        cache.load(&d).is_none(),
                        "bit {bit} of byte {i} ({:?}) flipped and still hit",
                        entry[i] as char
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Every proper prefix of an entry is a miss (a torn write keeps a
    /// prefix), and so is the entry with one byte inserted at any
    /// position: an inserted `'0'` lengthens a number or a hex field, an
    /// inserted `'\n'` splits a line, and neither breaks the text.
    #[test]
    fn every_truncation_and_inserted_byte_is_a_miss() {
        let dir = tmp("splices");
        let cache = CellCache::open(&dir).expect("open");
        let d = desc("splice-cell");
        let path = cache.entry_path(&d);
        for outcome in [Ok(result()), Err("boom: 0xdeadbeef".to_string())] {
            let entry = encode_entry(&d, &outcome).into_bytes();
            std::fs::write(&path, &entry).expect("write");
            assert!(cache.load(&d).is_some(), "the intact entry hits");
            for cut in 0..entry.len() {
                std::fs::write(&path, &entry[..cut]).expect("write");
                assert!(cache.load(&d).is_none(), "the {cut}-byte prefix still hit");
            }
            for at in 0..=entry.len() {
                for byte in [b'0', b'\n'] {
                    let mut spliced = entry.clone();
                    spliced.insert(at, byte);
                    std::fs::write(&path, &spliced).expect("write");
                    assert!(
                        cache.load(&d).is_none(),
                        "{:?} inserted at byte {at} still hit",
                        byte as char
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn hash_collision_is_detected_via_descriptor_bytes() {
        let dir = tmp("collision");
        let cache = CellCache::open(&dir).expect("open");
        let (a, b) = (desc("one"), desc("two"));
        // Simulate a collision: drop b's entry where a's hash points.
        std::fs::write(cache.entry_path(&a), encode_entry(&b, &Ok(result()))).expect("plant");
        assert!(cache.load(&a).is_none(), "foreign descriptor must not alias");
        assert!(cache.load(&b).is_none(), "b's entry lives under a's path, not b's");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn empty_retune_times_round_trip() {
        let d = desc("empty-times");
        let mut r = result();
        r.retune_times_s = Some(Vec::new());
        let (_, back) = decode_entry(&encode_entry(&d, &Ok(r))).expect("decodes");
        assert_eq!(back.expect("ok").retune_times_s, Some(Vec::new()));
    }
}
