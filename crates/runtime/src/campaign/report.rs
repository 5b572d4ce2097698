//! Machine-readable campaign reports.
//!
//! A [`CampaignReport`] collects every cell's [`RunResult`] (or error)
//! plus enough provenance — campaign seed, per-cell seeds, machine,
//! schema version — to replay any cell. It serializes to JSON with a
//! stable schema (documented in `docs/RESULTS_SCHEMA.md`); the workspace
//! is offline-only, so the writer is hand-rolled rather than serde-based.
//!
//! Two serializations exist on purpose:
//! * [`CampaignReport::to_json`] — the full artifact, including volatile
//!   provenance (wall time, thread count).
//! * [`CampaignReport::deterministic_json`] — everything except the
//!   volatile fields. Same spec + same seed ⇒ byte-identical output, at
//!   any shard count; tests pin this.

use super::ScenarioKind;
use crate::scenario::RunResult;
use bwap_topology::{BwMatrix, NodeId};
use std::path::PathBuf;

/// Version tag written into every report. Bump on any breaking change to
/// the JSON layout and document the migration in `docs/RESULTS_SCHEMA.md`.
///
/// v2 added the optional `node_tiers` axis for heterogeneous machines;
/// symmetric-machine reports are byte-identical to v1 apart from this
/// number (pinned by `tests/golden_reports.rs`), and v1 reports still
/// parse under the v2 schema (the new field is simply absent).
pub const SCHEMA_VERSION: u32 = 2;

/// Per-node memory-tier descriptor attached to reports of heterogeneous
/// machines (any CPU-less node or non-DRAM tier). Symmetric machines omit
/// the whole axis so their reports stay byte-stable across the tier
/// refactor.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTierRecord {
    /// Node id (0-based).
    pub node: u16,
    /// Memory-class name (`"dram"`, `"cxl-expander"`, ...).
    pub class: String,
    /// Hardware threads; 0 marks a memory-only expander.
    pub cores: u16,
    /// Local controller bandwidth, GB/s (tier-scaled).
    pub ctrl_bw: f64,
    /// Latency multiplier of the tier relative to DRAM.
    pub lat_scale: f64,
    /// Local capacity in 4 KiB pages.
    pub mem_pages: u64,
}

/// One cell of the campaign matrix: identity, seed, and outcome.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// Position in the spec's deterministic enumeration order.
    pub id: usize,
    /// Stable human-readable cell key (also the seed-derivation input).
    pub key: String,
    /// Workload name.
    pub workload: String,
    /// Declared policy label (static-DWP overrides are reported in
    /// [`CellRecord::static_dwp`], not folded into this label).
    pub policy: String,
    /// Which scenario ran.
    pub scenario: ScenarioKind,
    /// Worker-node count.
    pub workers: usize,
    /// `Some(d)` if the cell pinned BWAP to a static DWP.
    pub static_dwp: Option<f64>,
    /// Phase-period override of a phased-workload cell, seconds. `None`
    /// for plain-workload cells (the field is omitted from their JSON)
    /// and for native-duration phased cells.
    pub phase_period: Option<f64>,
    /// Cluster-scheduler label of a fleet cell (omitted, not null, for
    /// every other cell). Part of the deterministic payload: it is a
    /// spec coordinate, like `workers`.
    pub scheduler: Option<String>,
    /// Poisson arrival rate of a fleet cell, jobs per simulated second
    /// (`None` — omitted — for non-fleet cells and trace-driven fleets).
    pub arrival_rate_hz: Option<f64>,
    /// The cell's derived seed (replay input).
    pub seed: u64,
    /// The run's result, or the error that stopped it.
    pub outcome: Result<RunResult, String>,
    /// Path of the cell's Chrome-trace file, when the campaign ran with a
    /// trace directory. Volatile provenance like `threads`: emitted only
    /// in the full artifact (and omitted, not null, when absent), so
    /// deterministic reports stay byte-identical trace-on vs trace-off.
    /// Cells whose result was shared through dedup point at their
    /// representative's trace; cache-served cells carry none.
    pub trace_path: Option<String>,
    /// Descriptor-hash label of the cell's dedup equivalence class, set
    /// only when the class had more than one member (i.e. the result was
    /// actually shared). Volatile provenance: full artifact only.
    pub dedup_class: Option<String>,
    /// Whether the result was replayed from the persistent cell cache
    /// instead of executing. Volatile provenance: emitted (as `true`)
    /// in the full artifact only, and only when set.
    pub cache_hit: bool,
}

impl CellRecord {
    /// The cell's result, if it ran to completion.
    pub fn result(&self) -> Option<&RunResult> {
        self.outcome.as_ref().ok()
    }
}

/// Everything one campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// JSON schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Campaign name (also the artifact file stem).
    pub campaign: String,
    /// Machine the campaign ran on.
    pub machine: String,
    /// Root seed every cell seed was derived from.
    pub seed: u64,
    /// Executor worker threads used (volatile provenance).
    pub threads: usize,
    /// Wall-clock duration of the whole campaign (volatile provenance).
    pub wall_time_s: f64,
    /// Engine mode label when the campaign ran event-driven (volatile
    /// provenance; omitted — not null — under the default stepped mode).
    /// Both modes produce identical results, so this never belongs in
    /// [`CampaignReport::deterministic_json`] and the schema stays v2.
    pub engine_mode: Option<String>,
    /// How many cells actually executed (after dedup collapsed equivalence
    /// classes and the cache replayed stored ones) — volatile provenance;
    /// a fully warm rerun reports 0 here.
    pub executed_cells: usize,
    /// Probed node-to-node bandwidth matrix, if the spec requested
    /// installation-time profiling (Fig. 1a).
    pub bw_matrix: Option<BwMatrix>,
    /// Memory-tier axis: per-node tier descriptors, present only when the
    /// machine is heterogeneous (schema v2).
    pub node_tiers: Option<Vec<NodeTierRecord>>,
    /// Per-cell records, in spec enumeration order.
    pub cells: Vec<CellRecord>,
}

impl CampaignReport {
    /// Look up a cell by its coordinates. `static_dwp` must match the
    /// spec's grid value exactly (both come from the same code path, so
    /// exact `f64` comparison is well-defined).
    ///
    /// The phase-period axis is *not* a coordinate here: in a campaign
    /// sweeping several phase periods this returns the first matching
    /// cell in enumeration order (the lowest-indexed period point).
    pub fn find(
        &self,
        workload: &str,
        policy: &str,
        scenario: ScenarioKind,
        workers: usize,
        static_dwp: Option<f64>,
    ) -> Option<&CellRecord> {
        self.cells.iter().find(|c| {
            c.workload == workload
                && c.policy == policy
                && c.scenario == scenario
                && c.workers == workers
                && c.static_dwp == static_dwp
        })
    }

    /// Full JSON artifact, including volatile provenance fields.
    pub fn to_json(&self) -> String {
        self.json(true)
    }

    /// JSON with the volatile fields (`threads`, `wall_time_s`) omitted:
    /// byte-identical across reruns of the same spec + seed, at any shard
    /// count.
    pub fn deterministic_json(&self) -> String {
        self.json(false)
    }

    fn json(&self, volatile: bool) -> String {
        let mut s = String::with_capacity(4096 + self.cells.len() * 512);
        s.push_str("{\n");
        field(&mut s, 1, "schema_version", &self.schema_version.to_string());
        field(&mut s, 1, "campaign", &json_str(&self.campaign));
        field(&mut s, 1, "machine", &json_str(&self.machine));
        field(&mut s, 1, "seed", &self.seed.to_string());
        if volatile {
            field(&mut s, 1, "threads", &self.threads.to_string());
            field(&mut s, 1, "wall_time_s", &json_f64(self.wall_time_s));
            field(&mut s, 1, "executed_cells", &self.executed_cells.to_string());
            if let Some(mode) = &self.engine_mode {
                field(&mut s, 1, "engine_mode", &json_str(mode));
            }
        }
        field(&mut s, 1, "bw_matrix_gbps", &bw_matrix_json(self.bw_matrix.as_ref()));
        // Schema v2: the tier axis is emitted only for heterogeneous
        // machines, keeping symmetric-machine reports byte-stable.
        if let Some(tiers) = &self.node_tiers {
            field(&mut s, 1, "node_tiers", &node_tiers_json(tiers));
        }
        s.push_str("  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            cell_json(&mut s, c, volatile);
        }
        if self.cells.is_empty() {
            s.push_str("]\n");
        } else {
            s.push_str("\n  ]\n");
        }
        s.push('}');
        s.push('\n');
        s
    }

    /// Write the full JSON artifact to `results_dir()/<campaign>.campaign.json`
    /// (non-alphanumeric name characters are sanitized to `-`). Returns
    /// the path written.
    pub fn write_json(&self) -> std::io::Result<PathBuf> {
        self.write_json_in(&results_dir())
    }

    /// [`CampaignReport::write_json`] into an explicit directory (the
    /// `campaign` CLI's `--out`; CI artifact collection and parallel local
    /// runs point different campaigns at different directories).
    pub fn write_json_in(&self, dir: &std::path::Path) -> std::io::Result<PathBuf> {
        let stem: String = self
            .campaign
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || "._-".contains(c) { c } else { '-' })
            .collect();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{stem}.campaign.json"));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Directory where campaign artifacts land: `BWAP_RESULTS_DIR` if set,
/// else `results/` relative to the working directory (the harness
/// binaries run from the workspace root via `cargo run`).
pub fn results_dir() -> PathBuf {
    match std::env::var("BWAP_RESULTS_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => PathBuf::from("results"),
    }
}

fn indent(s: &mut String, level: usize) {
    for _ in 0..level {
        s.push_str("  ");
    }
}

/// Append `"name": value,\n` at the given indent level.
fn field(s: &mut String, level: usize, name: &str, value: &str) {
    indent(s, level);
    s.push('"');
    s.push_str(name);
    s.push_str("\": ");
    s.push_str(value);
    s.push_str(",\n");
}

/// JSON string literal with the mandatory escapes.
fn json_str(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number via Rust's shortest-roundtrip float formatting; non-finite
/// values have no JSON representation and become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(x) => json_f64(x),
        None => "null".into(),
    }
}

fn f64_array_json(v: &[f64]) -> String {
    let cells: Vec<String> = v.iter().map(|&x| json_f64(x)).collect();
    format!("[{}]", cells.join(", "))
}

fn node_tiers_json(tiers: &[NodeTierRecord]) -> String {
    let rows: Vec<String> = tiers
        .iter()
        .map(|t| {
            format!(
                "{{\"node\": {}, \"class\": {}, \"cores\": {}, \"ctrl_bw_gbps\": {}, \
                 \"lat_scale\": {}, \"mem_pages\": {}}}",
                t.node,
                json_str(&t.class),
                t.cores,
                json_f64(t.ctrl_bw),
                json_f64(t.lat_scale),
                t.mem_pages
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

fn bw_matrix_json(m: Option<&BwMatrix>) -> String {
    let Some(m) = m else {
        return "null".into();
    };
    let n = m.node_count();
    let rows: Vec<String> = (0..n)
        .map(|s| {
            let cells: Vec<String> =
                (0..n).map(|d| json_f64(m.get(NodeId(s as u16), NodeId(d as u16)))).collect();
            format!("[{}]", cells.join(", "))
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

fn cell_json(s: &mut String, c: &CellRecord, volatile: bool) {
    indent(s, 2);
    s.push_str("{\n");
    field(s, 3, "id", &c.id.to_string());
    field(s, 3, "key", &json_str(&c.key));
    field(s, 3, "workload", &json_str(&c.workload));
    field(s, 3, "policy", &json_str(&c.policy));
    field(s, 3, "scenario", &json_str(c.scenario.label()));
    field(s, 3, "workers", &c.workers.to_string());
    field(s, 3, "static_dwp", &json_opt_f64(c.static_dwp));
    // Optional axes are omitted, not null: classic-campaign cells stay
    // byte-identical to their pre-phase serialization.
    if let Some(t) = c.phase_period {
        field(s, 3, "phase_period_s", &json_f64(t));
    }
    // Fleet coordinates, same omitted-not-null discipline: non-fleet
    // cells serialize byte-identically to their pre-fleet form.
    if let Some(sch) = &c.scheduler {
        field(s, 3, "scheduler", &json_str(sch));
    }
    if let Some(r) = c.arrival_rate_hz {
        field(s, 3, "arrival_rate_hz", &json_f64(r));
    }
    field(s, 3, "seed", &c.seed.to_string());
    // Where a trace landed depends on the executor invocation, not the
    // spec: full artifact only, like `threads` and `wall_time_s`.
    if volatile {
        if let Some(p) = &c.trace_path {
            field(s, 3, "trace_path", &json_str(p));
        }
        // Memoization provenance, omitted-not-null like `trace_path`: the
        // deterministic report is byte-identical whether the result was
        // executed, shared through dedup, or replayed from the cache.
        if let Some(class) = &c.dedup_class {
            field(s, 3, "dedup_class", &json_str(class));
        }
        if c.cache_hit {
            field(s, 3, "cache_hit", "true");
        }
    }
    match &c.outcome {
        Ok(r) => {
            indent(s, 3);
            s.push_str("\"result\": {\n");
            field(s, 4, "exec_time_s", &json_f64(r.exec_time_s));
            field(s, 4, "chosen_dwp", &json_opt_f64(r.chosen_dwp));
            field(s, 4, "migrated_pages", &r.migrated_pages.to_string());
            field(s, 4, "stall_frac", &json_f64(r.stall_frac));
            field(s, 4, "a_stall_frac", &json_opt_f64(r.a_stall_frac));
            field(s, 4, "read_bytes", &json_f64(r.read_bytes));
            field(s, 4, "traffic_bytes", &json_f64(r.traffic_bytes));
            // Adaptive/phased observables ride along only where they
            // exist (schema v2 optional fields, like `node_tiers`).
            if let Some(n) = r.retunes {
                field(s, 4, "retunes", &n.to_string());
            }
            if let Some(times) = &r.retune_times_s {
                field(s, 4, "retune_times_s", &f64_array_json(times));
            }
            if let Some(n) = r.phase_switches {
                field(s, 4, "phase_switches", &n.to_string());
            }
            // Fleet tail metrics (schema v2 optional fields): present
            // exactly on fleet cells, omitted everywhere else.
            if let Some(n) = r.jobs {
                field(s, 4, "jobs", &n.to_string());
            }
            if let Some(ss) = &r.job_slowdowns {
                field(s, 4, "job_slowdowns", &f64_array_json(ss));
            }
            if let Some(p) = r.slowdown_p50 {
                field(s, 4, "slowdown_p50", &json_f64(p));
            }
            if let Some(p) = r.slowdown_p95 {
                field(s, 4, "slowdown_p95", &json_f64(p));
            }
            if let Some(p) = r.slowdown_p99 {
                field(s, 4, "slowdown_p99", &json_f64(p));
            }
            pop_trailing_comma(s);
            indent(s, 3);
            s.push_str("},\n");
            field(s, 3, "error", "null");
        }
        Err(e) => {
            field(s, 3, "result", "null");
            field(s, 3, "error", &json_str(e));
        }
    }
    pop_trailing_comma(s);
    indent(s, 2);
    s.push('}');
}

/// Remove the `,\n` the last `field` call appended, re-adding the newline.
fn pop_trailing_comma(s: &mut String) {
    if s.ends_with(",\n") {
        s.truncate(s.len() - 2);
        s.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: usize, outcome: Result<RunResult, String>) -> CellRecord {
        CellRecord {
            id,
            key: format!("w0:SC|p0:bwap|standalone|1w|cell{id}"),
            workload: "SC".into(),
            policy: "bwap".into(),
            scenario: ScenarioKind::Standalone,
            workers: 1,
            static_dwp: None,
            phase_period: None,
            scheduler: None,
            arrival_rate_hz: None,
            seed: 7,
            outcome,
            trace_path: None,
            dedup_class: None,
            cache_hit: false,
        }
    }

    fn result() -> RunResult {
        RunResult {
            policy: "bwap".into(),
            workload: "SC".into(),
            workers: 1,
            exec_time_s: 12.5,
            chosen_dwp: Some(0.2),
            migrated_pages: 42,
            stall_frac: 0.33,
            a_stall_frac: None,
            read_bytes: 1e9,
            traffic_bytes: 1.5e9,
            retunes: None,
            retune_times_s: None,
            phase_switches: None,
            jobs: None,
            job_slowdowns: None,
            slowdown_p50: None,
            slowdown_p95: None,
            slowdown_p99: None,
        }
    }

    fn report(cells: Vec<CellRecord>) -> CampaignReport {
        CampaignReport {
            schema_version: SCHEMA_VERSION,
            campaign: "unit".into(),
            machine: "machine-b".into(),
            seed: 1,
            threads: 4,
            wall_time_s: 0.25,
            engine_mode: None,
            executed_cells: cells.len(),
            bw_matrix: None,
            node_tiers: None,
            cells,
        }
    }

    #[test]
    fn engine_mode_is_volatile_and_omitted_when_stepped() {
        let stepped = report(vec![record(0, Ok(result()))]);
        assert!(!stepped.to_json().contains("engine_mode"), "omitted, not null");
        let mut event = stepped.clone();
        event.engine_mode = Some("event-driven".into());
        assert!(event.to_json().contains("\"engine_mode\": \"event-driven\""));
        // Never part of the deterministic artifact: both modes must
        // produce byte-identical reports.
        assert_eq!(stepped.deterministic_json(), event.deterministic_json());
        assert!(event.to_json().contains("\"schema_version\": 2"));
    }

    #[test]
    fn json_has_schema_version_and_cells() {
        let r = report(vec![record(0, Ok(result())), record(1, Err("boom \"quoted\"".into()))]);
        let j = r.to_json();
        assert!(j.contains("\"schema_version\": 2"));
        assert!(j.contains("\"exec_time_s\": 12.5"));
        assert!(j.contains("\"chosen_dwp\": 0.2"));
        assert!(j.contains("\"error\": \"boom \\\"quoted\\\"\""));
        assert!(j.contains("\"wall_time_s\""));
    }

    #[test]
    fn deterministic_json_omits_volatile_fields() {
        let r = report(vec![record(0, Ok(result()))]);
        let j = r.deterministic_json();
        assert!(!j.contains("wall_time_s"));
        assert!(!j.contains("threads"));
        let mut r2 = r.clone();
        r2.wall_time_s = 99.0;
        r2.threads = 1;
        assert_eq!(j, r2.deterministic_json());
    }

    #[test]
    fn empty_report_is_valid() {
        let j = report(Vec::new()).to_json();
        assert!(j.contains("\"cells\": []"));
    }

    #[test]
    fn tier_axis_is_emitted_only_for_heterogeneous_machines() {
        let symmetric = report(Vec::new());
        assert!(!symmetric.to_json().contains("node_tiers"));
        let mut tiered = report(Vec::new());
        tiered.node_tiers = Some(vec![NodeTierRecord {
            node: 2,
            class: "cxl-expander".into(),
            cores: 0,
            ctrl_bw: 9.9,
            lat_scale: 2.0,
            mem_pages: 1024,
        }]);
        let j = tiered.to_json();
        assert!(j.contains("\"node_tiers\": [{\"node\": 2, \"class\": \"cxl-expander\""));
        assert!(j.contains("\"cores\": 0"));
        assert!(j.contains("\"lat_scale\": 2"));
        // The tier axis is part of the deterministic payload.
        assert!(tiered.deterministic_json().contains("node_tiers"));
    }

    #[test]
    fn phase_and_retune_fields_are_emitted_only_when_present() {
        // A classic cell: none of the optional names appear at all.
        let plain = report(vec![record(0, Ok(result()))]).to_json();
        for name in ["phase_period_s", "retunes", "retune_times_s", "phase_switches"] {
            assert!(!plain.contains(name), "{name} leaked into a classic report");
        }
        // An adaptive phased cell: all of them ride along.
        let mut r = result();
        r.retunes = Some(2);
        r.retune_times_s = Some(vec![3.5, 9.25]);
        r.phase_switches = Some(5);
        let mut c = record(0, Ok(r));
        c.phase_period = Some(10.0);
        let j = report(vec![c]).to_json();
        assert!(j.contains("\"phase_period_s\": 10"));
        assert!(j.contains("\"retunes\": 2"));
        assert!(j.contains("\"retune_times_s\": [3.5, 9.25]"));
        assert!(j.contains("\"phase_switches\": 5"));
        // And they are part of the deterministic payload.
        let d = report(vec![{
            let mut r = result();
            r.retunes = Some(1);
            record(0, Ok(r))
        }])
        .deterministic_json();
        assert!(d.contains("\"retunes\": 1"));
    }

    #[test]
    fn fleet_fields_are_emitted_only_when_present() {
        // A non-fleet cell: none of the fleet names appear at all.
        let plain = report(vec![record(0, Ok(result()))]).to_json();
        for name in ["scheduler", "arrival_rate_hz", "\"jobs\"", "job_slowdowns", "slowdown_p50"] {
            assert!(!plain.contains(name), "{name} leaked into a non-fleet report");
        }
        // A fleet cell: coordinates and tail metrics ride along.
        let mut r = result();
        r.jobs = Some(3);
        r.job_slowdowns = Some(vec![1.0, 1.5, 2.0]);
        r.slowdown_p50 = Some(1.5);
        r.slowdown_p95 = Some(2.0);
        r.slowdown_p99 = Some(2.0);
        let mut c = record(0, Ok(r));
        c.scheduler = Some("least-loaded".into());
        c.arrival_rate_hz = Some(0.25);
        let rep = report(vec![c]);
        let j = rep.to_json();
        assert!(j.contains("\"scheduler\": \"least-loaded\""));
        assert!(j.contains("\"arrival_rate_hz\": 0.25"));
        assert!(j.contains("\"jobs\": 3"));
        assert!(j.contains("\"job_slowdowns\": [1, 1.5, 2]"));
        assert!(j.contains("\"slowdown_p95\": 2"));
        // All of them are part of the deterministic payload.
        let d = rep.deterministic_json();
        assert!(d.contains("\"scheduler\"") && d.contains("\"slowdown_p99\""));
    }

    #[test]
    fn trace_path_is_volatile_and_omitted_when_absent() {
        // No trace dir: the name never appears, in either serialization.
        let plain = report(vec![record(0, Ok(result()))]);
        assert!(!plain.to_json().contains("trace_path"));
        // With a trace: full artifact carries the path, the deterministic
        // payload stays byte-identical to the untraced report.
        let mut c = record(0, Ok(result()));
        c.trace_path = Some("results/traces/trace-cell0.json".into());
        let traced = report(vec![c]);
        assert!(traced.to_json().contains("\"trace_path\": \"results/traces/trace-cell0.json\""));
        assert_eq!(plain.deterministic_json(), traced.deterministic_json());
    }

    #[test]
    fn memoization_provenance_is_volatile_and_omitted_when_absent() {
        // A cold, unshared cell: none of the names appear anywhere.
        let cold = report(vec![record(0, Ok(result()))]);
        for name in ["dedup_class", "cache_hit"] {
            assert!(!cold.to_json().contains(name), "{name} leaked into a cold report");
        }
        assert!(cold.to_json().contains("\"executed_cells\": 1"));
        assert!(!cold.deterministic_json().contains("executed_cells"));
        // A shared, cache-served cell: full artifact carries the
        // provenance, deterministic payload is byte-identical to cold.
        let mut c = record(0, Ok(result()));
        c.dedup_class = Some("00interlocking00".into());
        c.cache_hit = true;
        let mut warm = report(vec![c]);
        warm.executed_cells = 0;
        let j = warm.to_json();
        assert!(j.contains("\"dedup_class\": \"00interlocking00\""));
        assert!(j.contains("\"cache_hit\": true"));
        assert!(j.contains("\"executed_cells\": 0"));
        assert_eq!(cold.deterministic_json(), warm.deterministic_json());
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.0), "1");
    }

    #[test]
    fn find_matches_coordinates() {
        let r = report(vec![record(0, Ok(result()))]);
        assert!(r.find("SC", "bwap", ScenarioKind::Standalone, 1, None).is_some());
        assert!(r.find("SC", "bwap", ScenarioKind::Coscheduled, 1, None).is_none());
        assert!(r.find("SC", "bwap", ScenarioKind::Standalone, 1, Some(0.5)).is_none());
    }

    #[test]
    fn write_json_sanitizes_name() {
        let dir = std::env::temp_dir().join("bwap-campaign-report-test");
        std::env::set_var("BWAP_RESULTS_DIR", &dir);
        let mut r = report(Vec::new());
        r.campaign = "a/b c".into();
        let p = r.write_json().unwrap();
        std::env::remove_var("BWAP_RESULTS_DIR");
        assert!(p.ends_with("a-b-c.campaign.json"), "{}", p.display());
        assert!(std::fs::read_to_string(&p).unwrap().contains("\"campaign\": \"a/b c\""));
        let _ = std::fs::remove_dir_all(dir);
    }
}
