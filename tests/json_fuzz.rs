//! No document can crash the JSON readers. Byte-level mutations of every
//! golden campaign report and of a real Chrome trace — bytes replaced,
//! deleted or cut off at proptest-chosen offsets — go through every entry
//! point that reads JSON: `Json::parse`, the explorer's `render` and the
//! trace validator's `validate`/`check_report`. Each call must return
//! `Ok` or `Err`; a panic fails the property with the mutation attached.
//! (Nesting depth is pinned separately: a stack overflow aborts the
//! process and cannot be caught here.)

use bwap_bench::{explorer, tracecheck};
use bwap_suite::prelude::*;
use bwap_workloads::json::Json;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// `(name, bytes)` of every document the mutations start from.
fn documents() -> &'static [(String, Vec<u8>)] {
    static DOCS: OnceLock<Vec<(String, Vec<u8>)>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
        let mut docs: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .expect("golden directory")
            .map(|e| e.expect("golden entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .map(|p| {
                let name = p.file_name().expect("golden file name").to_string_lossy().into_owned();
                (name, std::fs::read(&p).expect("golden file"))
            })
            .collect();
        docs.sort();
        assert!(!docs.is_empty(), "no goldens under {}", dir.display());
        let machine = machines::machine_b();
        let (_, sink) = run_standalone_traced(
            &machine,
            &workloads::streamcluster().scaled_down(32.0),
            machine.best_worker_set(2),
            &PlacementPolicy::Bwap(BwapConfig::default()),
            SimConfig::default(),
        )
        .expect("traced run");
        let trace = sink.to_chrome_json();
        tracecheck::validate(&trace).expect("the unmutated trace validates");
        for (name, bytes) in &docs {
            let report = std::str::from_utf8(bytes).expect("UTF-8 golden");
            explorer::render(report, None).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        docs.push(("chrome trace".into(), trace.into_bytes()));
        docs
    })
}

/// Bytes that steer the parser into its interesting branches.
const STRUCTURAL: &[u8] = b"{}[]\":,\\-+.0123456789eE tfnu";

/// One edit: `(kind, offset seed, replacement byte)`. Two thirds of the
/// replacement bytes are structural, so edits reach past the lexer.
fn edit() -> impl Strategy<Value = (u8, u64, u8)> {
    let byte = prop_oneof![
        any::<u8>(),
        (0..STRUCTURAL.len()).prop_map(|i| STRUCTURAL[i]),
        (0..STRUCTURAL.len()).prop_map(|i| STRUCTURAL[i]),
    ];
    (0u8..3, any::<u64>(), byte)
}

fn mutate(mut bytes: Vec<u8>, edits: &[(u8, u64, u8)]) -> Vec<u8> {
    for &(kind, at, byte) in edits {
        if bytes.is_empty() {
            break;
        }
        let at = (at % bytes.len() as u64) as usize;
        match kind {
            0 => bytes[at] = byte,
            1 => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_documents_never_panic_the_readers(
        doc in 0usize..64,
        edits in prop::collection::vec(edit(), 1..6),
    ) {
        let (name, bytes) = &documents()[doc % documents().len()];
        let text = String::from_utf8_lossy(&mutate(bytes.clone(), &edits)).into_owned();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = Json::parse(&text);
            let _ = explorer::render(&text, None);
            let _ = tracecheck::validate(&text);
            let _ = tracecheck::check_report(&text, |_| Ok(text.clone()));
        }));
        prop_assert!(outcome.is_ok(), "a reader panicked on a mutation of {name}");
    }
}
