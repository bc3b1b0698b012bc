//! Smoke self-test of the benchmark: every workload once at a tiny scale,
//! untraced and traced. Checks that every metric `BENCHMARK.json` names is
//! emitted with its unit, that the correctness gate ran and passed, that no
//! trace event was dropped, and that the workloads split the layers the way
//! they were chosen to.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::HashMap;
use std::path::Path;
use uot_perfbench::workload::{Workload, WORKLOADS};
use uot_perfbench::{run, use_scratch_dir, Options, Report};

const SMOKE_SF: f64 = 0.005;

/// `(name, unit)` of every entry in one metric list of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[body.find('[').expect("list opens")..body.find(']').expect("list closes")];
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn field(obj: &str, key: &str) -> String {
    let key = format!("\"{key}\"");
    let rest = &obj[obj.find(&key).expect("key present") + key.len()..];
    let rest = &rest[rest.find('"').expect("string value") + 1..];
    rest[..rest.find('"').expect("string closes")].to_string()
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn values(report: &Report) -> HashMap<String, f64> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

#[test]
fn every_workload_emits_every_metric_and_splits_the_layers() {
    use_scratch_dir(
        Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("perfbench-smoke")
            .as_path(),
    )
    .expect("scratch directory");
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    let mut e2e = HashMap::new();
    let mut layers = HashMap::new();
    for (name, _) in WORKLOADS {
        let w = Workload::at_scale(name, SMOKE_SF).expect("known workload");
        for trace in [false, true] {
            let report = run(
                &w,
                Options {
                    seed: 7,
                    seconds: 0.2,
                    trace,
                },
            );
            let label = format!("{name} trace={trace}");
            assert_eq!(
                report.checked_statements,
                w.statements.len(),
                "{label}: baseline reference missing"
            );
            assert!(report.attempted >= w.statements.len(), "{label}");
            assert_eq!(report.failed, 0, "{label}: wrong or failed answers");
            assert_eq!(report.memory_in_use, 0, "{label}: tracker not drained");
            assert_eq!(report.trace_dropped, 0, "{label}: trace events dropped");
            assert!(report.correct, "{label}");
            let line = report.result_line();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            if trace {
                assert_eq!(emitted(&report), per_layer, "{label}");
                assert!(report.spans.durations("tpch.generate").count() == 1);
                assert!(report.spans.durations("sql.compile").count() > 0);
                layers.insert(name, values(&report));
            } else {
                assert_eq!(emitted(&report), end_to_end, "{label}");
                assert!(report.metrics.iter().all(|m| m.value > 0.0), "{label}");
                e2e.insert(name, values(&report));
            }
        }
    }

    for (name, _) in WORKLOADS {
        let spill = layers[name]["spill.events"];
        assert_eq!(
            spill > 0.0,
            name == "service-spill",
            "{name}: spill.events {spill}"
        );
    }
    let (staged, fused) = (&layers["tpch-staged-low"], &layers["tpch-fused-table"]);
    assert_eq!(staged["fusion.fused_pipelines"], 0.0);
    assert!(fused["fusion.fused_pipelines"] > 0.0);
    assert!(fused["scheduler.transfers"] < staged["scheduler.transfers"]);
    assert!(e2e["tpch-fused-table"]["peak_temp_mb"] > e2e["tpch-staged-low"]["peak_temp_mb"]);
}
