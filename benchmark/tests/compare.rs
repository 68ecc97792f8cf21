//! `compare` applies the bounds of `BENCHMARK.json` and the exact rules.

use gpupoly_benchmark::catalogue::{self, END_TO_END};
use gpupoly_benchmark::report;
use serde::Value;

/// A result file in which every end-to-end metric of every workload reads
/// `value`, except `queries_per_s`, which reads `qps`.
fn result_file(name: &str, digest: &str, value: f64, qps: f64, failed: f64) -> String {
    let decl = catalogue::declaration().expect("BENCHMARK.json parses");
    let metrics = Value::Obj(
        END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "queries_per_s" {
                    qps
                } else {
                    value
                };
                (
                    m.name.to_string(),
                    Value::obj([
                        ("value", Value::Num(v)),
                        ("unit", Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let workloads = Value::Obj(
        decl.workloads
            .iter()
            .map(|w| {
                let entry = Value::obj([
                    ("workload_digest", Value::Str(digest.to_string())),
                    ("failed", Value::Num(failed)),
                    ("end_to_end", metrics.clone()),
                ]);
                (w.clone(), entry)
            })
            .collect(),
    );
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let text = serde_json::to_string(&Value::obj([("workloads", workloads)])).expect("serialises");
    std::fs::write(&path, text).expect("write result file");
    path.to_string_lossy().into_owned()
}

#[test]
fn bounds_and_exact_rules() {
    let decl = catalogue::declaration().expect("BENCHMARK.json parses");
    let workloads = decl.workloads.len();
    let base = result_file("base.json", "d1", 0.5, 10.0, 0.0);

    let same = result_file("same.json", "d1", 0.5, 10.0, 0.0);
    assert_eq!(report::compare(&base, &same, &decl), Ok(0));

    // Fewer queries per second by half the bound is inside it, by one and a
    // half times the bound is not.
    let bound = decl
        .end_to_end
        .iter()
        .find(|m| m.name == "queries_per_s")
        .and_then(|m| m.bound)
        .expect("queries_per_s is bounded");
    let slower = result_file("slower.json", "d1", 0.5, 10.0 * (1.0 - 0.5 * bound), 0.0);
    assert_eq!(report::compare(&base, &slower, &decl), Ok(0));
    let slow = result_file("slow.json", "d1", 0.5, 10.0 * (1.0 - 1.5 * bound), 0.0);
    assert_eq!(report::compare(&base, &slow, &decl), Ok(workloads));
    // Faster is never a breach.
    assert_eq!(report::compare(&slow, &base, &decl), Ok(0));

    // Other inputs: reported once per workload, and proven_share falls back
    // to its bound.
    let other = result_file("other.json", "d2", 0.5, 10.0, 0.0);
    assert_eq!(report::compare(&base, &other, &decl), Ok(workloads));

    // A failure that was not there before is a breach whatever the metrics say.
    let wrong = result_file("wrong.json", "d1", 0.5, 10.0, 1.0);
    assert_eq!(report::compare(&base, &wrong, &decl), Ok(workloads));
}

#[test]
fn any_drop_of_proven_share_over_the_same_inputs_is_a_breach() {
    let decl = catalogue::declaration().expect("BENCHMARK.json parses");
    let base = result_file("p-base.json", "d1", 0.5, 10.0, 0.0);
    // Every metric 1% lower: inside every bound and better for the
    // lower-is-better ones, but proven_share dropped.
    let lower = result_file("p-lower.json", "d1", 0.495, 10.0, 0.0);
    assert_eq!(
        report::compare(&base, &lower, &decl),
        Ok(decl.workloads.len())
    );
}
