//! The unified SQL submission surface: `Engine::execute_sql` and
//! `QueryService::submit_sql` compile through the shared plan cache, report
//! hit/miss through `QueryMetrics::plan_cache`, and reject bad statements
//! eagerly with a spanned `PlanError`.

use std::sync::Arc;
use uot_core::{
    Engine, EngineConfig, EngineError, ExecOptions, PlanCacheOutcome, QueryService, ServiceConfig,
};
use uot_storage::{BlockFormat, Catalog, DataType, Schema, TableBuilder, Value};

fn catalog() -> Arc<Catalog> {
    let c = Catalog::new();
    let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
    let mut tb = TableBuilder::new("fact", s, BlockFormat::Column, 256);
    for i in 0..500 {
        tb.append(&[Value::I32(i % 10), Value::F64(i as f64 * 0.25)])
            .unwrap();
    }
    c.register(tb.finish()).unwrap();
    c
}

const QUERY: &str = "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM fact GROUP BY k ORDER BY k";

#[test]
fn engine_execute_sql_caches_compiled_plans() {
    let engine = Engine::new(EngineConfig::serial()).with_catalog(catalog());
    assert_eq!(engine.plan_cache_stats().entries, 0);

    let first = engine.execute_sql(QUERY).unwrap();
    assert_eq!(first.metrics.plan_cache, Some(PlanCacheOutcome::Miss));
    assert_eq!(first.rows().len(), 10);

    // Same statement, different whitespace and case: the normalized key hits.
    let second = engine
        .execute_sql("select k, count(*) as n, sum(v) as s from fact group by k order by k")
        .unwrap();
    assert_eq!(second.metrics.plan_cache, Some(PlanCacheOutcome::Hit));
    assert_eq!(second.rows(), first.rows());

    let stats = engine.plan_cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
}

#[test]
fn engine_execute_sql_without_catalog_is_a_config_error() {
    let engine = Engine::new(EngineConfig::serial());
    match engine.execute_sql(QUERY) {
        Err(EngineError::Config(msg)) => assert!(msg.contains("catalog"), "{msg}"),
        other => panic!("expected Config error, got {other:?}"),
    }
}

#[test]
fn service_submit_sql_shares_one_plan_cache_across_clients() {
    let service = QueryService::start(ServiceConfig {
        workers: 2,
        catalog: catalog(),
        ..ServiceConfig::default()
    })
    .unwrap();

    let first = service.submit_sql(QUERY).unwrap().wait().unwrap();
    assert_eq!(first.metrics.plan_cache, Some(PlanCacheOutcome::Miss));

    // Repeated submissions — as a second client would issue them — must hit.
    for _ in 0..3 {
        let r = service
            .submit_sql_with(QUERY, ExecOptions::default())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(r.metrics.plan_cache, Some(PlanCacheOutcome::Hit));
        assert_eq!(r.rows(), first.rows());
    }

    let stats = service.plan_cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (3, 1, 1));
    assert!(stats.hit_rate() > 0.74 && stats.hit_rate() < 0.76);
    service.shutdown();
}

#[test]
fn service_submit_sql_rejects_bad_statements_eagerly() {
    let cat = catalog();
    let service = QueryService::start(ServiceConfig {
        workers: 1,
        catalog: cat.clone(),
        ..ServiceConfig::default()
    })
    .unwrap();
    // Frontend failures surface on submit, not through the handle, and are
    // never cached.
    match service.submit_sql("SELECT nope FROM fact") {
        Err(EngineError::Sql(e)) => {
            assert_eq!(e.kind, uot_core::PlanErrorKind::UnknownColumn);
            assert!(e.span.is_some(), "error should carry a byte span");
        }
        other => panic!("expected Sql error, got {other:?}"),
    }
    assert_eq!(service.plan_cache_stats().entries, 0);

    // Plan-based submission stays available as the escape hatch.
    let mut pb = uot_core::PlanBuilder::new();
    let t = cat.get("fact").unwrap();
    let s = pb
        .filter(uot_core::Source::Table(t), uot_expr::Predicate::True)
        .unwrap();
    let plan = pb.build(s).unwrap();
    let r = service.submit(plan).unwrap().wait().unwrap();
    assert_eq!(
        r.metrics.plan_cache, None,
        "plan submissions bypass the cache"
    );
    assert_eq!(r.rows().len(), 500);
    service.shutdown();
}

/// A `part`-like table whose `p_name` column (`Char(24)`) holds 40 names,
/// eight of them containing "green".
fn names(format: BlockFormat) -> Arc<Catalog> {
    let c = Catalog::new();
    let s = Schema::from_pairs(&[
        ("p_partkey", DataType::Int32),
        ("p_name", DataType::Char(24)),
    ]);
    let mut tb = TableBuilder::new("part", s, format, 512);
    let colors = ["forest green", "ivory", "lime", "navy blush", "dark"];
    for i in 0..40 {
        let name = format!("{} {i}", colors[i as usize % colors.len()]);
        tb.append(&[Value::I32(i), Value::Str(name)]).unwrap();
    }
    c.register(tb.finish()).unwrap();
    c
}

#[test]
fn like_with_an_empty_substring_matches_every_row() {
    for format in [BlockFormat::Row, BlockFormat::Column] {
        let catalog = names(format);
        let rows = catalog.get("part").unwrap().num_rows();
        let engine = Engine::new(EngineConfig::serial()).with_catalog(catalog.clone());
        for (pattern, want) in [
            ("'%%'", rows),
            ("'%%%'", rows),
            ("'%'", rows),
            ("'%green%'", 8),
        ] {
            for (negated, want) in [("", want), ("NOT ", rows - want)] {
                let sql =
                    format!("SELECT COUNT(*) AS n FROM part WHERE p_name {negated}LIKE {pattern}");
                // The engine filters with selection vectors; the baseline
                // evaluates bitmaps. Both must count the same rows.
                let got = engine.execute_sql(&sql).unwrap().rows();
                let plan = uot_core::sql::compile(&sql, &catalog).unwrap();
                let base = uot_baseline::BaselineEngine::new()
                    .execute(&plan)
                    .unwrap()
                    .rows();
                assert_eq!(
                    got,
                    vec![vec![Value::I64(want as i64)]],
                    "{sql} ({format:?})"
                );
                assert_eq!(base, got, "{sql} ({format:?})");
            }
        }
    }
}
