//! The operator-at-a-time interpreter.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uot_core::ops::builders::{into_virtual_block, make_builders};
use uot_core::plan::{JoinType, OperatorKind, QueryPlan, SortKey, Source};
use uot_core::{EngineError, Result};
use uot_expr::{gather_from, AggSpec, CmpOp};
use uot_storage::{
    hash_key::FxBuildHasher, ColumnBlock, ColumnData, DataType, HashKey, StorageBlock, Value,
};

/// Per-operator and whole-query measurements.
#[derive(Debug, Clone, Default)]
pub struct BaselineMetrics {
    /// `(operator name, wall time, output rows)` in execution order.
    pub per_op: Vec<(String, Duration, usize)>,
    /// End-to-end wall time.
    pub wall_time: Duration,
    /// Peak bytes of live materialized intermediates + hash tables.
    pub peak_bytes: usize,
}

/// A materialized query result.
#[derive(Debug)]
pub struct BaselineResult {
    /// The result table (single columnar block).
    pub result: StorageBlock,
    /// Measurements.
    pub metrics: BaselineMetrics,
}

impl BaselineResult {
    /// Rows in canonical order (for comparisons with the UoT engine).
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.result.all_rows();
        rows.sort_by(|a, b| cmp_rows(a, b));
        rows
    }

    /// Rows in result order.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        self.result.all_rows()
    }
}

fn cmp_rows(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let o = x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal);
        if o != std::cmp::Ordering::Equal {
            return o;
        }
    }
    std::cmp::Ordering::Equal
}

/// A build side: its materialized input and, per join key, the input rows
/// holding it in input order. Deliberately independent of the engine's
/// `JoinHashTable`, so the baseline stays an oracle for it.
struct HashIndex {
    input: Arc<StorageBlock>,
    payload_cols: Vec<usize>,
    rows: HashMap<HashKey, Vec<usize>>,
}

impl HashIndex {
    fn build(input: Arc<StorageBlock>, key_cols: &[usize], payload_cols: &[usize]) -> Self {
        let mut rows: HashMap<HashKey, Vec<usize>> = HashMap::new();
        for row in 0..input.num_rows() {
            rows.entry(HashKey::from_row(&input, row, key_cols))
                .or_default()
                .push(row);
        }
        HashIndex {
            input,
            payload_cols: payload_cols.to_vec(),
            rows,
        }
    }

    /// The build rows matching `key`.
    fn matches(&self, key: &HashKey) -> &[usize] {
        self.rows.get(key).map_or(&[], Vec::as_slice)
    }

    /// Payload bytes plus the row lists and key entries.
    fn bytes(&self) -> usize {
        let payload: usize = self
            .payload_cols
            .iter()
            .map(|&c| self.input.schema().dtype(c).width())
            .sum();
        self.input.num_rows() * (payload + std::mem::size_of::<usize>())
            + self.rows.len() * std::mem::size_of::<(HashKey, Vec<usize>)>()
    }
}

/// What an executed operator leaves behind.
enum Materialized {
    Table(Arc<StorageBlock>),
    Hash(HashIndex),
}

impl Materialized {
    fn bytes(&self) -> usize {
        match self {
            Materialized::Table(b) => b.num_rows() * b.schema().tuple_width(),
            Materialized::Hash(h) => h.bytes(),
        }
    }

    fn table(&self) -> Result<&Arc<StorageBlock>> {
        match self {
            Materialized::Table(b) => Ok(b),
            Materialized::Hash(_) => Err(EngineError::Internal(
                "expected a materialized table, found a hash table".into(),
            )),
        }
    }

    fn hash(&self) -> Result<&HashIndex> {
        match self {
            Materialized::Hash(h) => Ok(h),
            Materialized::Table(_) => Err(EngineError::Internal(
                "expected a hash table, found a table".into(),
            )),
        }
    }
}

/// The operator-at-a-time engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct BaselineEngine;

impl BaselineEngine {
    /// New engine (no knobs: the execution model *is* the configuration).
    pub fn new() -> Self {
        BaselineEngine
    }

    /// Execute `plan`, one operator at a time.
    pub fn execute(&self, plan: &QueryPlan) -> Result<BaselineResult> {
        let start = Instant::now();
        let mut metrics = BaselineMetrics::default();
        let mut outputs: Vec<Option<Materialized>> = (0..plan.len()).map(|_| None).collect();
        let mut live_bytes = 0usize;

        for id in 0..plan.len() {
            let t0 = Instant::now();
            let out = self.run_op(plan, id, &outputs)?;
            let rows = match &out {
                Materialized::Table(b) => b.num_rows(),
                Materialized::Hash(h) => h.input.num_rows(),
            };
            live_bytes += out.bytes();
            metrics.peak_bytes = metrics.peak_bytes.max(live_bytes);
            metrics
                .per_op
                .push((plan.op(id).name.clone(), t0.elapsed(), rows));
            outputs[id] = Some(out);
            // Operator-at-a-time: inputs whose only consumer just ran can be
            // released (MonetDB drops consumed BATs the same way).
            for dep in self.inputs_of(plan, id) {
                if plan.consumer_of(dep) == Some(id) {
                    if let Some(m) = outputs[dep].take() {
                        live_bytes -= m.bytes();
                    }
                }
            }
        }

        let sink = outputs[plan.sink()]
            .take()
            .ok_or_else(|| EngineError::Internal("sink produced nothing".into()))?;
        let result = match sink {
            Materialized::Table(b) => Arc::try_unwrap(b).unwrap_or_else(|arc| (*arc).clone()),
            Materialized::Hash(_) => {
                return Err(EngineError::Internal("sink was a hash table".into()))
            }
        };
        metrics.wall_time = start.elapsed();
        Ok(BaselineResult { result, metrics })
    }

    fn inputs_of(&self, plan: &QueryPlan, id: usize) -> Vec<usize> {
        let mut v = Vec::new();
        if let Source::Op(src) = plan.op(id).kind.stream_source() {
            v.push(*src);
        }
        v.extend(plan.op(id).kind.blocking_deps());
        v
    }

    /// Materialize a source as one giant columnar block.
    fn materialize(
        &self,
        _plan: &QueryPlan,
        src: &Source,
        outputs: &[Option<Materialized>],
    ) -> Result<Arc<StorageBlock>> {
        match src {
            Source::Op(id) => outputs[*id]
                .as_ref()
                .ok_or_else(|| EngineError::Internal(format!("operator {id} not yet run")))?
                .table()
                .cloned(),
            Source::Table(t) => {
                let schema = t.schema().clone();
                let n = t.num_rows();
                let mut cols = Vec::with_capacity(schema.len());
                for c in 0..schema.len() {
                    let mut parts: Vec<ColumnData> = Vec::with_capacity(t.num_blocks());
                    for b in t.blocks() {
                        parts.push(uot_expr::gather_all(b, c).map_err(EngineError::from)?);
                    }
                    cols.push(concat_columns(parts, schema.dtype(c)));
                }
                Ok(Arc::new(StorageBlock::Column(ColumnBlock::from_columns(
                    schema, cols, n,
                )?)))
            }
        }
    }

    fn run_op(
        &self,
        plan: &QueryPlan,
        id: usize,
        outputs: &[Option<Materialized>],
    ) -> Result<Materialized> {
        let op = plan.op(id);
        match &op.kind {
            OperatorKind::Select {
                source,
                predicate,
                projections,
                // The baseline ignores LIP: operator-at-a-time execution
                // materializes everything regardless, and the downstream
                // joins drop the same rows, so results are identical.
                lip: _,
            } => {
                let input = self.materialize(plan, source, outputs)?;
                let bm = predicate.eval(&input).map_err(EngineError::from)?;
                let rows: Vec<usize> = bm.iter_ones().collect();
                let cols: Vec<ColumnData> = projections
                    .iter()
                    .map(|p| p.eval_gather(&input, &rows))
                    .collect::<std::result::Result<_, _>>()
                    .map_err(EngineError::from)?;
                Ok(Materialized::Table(Arc::new(StorageBlock::Column(
                    ColumnBlock::from_columns(op.out_schema.clone(), cols, rows.len())?,
                ))))
            }
            OperatorKind::BuildHash {
                source,
                key_cols,
                payload_cols,
            } => {
                let input = self.materialize(plan, source, outputs)?;
                Ok(Materialized::Hash(HashIndex::build(
                    input,
                    key_cols,
                    payload_cols,
                )))
            }
            OperatorKind::Probe {
                probe,
                build,
                probe_key_cols,
                probe_out_cols,
                build_out_cols,
                join,
            } => {
                let input = self.materialize(plan, probe, outputs)?;
                let ht = outputs[*build]
                    .as_ref()
                    .ok_or_else(|| EngineError::Internal("build not yet run".into()))?
                    .hash()?;
                let mut builders = make_builders(&op.out_schema);
                let n_probe = probe_out_cols.len();
                for row in 0..input.num_rows() {
                    let key = HashKey::from_row(&input, row, probe_key_cols);
                    let matches = ht.matches(&key);
                    match join {
                        JoinType::Inner => {
                            // Newest build row first. Build output columns
                            // index the payload: the build's `payload_cols`.
                            for &b in matches.iter().rev() {
                                for (j, &c) in probe_out_cols.iter().enumerate() {
                                    builders[j].push_from_block(&input, row, c);
                                }
                                for (j, &c) in build_out_cols.iter().enumerate() {
                                    builders[n_probe + j].push_from_block(
                                        &ht.input,
                                        b,
                                        ht.payload_cols[c],
                                    );
                                }
                            }
                        }
                        JoinType::Semi => {
                            if !matches.is_empty() {
                                for (j, &c) in probe_out_cols.iter().enumerate() {
                                    builders[j].push_from_block(&input, row, c);
                                }
                            }
                        }
                        JoinType::Anti => {
                            if matches.is_empty() {
                                for (j, &c) in probe_out_cols.iter().enumerate() {
                                    builders[j].push_from_block(&input, row, c);
                                }
                            }
                        }
                    }
                }
                Ok(Materialized::Table(Arc::new(into_virtual_block(
                    op.out_schema.clone(),
                    builders,
                )?)))
            }
            OperatorKind::Aggregate {
                source,
                group_by,
                aggs,
            } => {
                let input = self.materialize(plan, source, outputs)?;
                let rows = self.aggregate(&input, group_by, aggs)?;
                self.rows_to_table(op.out_schema.clone(), rows)
            }
            OperatorKind::Sort {
                source,
                keys,
                limit,
            } => {
                let input = self.materialize(plan, source, outputs)?;
                let mut rows = input.all_rows();
                rows.sort_by(|a, b| cmp_sort(a, b, keys));
                if let Some(n) = limit {
                    rows.truncate(*n);
                }
                self.rows_to_table(op.out_schema.clone(), rows)
            }
            OperatorKind::NestedLoops {
                left,
                right,
                conds,
                left_out,
                right_out,
            } => {
                let l = self.materialize(plan, left, outputs)?;
                let r = outputs[*right]
                    .as_ref()
                    .ok_or_else(|| EngineError::Internal("inner side not yet run".into()))?
                    .table()?
                    .clone();
                let mut builders = make_builders(&op.out_schema);
                let nl = left_out.len();
                for i in 0..l.num_rows() {
                    for j in 0..r.num_rows() {
                        if conds
                            .iter()
                            .all(|&(lc, cmp, rc)| cmp_fields(&l, i, lc, &r, j, rc, cmp))
                        {
                            for (k, &c) in left_out.iter().enumerate() {
                                builders[k].push_from_block(&l, i, c);
                            }
                            for (k, &c) in right_out.iter().enumerate() {
                                builders[nl + k].push_from_block(&r, j, c);
                            }
                        }
                    }
                }
                Ok(Materialized::Table(Arc::new(into_virtual_block(
                    op.out_schema.clone(),
                    builders,
                )?)))
            }
            OperatorKind::Limit { source, n } => {
                let input = self.materialize(plan, source, outputs)?;
                let take = (*n).min(input.num_rows());
                let rows: Vec<usize> = (0..take).collect();
                let cols: Vec<ColumnData> = (0..op.out_schema.len())
                    .map(|c| uot_expr::gather_column(&input, c, &rows))
                    .collect::<std::result::Result<_, _>>()
                    .map_err(EngineError::from)?;
                Ok(Materialized::Table(Arc::new(StorageBlock::Column(
                    ColumnBlock::from_columns(op.out_schema.clone(), cols, take)?,
                ))))
            }
        }
    }

    fn aggregate(
        &self,
        input: &StorageBlock,
        group_by: &[usize],
        aggs: &[AggSpec],
    ) -> Result<Vec<Vec<Value>>> {
        let schema = input.schema().clone();
        let arg_cols: Vec<Option<ColumnData>> = aggs
            .iter()
            .map(|a| {
                a.arg
                    .as_ref()
                    .map(|e| e.eval_all(input))
                    .transpose()
                    .map_err(EngineError::from)
            })
            .collect::<Result<_>>()?;
        let mut groups: HashMap<HashKey, (Vec<Value>, Vec<uot_expr::AggState>), FxBuildHasher> =
            HashMap::default();
        let mut rows_by_group: HashMap<HashKey, Vec<usize>, FxBuildHasher> = HashMap::default();
        let n = input.num_rows();
        if group_by.is_empty() {
            rows_by_group.insert(HashKey::from_i64(0), (0..n).collect());
        } else {
            for row in 0..n {
                let key = HashKey::from_row(input, row, group_by);
                rows_by_group.entry(key).or_default().push(row);
            }
        }
        if rows_by_group.is_empty() && group_by.is_empty() {
            rows_by_group.insert(HashKey::from_i64(0), Vec::new());
        }
        for (key, rows) in rows_by_group {
            let group_vals: Vec<Value> = group_by
                .iter()
                .map(|&g| input.value_at(rows[0], g).expect("in bounds"))
                .collect::<Vec<_>>();
            let mut states: Vec<uot_expr::AggState> = aggs
                .iter()
                .map(|a| a.init_state(&schema).expect("validated"))
                .collect();
            for ((state, spec), arg) in states.iter_mut().zip(aggs).zip(&arg_cols) {
                match (spec.func, arg) {
                    (uot_expr::AggFunc::CountStar, _) => state.update_count(rows.len()),
                    (_, Some(col)) => state
                        .update_column(&gather_from(col, &rows))
                        .map_err(EngineError::from)?,
                    (_, None) => return Err(EngineError::Internal("aggregate without arg".into())),
                }
            }
            groups.insert(key, (group_vals, states));
        }
        let mut rows: Vec<Vec<Value>> = groups
            .into_values()
            .map(|(mut g, states)| {
                g.extend(states.iter().map(|s| s.finalize()));
                g
            })
            .collect();
        rows.sort_by(|a, b| cmp_rows(a, b));
        Ok(rows)
    }

    fn rows_to_table(
        &self,
        schema: Arc<uot_storage::Schema>,
        rows: Vec<Vec<Value>>,
    ) -> Result<Materialized> {
        let n = rows.len();
        let mut block = ColumnBlock::new(schema.clone(), (n.max(1)) * schema.tuple_width())?;
        for r in &rows {
            block.append_row(r)?;
        }
        Ok(Materialized::Table(Arc::new(StorageBlock::Column(block))))
    }
}

/// Scalar-aggregate edge case: zero input rows still need the group-values
/// lookup to be skipped. Handled by construction above (`rows[0]` is only
/// touched when `group_by` is non-empty, which implies rows exist).
fn cmp_sort(a: &[Value], b: &[Value], keys: &[SortKey]) -> std::cmp::Ordering {
    for k in keys {
        let o = a[k.col]
            .partial_cmp(&b[k.col])
            .unwrap_or(std::cmp::Ordering::Equal);
        let o = if k.desc { o.reverse() } else { o };
        if o != std::cmp::Ordering::Equal {
            return o;
        }
    }
    cmp_rows(a, b)
}

fn cmp_fields(
    l: &StorageBlock,
    i: usize,
    lc: usize,
    r: &StorageBlock,
    j: usize,
    rc: usize,
    op: CmpOp,
) -> bool {
    use std::cmp::Ordering;
    let ord = match (l.schema().dtype(lc), r.schema().dtype(rc)) {
        (DataType::Int32, DataType::Int32) => l.i32_at(i, lc).cmp(&r.i32_at(j, rc)),
        (DataType::Int64, DataType::Int64) => l.i64_at(i, lc).cmp(&r.i64_at(j, rc)),
        (DataType::Date, DataType::Date) => l.date_at(i, lc).cmp(&r.date_at(j, rc)),
        (DataType::Float64, DataType::Float64) => l
            .f64_at(i, lc)
            .partial_cmp(&r.f64_at(j, rc))
            .unwrap_or(Ordering::Equal),
        (DataType::Char(_), DataType::Char(_)) => l.char_at(i, lc).cmp(r.char_at(j, rc)),
        _ => return false,
    };
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// Concatenate column parts of the same type.
fn concat_columns(parts: Vec<ColumnData>, dtype: DataType) -> ColumnData {
    match dtype {
        DataType::Int32 => ColumnData::I32(
            parts
                .into_iter()
                .flat_map(|p| match p {
                    ColumnData::I32(v) => v,
                    _ => unreachable!("schema-typed parts"),
                })
                .collect(),
        ),
        DataType::Int64 => ColumnData::I64(
            parts
                .into_iter()
                .flat_map(|p| match p {
                    ColumnData::I64(v) => v,
                    _ => unreachable!("schema-typed parts"),
                })
                .collect(),
        ),
        DataType::Float64 => ColumnData::F64(
            parts
                .into_iter()
                .flat_map(|p| match p {
                    ColumnData::F64(v) => v,
                    _ => unreachable!("schema-typed parts"),
                })
                .collect(),
        ),
        DataType::Date => ColumnData::Date(
            parts
                .into_iter()
                .flat_map(|p| match p {
                    ColumnData::Date(v) => v,
                    _ => unreachable!("schema-typed parts"),
                })
                .collect(),
        ),
        DataType::Char(n) => {
            let mut data = Vec::new();
            for p in parts {
                match p {
                    ColumnData::Char { width, data: d } => {
                        debug_assert_eq!(width, n as usize);
                        data.extend_from_slice(&d);
                    }
                    _ => unreachable!("schema-typed parts"),
                }
            }
            ColumnData::Char {
                width: n as usize,
                data,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uot_core::plan::PlanBuilder;
    use uot_core::{Engine, EngineConfig};
    use uot_expr::{cmp, col, lit, Predicate};
    use uot_storage::{BlockFormat, Schema, Table, TableBuilder};

    fn table(name: &str, n: i32) -> Arc<Table> {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
        let mut tb = TableBuilder::new(name, s, BlockFormat::Column, 96);
        for i in 0..n {
            tb.append(&[Value::I32(i % 10), Value::F64(i as f64)])
                .unwrap();
        }
        Arc::new(tb.finish())
    }

    fn join_plan() -> QueryPlan {
        let dim = table("dim", 10);
        let fact = table("fact", 100);
        let mut pb = PlanBuilder::new();
        let b = pb.build_hash(Source::Table(dim), vec![0], vec![1]).unwrap();
        let s = pb
            .filter(Source::Table(fact), cmp(col(1), CmpOp::Lt, lit(50.0)))
            .unwrap();
        let p = pb
            .probe(
                Source::Op(s),
                b,
                vec![0],
                vec![0, 1],
                vec![0],
                JoinType::Inner,
            )
            .unwrap();
        let a = pb
            .aggregate(
                Source::Op(p),
                vec![0],
                vec![AggSpec::count_star(), AggSpec::sum(col(1))],
                &["n", "s"],
            )
            .unwrap();
        pb.build(a).unwrap()
    }

    #[test]
    fn matches_the_uot_engine() {
        let plan = join_plan();
        let uot = Engine::new(EngineConfig::serial())
            .execute(plan.clone())
            .unwrap();
        let base = BaselineEngine::new().execute(&plan).unwrap();
        assert_eq!(base.sorted_rows(), uot.sorted_rows());
    }

    #[test]
    fn per_op_metrics_cover_all_operators() {
        let plan = join_plan();
        let r = BaselineEngine::new().execute(&plan).unwrap();
        assert_eq!(r.metrics.per_op.len(), plan.len());
        assert!(r.metrics.peak_bytes > 0);
        assert!(r.metrics.wall_time.as_nanos() > 0);
    }

    #[test]
    fn full_materialization_shows_in_peak_bytes() {
        // A pass-through filter materializes ~the whole table: peak must be
        // at least the table's data size.
        let fact = table("fact2", 1000);
        let mut pb = PlanBuilder::new();
        let s = pb
            .filter(Source::Table(fact.clone()), Predicate::True)
            .unwrap();
        let plan = pb.build(s).unwrap();
        let r = BaselineEngine::new().execute(&plan).unwrap();
        assert!(r.metrics.peak_bytes >= 1000 * 12);
        assert_eq!(r.result.num_rows(), 1000);
    }

    #[test]
    fn sort_and_limit() {
        let fact = table("fact3", 25);
        let mut pb = PlanBuilder::new();
        let s = pb.filter(Source::Table(fact), Predicate::True).unwrap();
        let so = pb
            .sort(Source::Op(s), vec![SortKey::desc(1)], Some(5))
            .unwrap();
        let plan = pb.build(so).unwrap();
        let r = BaselineEngine::new().execute(&plan).unwrap();
        let vs: Vec<f64> = r.rows().iter().map(|row| row[1].as_f64()).collect();
        assert_eq!(vs, vec![24.0, 23.0, 22.0, 21.0, 20.0]);
    }

    #[test]
    fn semi_and_anti_join() {
        let dim = table("dim4", 5); // keys 0..5
        let fact = table("fact4", 20); // keys 0..10 twice
        for (join, expect) in [(JoinType::Semi, 10), (JoinType::Anti, 10)] {
            let mut pb = PlanBuilder::new();
            let b = pb
                .build_hash(Source::Table(dim.clone()), vec![0], vec![])
                .unwrap();
            let p = pb
                .probe(
                    Source::Table(fact.clone()),
                    b,
                    vec![0],
                    vec![0],
                    vec![],
                    join,
                )
                .unwrap();
            let plan = pb.build(p).unwrap();
            let r = BaselineEngine::new().execute(&plan).unwrap();
            assert_eq!(r.result.num_rows(), expect, "{join:?}");
        }
    }

    #[test]
    fn nested_loops() {
        let t = table("t5", 6);
        let mut pb = PlanBuilder::new();
        let inner = pb
            .filter(Source::Table(t.clone()), cmp(col(0), CmpOp::Lt, lit(3i32)))
            .unwrap();
        let j = pb
            .nested_loops(
                Source::Table(t),
                inner,
                vec![(0, CmpOp::Eq, 0)],
                vec![0],
                vec![1],
            )
            .unwrap();
        let plan = pb.build(j).unwrap();
        let r = BaselineEngine::new().execute(&plan).unwrap();
        assert_eq!(r.result.num_rows(), 3);
    }

    #[test]
    fn limit_op() {
        let t = table("t6", 30);
        let mut pb = PlanBuilder::new();
        let s = pb.filter(Source::Table(t), Predicate::True).unwrap();
        let l = pb.limit(Source::Op(s), 7).unwrap();
        let plan = pb.build(l).unwrap();
        let r = BaselineEngine::new().execute(&plan).unwrap();
        assert_eq!(r.result.num_rows(), 7);
    }

    #[test]
    fn scalar_aggregate_over_empty_input() {
        let t = table("t7", 0);
        let mut pb = PlanBuilder::new();
        let a = pb
            .aggregate(
                Source::Table(t),
                vec![],
                vec![AggSpec::count_star()],
                &["n"],
            )
            .unwrap();
        let plan = pb.build(a).unwrap();
        let r = BaselineEngine::new().execute(&plan).unwrap();
        assert_eq!(r.rows(), vec![vec![Value::I64(0)]]);
    }
}
