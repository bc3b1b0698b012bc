//! Aggregate functions and their accumulators.
//!
//! The engine's aggregation operators evaluate each aggregate's argument
//! expression into a [`ColumnData`] vector once per block. A scalar
//! aggregate folds the whole vector into one [`AggState`]
//! ([`AggState::update_column`]); a grouped aggregate keeps one state per
//! group and scatters the vector into them by group id
//! ([`AggState::update_scatter`]). States support `merge` so partial
//! aggregates can be combined by the finalize step — the parallel aggregation
//! pattern Quickstep uses.

use crate::error::ExprError;
use crate::exact_sum::ExactF64Sum;
use crate::scalar::ScalarExpr;
use crate::Result;
use uot_storage::{ColumnData, DataType, Schema, Value};

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` — row count, no argument.
    CountStar,
    /// `COUNT(expr)` — equal to row count here (the engine has no NULLs).
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)`.
    Avg,
}

/// One aggregate in a query: a function plus its argument expression.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Argument; `None` only for `CountStar`.
    pub arg: Option<ScalarExpr>,
}

impl AggSpec {
    /// `COUNT(*)`.
    pub fn count_star() -> Self {
        AggSpec {
            func: AggFunc::CountStar,
            arg: None,
        }
    }

    /// `SUM(expr)`.
    pub fn sum(arg: ScalarExpr) -> Self {
        AggSpec {
            func: AggFunc::Sum,
            arg: Some(arg),
        }
    }

    /// `MIN(expr)`.
    pub fn min(arg: ScalarExpr) -> Self {
        AggSpec {
            func: AggFunc::Min,
            arg: Some(arg),
        }
    }

    /// `MAX(expr)`.
    pub fn max(arg: ScalarExpr) -> Self {
        AggSpec {
            func: AggFunc::Max,
            arg: Some(arg),
        }
    }

    /// `AVG(expr)`.
    pub fn avg(arg: ScalarExpr) -> Self {
        AggSpec {
            func: AggFunc::Avg,
            arg: Some(arg),
        }
    }

    /// `COUNT(expr)`.
    pub fn count(arg: ScalarExpr) -> Self {
        AggSpec {
            func: AggFunc::Count,
            arg: Some(arg),
        }
    }

    /// The output type of this aggregate over `input` (used to build result
    /// schemas).
    pub fn output_type(&self, input: &Schema) -> Result<DataType> {
        match self.func {
            AggFunc::CountStar | AggFunc::Count => Ok(DataType::Int64),
            AggFunc::Avg => Ok(DataType::Float64),
            AggFunc::Sum => {
                let t = self.arg_type(input)?;
                match t {
                    DataType::Int32 | DataType::Int64 => Ok(DataType::Int64),
                    DataType::Float64 => Ok(DataType::Float64),
                    other => Err(ExprError::InvalidType {
                        context: "SUM",
                        found: other.name(),
                    }),
                }
            }
            AggFunc::Min | AggFunc::Max => {
                let t = self.arg_type(input)?;
                match t {
                    DataType::Int32 | DataType::Int64 | DataType::Float64 | DataType::Date => Ok(t),
                    other => Err(ExprError::InvalidType {
                        context: "MIN/MAX",
                        found: other.name(),
                    }),
                }
            }
        }
    }

    fn arg_type(&self, input: &Schema) -> Result<DataType> {
        self.arg
            .as_ref()
            .ok_or(ExprError::InvalidType {
                context: "aggregate argument",
                found: "missing".into(),
            })?
            .output_type(input)
    }

    /// Create the initial accumulator for this aggregate over `input`.
    pub fn init_state(&self, input: &Schema) -> Result<AggState> {
        let kind = match self.func {
            AggFunc::CountStar | AggFunc::Count => StateKind::Count(0),
            AggFunc::Avg => StateKind::Avg {
                sum: ExactF64Sum::new(),
                count: 0,
            },
            AggFunc::Sum => match self.arg_type(input)? {
                DataType::Int32 | DataType::Int64 => StateKind::SumI(0),
                DataType::Float64 => StateKind::SumF(ExactF64Sum::new()),
                other => {
                    return Err(ExprError::InvalidType {
                        context: "SUM",
                        found: other.name(),
                    })
                }
            },
            AggFunc::Min | AggFunc::Max => {
                let is_min = self.func == AggFunc::Min;
                match self.arg_type(input)? {
                    DataType::Int32 | DataType::Int64 | DataType::Date => StateKind::ExtremeI {
                        value: None,
                        is_min,
                    },
                    DataType::Float64 => StateKind::ExtremeF {
                        value: None,
                        is_min,
                    },
                    other => {
                        return Err(ExprError::InvalidType {
                            context: "MIN/MAX",
                            found: other.name(),
                        })
                    }
                }
            }
        };
        Ok(AggState {
            kind,
            out_type: self.output_type(input)?,
        })
    }
}

/// Accumulator internals.
#[derive(Debug, Clone, PartialEq)]
enum StateKind {
    Count(u64),
    SumI(i64),
    // Float sums use the exact accumulator so results are bit-identical
    // regardless of how rows were split into per-work-order partials — query
    // output must not depend on blocking, UoT, or degree of parallelism.
    SumF(ExactF64Sum),
    Avg { sum: ExactF64Sum, count: u64 },
    ExtremeI { value: Option<i64>, is_min: bool },
    ExtremeF { value: Option<f64>, is_min: bool },
}

/// A running aggregate accumulator.
#[derive(Debug, Clone, PartialEq)]
pub struct AggState {
    kind: StateKind,
    out_type: DataType,
}

impl AggState {
    /// Fold a vector of argument values (already gathered for the selected
    /// rows) into the accumulator. `CountStar`/`Count` pass the row count via
    /// `update_count` instead.
    pub fn update_column(&mut self, col: &ColumnData) -> Result<()> {
        match &mut self.kind {
            StateKind::Count(c) => *c += col.len() as u64,
            StateKind::SumI(acc) => match col {
                ColumnData::I32(v) => *acc += v.iter().map(|&x| x as i64).sum::<i64>(),
                ColumnData::I64(v) => *acc += v.iter().sum::<i64>(),
                other => return Err(bad("SUM(int)", other)),
            },
            StateKind::SumF(acc) => match col {
                ColumnData::F64(v) => v.iter().for_each(|&x| acc.add(x)),
                other => return Err(bad("SUM(float)", other)),
            },
            StateKind::Avg { sum, count } => match col {
                ColumnData::F64(v) => {
                    v.iter().for_each(|&x| sum.add(x));
                    *count += v.len() as u64;
                }
                ColumnData::I32(v) => {
                    v.iter().for_each(|&x| sum.add(x as f64));
                    *count += v.len() as u64;
                }
                ColumnData::I64(v) => {
                    v.iter().for_each(|&x| sum.add(x as f64));
                    *count += v.len() as u64;
                }
                other => return Err(bad("AVG", other)),
            },
            StateKind::ExtremeI { value, is_min } => {
                let it: Box<dyn Iterator<Item = i64>> = match col {
                    ColumnData::I32(v) => Box::new(v.iter().map(|&x| x as i64)),
                    ColumnData::I64(v) => Box::new(v.iter().copied()),
                    ColumnData::Date(v) => Box::new(v.iter().map(|&x| x as i64)),
                    other => return Err(bad("MIN/MAX(int)", other)),
                };
                for x in it {
                    *value = Some(match *value {
                        None => x,
                        Some(cur) => {
                            if *is_min {
                                cur.min(x)
                            } else {
                                cur.max(x)
                            }
                        }
                    });
                }
            }
            StateKind::ExtremeF { value, is_min } => match col {
                ColumnData::F64(v) => {
                    for &x in v {
                        *value = Some(match *value {
                            None => x,
                            Some(cur) => {
                                if *is_min {
                                    cur.min(x)
                                } else {
                                    cur.max(x)
                                }
                            }
                        });
                    }
                }
                other => return Err(bad("MIN/MAX(float)", other)),
            },
        }
        Ok(())
    }

    /// Fold argument column `col` into per-group accumulators: row `i`
    /// updates `states[gids[i]]`. Every state must come from the same
    /// [`AggSpec`]. The column type is matched once per call, then each
    /// function runs one loop over the (group id, value) pairs — the
    /// column-at-a-time equivalent of gathering each group's rows and calling
    /// [`update_column`](Self::update_column), with identical results.
    pub fn update_scatter(states: &mut [AggState], gids: &[u32], col: &ColumnData) -> Result<()> {
        assert_eq!(gids.len(), col.len(), "one group id per argument row");
        let Some(first) = states.first() else {
            debug_assert!(gids.is_empty(), "group ids without states");
            return Ok(());
        };
        match (&first.kind, col) {
            (StateKind::Count(_), _) => Self::count_scatter(states, gids),
            (StateKind::SumI(_), ColumnData::I32(v)) => scatter(states, gids, v, |k, x| {
                let StateKind::SumI(acc) = k else { mixed() };
                *acc += x as i64;
            }),
            (StateKind::SumI(_), ColumnData::I64(v)) => scatter(states, gids, v, |k, x| {
                let StateKind::SumI(acc) = k else { mixed() };
                *acc += x;
            }),
            (StateKind::SumI(_), other) => return Err(bad("SUM(int)", other)),
            (StateKind::SumF(_), ColumnData::F64(v)) => scatter(states, gids, v, |k, x| {
                let StateKind::SumF(acc) = k else { mixed() };
                acc.add(x);
            }),
            (StateKind::SumF(_), other) => return Err(bad("SUM(float)", other)),
            (StateKind::Avg { .. }, ColumnData::F64(v)) => scatter(states, gids, v, avg_add),
            (StateKind::Avg { .. }, ColumnData::I32(v)) => {
                scatter(states, gids, v, |k, x| avg_add(k, x as f64))
            }
            (StateKind::Avg { .. }, ColumnData::I64(v)) => {
                scatter(states, gids, v, |k, x| avg_add(k, x as f64))
            }
            (StateKind::Avg { .. }, other) => return Err(bad("AVG", other)),
            (StateKind::ExtremeI { .. }, ColumnData::I32(v) | ColumnData::Date(v)) => {
                scatter(states, gids, v, |k, x| extreme_i(k, x as i64))
            }
            (StateKind::ExtremeI { .. }, ColumnData::I64(v)) => scatter(states, gids, v, extreme_i),
            (StateKind::ExtremeI { .. }, other) => return Err(bad("MIN/MAX(int)", other)),
            (StateKind::ExtremeF { .. }, ColumnData::F64(v)) => scatter(states, gids, v, |k, x| {
                let StateKind::ExtremeF { value, is_min } = k else {
                    mixed()
                };
                *value = Some(match *value {
                    None => x,
                    Some(cur) if *is_min => cur.min(x),
                    Some(cur) => cur.max(x),
                });
            }),
            (StateKind::ExtremeF { .. }, other) => return Err(bad("MIN/MAX(float)", other)),
        }
        Ok(())
    }

    /// Count one row into `states[g]` for every `g` in `gids` (`COUNT(*)`,
    /// and `COUNT(expr)` — the engine has no NULLs).
    pub fn count_scatter(states: &mut [AggState], gids: &[u32]) {
        for &g in gids {
            let StateKind::Count(c) = &mut states[g as usize].kind else {
                mixed()
            };
            *c += 1;
        }
    }

    /// Fold `n` rows into a count-style accumulator (`COUNT(*)`).
    pub fn update_count(&mut self, n: usize) {
        if let StateKind::Count(c) = &mut self.kind {
            *c += n as u64;
        } else {
            debug_assert!(false, "update_count on non-count state");
        }
    }

    /// Merge another accumulator of the same shape (parallel partials).
    pub fn merge(&mut self, other: &AggState) {
        match (&mut self.kind, &other.kind) {
            (StateKind::Count(a), StateKind::Count(b)) => *a += b,
            (StateKind::SumI(a), StateKind::SumI(b)) => *a += b,
            (StateKind::SumF(a), StateKind::SumF(b)) => a.merge(b),
            (StateKind::Avg { sum: s1, count: c1 }, StateKind::Avg { sum: s2, count: c2 }) => {
                s1.merge(s2);
                *c1 += c2;
            }
            (StateKind::ExtremeI { value: a, is_min }, StateKind::ExtremeI { value: b, .. }) => {
                if let Some(y) = b {
                    *a = Some(match a {
                        None => *y,
                        Some(x) => {
                            if *is_min {
                                (*x).min(*y)
                            } else {
                                (*x).max(*y)
                            }
                        }
                    });
                }
            }
            (StateKind::ExtremeF { value: a, is_min }, StateKind::ExtremeF { value: b, .. }) => {
                if let Some(y) = b {
                    *a = Some(match a {
                        None => *y,
                        Some(x) => {
                            if *is_min {
                                x.min(*y)
                            } else {
                                x.max(*y)
                            }
                        }
                    });
                }
            }
            _ => debug_assert!(false, "merging incompatible aggregate states"),
        }
    }

    /// Final value. Empty-input conventions: `SUM` → 0, `COUNT` → 0,
    /// `AVG` → 0.0, `MIN`/`MAX` → the type's zero (engine-level queries guard
    /// against empty groups; groups only exist once a row mapped to them).
    /// Nothing is cloned: a float sum rounds from a copy of its window
    /// ([`ExactF64Sum::value`]).
    pub fn finalize(&self) -> Value {
        match &self.kind {
            StateKind::Count(c) => Value::I64(*c as i64),
            StateKind::SumI(s) => Value::I64(*s),
            StateKind::SumF(s) => Value::F64(s.value()),
            StateKind::Avg { sum, count } => {
                if *count == 0 {
                    Value::F64(0.0)
                } else {
                    Value::F64(sum.value() / *count as f64)
                }
            }
            StateKind::ExtremeI { value, .. } => {
                let v = value.unwrap_or(0);
                match self.out_type {
                    DataType::Int32 => Value::I32(v as i32),
                    DataType::Date => Value::Date(v as i32),
                    _ => Value::I64(v),
                }
            }
            StateKind::ExtremeF { value, .. } => Value::F64(value.unwrap_or(0.0)),
        }
    }
}

/// One pass over (group id, value) pairs applying `f` to each row's state.
#[inline(always)]
fn scatter<T: Copy>(
    states: &mut [AggState],
    gids: &[u32],
    vals: &[T],
    mut f: impl FnMut(&mut StateKind, T),
) {
    for (&g, &x) in gids.iter().zip(vals) {
        f(&mut states[g as usize].kind, x);
    }
}

#[inline(always)]
fn avg_add(k: &mut StateKind, x: f64) {
    let StateKind::Avg { sum, count } = k else {
        mixed()
    };
    sum.add(x);
    *count += 1;
}

#[inline(always)]
fn extreme_i(k: &mut StateKind, x: i64) {
    let StateKind::ExtremeI { value, is_min } = k else {
        mixed()
    };
    *value = Some(match *value {
        None => x,
        Some(cur) if *is_min => cur.min(x),
        Some(cur) => cur.max(x),
    });
}

/// The states handed to one scatter call come from different specs: a bug
/// in the caller, never a property of the data.
#[cold]
fn mixed() -> ! {
    panic!("scatter over states of different aggregates")
}

fn bad(context: &'static str, col: &ColumnData) -> ExprError {
    let found = match col {
        ColumnData::I32(_) => "Int32",
        ColumnData::I64(_) => "Int64",
        ColumnData::F64(_) => "Float64",
        ColumnData::Date(_) => "Date",
        ColumnData::Char { .. } => "Char",
    };
    ExprError::InvalidType {
        context,
        found: found.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::{col, lit};
    use uot_storage::Schema;

    fn schema() -> std::sync::Arc<Schema> {
        Schema::from_pairs(&[
            ("qty", DataType::Int32),
            ("price", DataType::Float64),
            ("d", DataType::Date),
            ("tag", DataType::Char(2)),
        ])
    }

    #[test]
    fn state_stays_compact() {
        // Every new group clones one initial state per aggregate; a float
        // sum's full register lives out of line until it is needed.
        assert!(std::mem::size_of::<AggState>() <= 128);
    }

    #[test]
    fn output_types() {
        let s = schema();
        assert_eq!(
            AggSpec::count_star().output_type(&s).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            AggSpec::sum(col(0)).output_type(&s).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            AggSpec::sum(col(1)).output_type(&s).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            AggSpec::avg(col(0)).output_type(&s).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            AggSpec::min(col(2)).output_type(&s).unwrap(),
            DataType::Date
        );
        assert_eq!(
            AggSpec::max(col(0)).output_type(&s).unwrap(),
            DataType::Int32
        );
        assert!(AggSpec::sum(col(3)).output_type(&s).is_err());
        assert!(AggSpec::min(col(3)).output_type(&s).is_err());
    }

    #[test]
    fn sum_int_and_float() {
        let s = schema();
        let mut st = AggSpec::sum(col(0)).init_state(&s).unwrap();
        st.update_column(&ColumnData::I32(vec![1, 2, 3])).unwrap();
        st.update_column(&ColumnData::I32(vec![10])).unwrap();
        assert_eq!(st.finalize(), Value::I64(16));

        let mut st = AggSpec::sum(col(1)).init_state(&s).unwrap();
        st.update_column(&ColumnData::F64(vec![1.5, 2.5])).unwrap();
        assert_eq!(st.finalize(), Value::F64(4.0));
    }

    #[test]
    fn count_and_avg() {
        let s = schema();
        let mut c = AggSpec::count_star().init_state(&s).unwrap();
        c.update_count(5);
        c.update_count(3);
        assert_eq!(c.finalize(), Value::I64(8));

        let mut a = AggSpec::avg(col(0)).init_state(&s).unwrap();
        a.update_column(&ColumnData::I32(vec![2, 4, 6])).unwrap();
        assert_eq!(a.finalize(), Value::F64(4.0));
        // empty avg finalizes to 0.0 rather than NaN
        let a = AggSpec::avg(col(0)).init_state(&s).unwrap();
        assert_eq!(a.finalize(), Value::F64(0.0));
    }

    #[test]
    fn min_max_int_float_date() {
        let s = schema();
        let mut mn = AggSpec::min(col(0)).init_state(&s).unwrap();
        mn.update_column(&ColumnData::I32(vec![5, 3, 9])).unwrap();
        assert_eq!(mn.finalize(), Value::I32(3));

        let mut mx = AggSpec::max(col(1)).init_state(&s).unwrap();
        mx.update_column(&ColumnData::F64(vec![1.5, 7.5, 2.0]))
            .unwrap();
        assert_eq!(mx.finalize(), Value::F64(7.5));

        let mut md = AggSpec::max(col(2)).init_state(&s).unwrap();
        md.update_column(&ColumnData::Date(vec![100, 300, 200]))
            .unwrap();
        assert_eq!(md.finalize(), Value::Date(300));
    }

    #[test]
    fn merge_combines_partials() {
        let s = schema();
        let spec = AggSpec::avg(col(1));
        let mut a = spec.init_state(&s).unwrap();
        a.update_column(&ColumnData::F64(vec![1.0, 2.0])).unwrap();
        let mut b = spec.init_state(&s).unwrap();
        b.update_column(&ColumnData::F64(vec![6.0])).unwrap();
        a.merge(&b);
        assert_eq!(a.finalize(), Value::F64(3.0));

        let spec = AggSpec::min(col(0));
        let mut a = spec.init_state(&s).unwrap();
        let mut b = spec.init_state(&s).unwrap();
        b.update_column(&ColumnData::I32(vec![4])).unwrap();
        a.merge(&b); // empty + non-empty
        assert_eq!(a.finalize(), Value::I32(4));
        let empty = spec.init_state(&s).unwrap();
        a.merge(&empty); // non-empty + empty keeps value
        assert_eq!(a.finalize(), Value::I32(4));
    }

    #[test]
    fn sum_count_merge() {
        let s = schema();
        let spec = AggSpec::sum(col(0));
        let mut a = spec.init_state(&s).unwrap();
        a.update_column(&ColumnData::I32(vec![1])).unwrap();
        let mut b = spec.init_state(&s).unwrap();
        b.update_column(&ColumnData::I32(vec![2, 3])).unwrap();
        a.merge(&b);
        assert_eq!(a.finalize(), Value::I64(6));

        let spec = AggSpec::count_star();
        let mut a = spec.init_state(&s).unwrap();
        a.update_count(2);
        let mut b = spec.init_state(&s).unwrap();
        b.update_count(5);
        a.merge(&b);
        assert_eq!(a.finalize(), Value::I64(7));
    }

    #[test]
    fn count_expr_counts_rows() {
        let s = schema();
        let mut c = AggSpec::count(col(0)).init_state(&s).unwrap();
        c.update_column(&ColumnData::I32(vec![9, 9, 9])).unwrap();
        assert_eq!(c.finalize(), Value::I64(3));
    }

    #[test]
    fn type_mismatch_on_update() {
        let s = schema();
        let mut st = AggSpec::sum(col(1)).init_state(&s).unwrap();
        assert!(st.update_column(&ColumnData::I32(vec![1])).is_err());
        let mut st = AggSpec::min(col(0)).init_state(&s).unwrap();
        assert!(st.update_column(&ColumnData::F64(vec![1.0])).is_err());
    }

    /// One column of every type, matching `scatter_schema` position by
    /// position, with negative, zero, repeated and large values.
    fn scatter_columns() -> Vec<ColumnData> {
        let ints = [5, -3, 0, 9, 9, -7, 2, 1 << 30, 4, -1, 6];
        vec![
            ColumnData::I32(ints.to_vec()),
            ColumnData::I64(ints.iter().map(|&x| x as i64 * 1_000_003).collect()),
            ColumnData::F64(ints.iter().map(|&x| x as f64 * 0.1 - 1e16).collect()),
            ColumnData::Date(ints.iter().map(|&x| 8000 + x % 1000).collect()),
            ColumnData::Char {
                width: 2,
                data: b"aabbccddeeffgghhiijjkk".to_vec(),
            },
        ]
    }

    fn scatter_schema() -> std::sync::Arc<Schema> {
        Schema::from_pairs(&[
            ("i", DataType::Int32),
            ("l", DataType::Int64),
            ("f", DataType::Float64),
            ("d", DataType::Date),
            ("c", DataType::Char(2)),
        ])
    }

    /// Every (function, argument type) spec the planner accepts.
    fn scatter_specs(s: &Schema) -> Vec<AggSpec> {
        let mut specs = vec![AggSpec::count_star()];
        for c in 0..s.len() {
            for spec in [
                AggSpec::count(col(c)),
                AggSpec::sum(col(c)),
                AggSpec::avg(col(c)),
                AggSpec::min(col(c)),
                AggSpec::max(col(c)),
            ] {
                if spec.init_state(s).is_ok() {
                    specs.push(spec);
                }
            }
        }
        specs
    }

    const GIDS: [u32; 11] = [2, 0, 2, 1, 2, 0, 3, 2, 0, 0, 2];

    /// Reference: gather each group's rows, then `update_column`/`update_count`.
    fn gathered(spec: &AggSpec, s: &Schema, col: &ColumnData) -> Result<Vec<AggState>> {
        let groups = *GIDS.iter().max().unwrap() as usize + 1;
        let mut states = vec![spec.init_state(s).unwrap(); groups];
        for (g, st) in states.iter_mut().enumerate() {
            let rows: Vec<usize> = (0..GIDS.len()).filter(|&r| GIDS[r] as usize == g).collect();
            match spec.func {
                AggFunc::CountStar => st.update_count(rows.len()),
                _ => st.update_column(&crate::gather_from(col, &rows))?,
            }
        }
        Ok(states)
    }

    fn scattered(spec: &AggSpec, s: &Schema, col: &ColumnData) -> Result<Vec<AggState>> {
        let groups = *GIDS.iter().max().unwrap() as usize + 1;
        let mut states = vec![spec.init_state(s).unwrap(); groups];
        match spec.func {
            AggFunc::CountStar => AggState::count_scatter(&mut states, &GIDS),
            _ => AggState::update_scatter(&mut states, &GIDS, col)?,
        }
        Ok(states)
    }

    #[test]
    fn update_scatter_equals_per_group_gather_for_every_spec_and_type() {
        let s = scatter_schema();
        let cols = scatter_columns();
        let mut checked = 0;
        for spec in scatter_specs(&s) {
            // The column the spec was typed for, and also every other column
            // type (to cover the mismatch arm of each function).
            for col in &cols {
                let want = gathered(&spec, &s, col);
                let got = scattered(&spec, &s, col);
                match (want, got) {
                    (Ok(want), Ok(got)) => {
                        assert_eq!(got, want, "{spec:?} over {col:?}");
                        let fin =
                            |v: &[AggState]| v.iter().map(|x| x.finalize()).collect::<Vec<_>>();
                        assert_eq!(fin(&got), fin(&want), "{spec:?} over {col:?}");
                        checked += 1;
                    }
                    (Err(want), Err(got)) => {
                        assert!(matches!(got, ExprError::InvalidType { .. }), "{got:?}");
                        assert_eq!(got, want, "{spec:?} over {col:?}");
                    }
                    (want, got) => {
                        panic!("{spec:?} over {col:?}: gather {want:?}, scatter {got:?}")
                    }
                }
            }
        }
        // Specs × the columns their state accepts: COUNT(*) and 5 COUNTs × 5
        // types, SUM(int) 2 × 2 + SUM(float) 1, 5 AVGs × 3 numeric types,
        // 6 int MIN/MAX × 3 + 2 float MIN/MAX × 1.
        assert_eq!(checked, 30 + 5 + 15 + 20);
    }

    #[test]
    fn update_scatter_rejects_a_mistyped_column() {
        let s = schema();
        let mut states = vec![AggSpec::sum(col(1)).init_state(&s).unwrap(); 2];
        let err = AggState::update_scatter(&mut states, &[0, 1], &ColumnData::I32(vec![1, 2]))
            .unwrap_err();
        assert!(matches!(
            err,
            ExprError::InvalidType {
                context: "SUM(float)",
                ..
            }
        ));
        // Nothing was folded in.
        assert_eq!(states[0].finalize(), Value::F64(0.0));
        let mut states = vec![AggSpec::max(col(2)).init_state(&s).unwrap()];
        assert!(AggState::update_scatter(&mut states, &[0], &ColumnData::F64(vec![1.0])).is_err());
    }

    #[test]
    fn finalize_rounds_float_sums_like_the_in_place_finish() {
        let s = scatter_schema();
        let cols = scatter_columns();
        for spec in scatter_specs(&s) {
            for col in &cols {
                let Ok(states) = gathered(&spec, &s, col) else {
                    continue;
                };
                for st in states {
                    let v = st.finalize();
                    let in_place = match st.kind.clone() {
                        StateKind::SumF(mut sum) => Value::F64(sum.finish()),
                        StateKind::Avg { mut sum, count } if count > 0 => {
                            Value::F64(sum.finish() / count as f64)
                        }
                        _ => v.clone(),
                    };
                    assert_eq!(v, in_place);
                    assert_eq!(st.finalize(), v, "finalize keeps the state's value");
                }
            }
        }
    }

    #[test]
    fn sum_of_expression() {
        // SUM(qty * 2 + 1) style state comes from the expression's type.
        let s = schema();
        let spec = AggSpec::sum(col(0).mul(lit(2i32)));
        let mut st = spec.init_state(&s).unwrap();
        st.update_column(&ColumnData::I64(vec![2, 4])).unwrap();
        assert_eq!(st.finalize(), Value::I64(6));
    }
}
