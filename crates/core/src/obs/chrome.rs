//! Chrome `trace_event` JSON export.
//!
//! The output loads directly into `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev): one timeline lane per worker showing
//! work-order execution spans, a scheduler lane with instant events
//! (dispatches, transfers, operator completions, faults), and counter tracks
//! for per-edge staged blocks and pool occupancy.
//!
//! Each trace's [`QueryId`](crate::query_id::QueryId) becomes the Chrome
//! process id, so [`merged_chrome_trace_json`] renders concurrent queries
//! from one [`QueryService`](crate::service::QueryService) as separate
//! process groups on a shared timeline — the interleaving of work orders
//! across queries is visible at a glance.
//!
//! The format is the stable subset of the Trace Event Format: `"X"` complete
//! events (`ts` + `dur`), `"i"` instants, `"C"` counters and `"M"` metadata,
//! all timestamped in microseconds.

use crate::trace::{Trace, TraceEventKind};
use std::fmt::Write;
use std::time::Duration;

/// Microseconds with sub-microsecond precision (Chrome's `ts` unit).
fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Escape a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render `trace` as a Chrome `trace_event` JSON document.
///
/// Worker lanes are `tid 0..workers`; the scheduler lane (instant events
/// without a worker) is `tid workers`. Counter tracks (`ph: "C"`) carry edge
/// occupancy and pool bytes over time. The trace's query id is the `pid`
/// (0 for solo runs, so single-query output is unchanged).
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut events = Vec::new();
    emit_trace(trace, Duration::ZERO, &mut events);
    wrap(events)
}

/// Merge traces from concurrent queries into one Chrome document.
///
/// Each entry pairs a frozen [`Trace`] with the offset of that query's start
/// from the common epoch (e.g. service start or first submission) — event
/// timestamps inside a trace are relative to *its own* query start, so the
/// offset is what aligns sibling queries on one wall-clock timeline. Each
/// query renders as its own process (`pid` = its query id).
pub fn merged_chrome_trace_json(traces: &[(&Trace, Duration)]) -> String {
    let mut events = Vec::new();
    for (trace, offset) in traces {
        emit_trace(trace, *offset, &mut events);
    }
    wrap(events)
}

fn wrap(events: Vec<String>) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// Emit one trace's events, shifted by `offset`, into `out`.
fn emit_trace(trace: &Trace, offset: Duration, out: &mut Vec<String>) {
    let pid = trace.query.raw();
    let sched_tid = trace.workers(); // one past the last worker lane
    out.reserve(trace.len() + sched_tid + 2);

    // Metadata: process + thread names make the lanes self-describing.
    let process = if pid == 0 {
        "uot-engine".to_string()
    } else {
        format!("uot-engine {}", trace.query)
    };
    out.push(format!(
        r#"{{"name":"process_name","ph":"M","pid":{pid},"args":{{"name":"{}"}}}}"#,
        esc(&process)
    ));
    for w in 0..sched_tid {
        out.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{w},"args":{{"name":"worker {w}"}}}}"#
        ));
    }
    out.push(format!(
        r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{sched_tid},"args":{{"name":"scheduler"}}}}"#
    ));

    let instant = |name: &str, cat: &str, t: Duration, args: String| {
        format!(
            r#"{{"name":"{}","cat":"{}","ph":"i","s":"t","ts":{:.3},"pid":{},"tid":{},"args":{}}}"#,
            esc(name),
            cat,
            us(t + offset),
            pid,
            sched_tid,
            args
        )
    };

    for e in &trace.events {
        let label = e.kind.label();
        match e.kind {
            TraceEventKind::WorkOrderFinished {
                seq,
                op,
                worker,
                start,
                end,
            } => {
                out.push(format!(
                    r#"{{"name":"{}","cat":"work_order","ph":"X","ts":{:.3},"dur":{:.3},"pid":{},"tid":{},"args":{{"seq":{},"op":{}}}}}"#,
                    esc(&trace.op_name(op)),
                    us(start + offset),
                    us(end.saturating_sub(start)),
                    pid,
                    worker,
                    seq,
                    op
                ));
            }
            TraceEventKind::WorkOrderDispatched { seq, op } => {
                out.push(instant(
                    &format!("dispatch {}", trace.op_name(op)),
                    label,
                    e.t,
                    format!(r#"{{"seq":{seq},"op":{op}}}"#),
                ));
            }
            TraceEventKind::WorkOrderPanicked { seq, op }
            | TraceEventKind::WorkOrderFailed { seq, op }
            | TraceEventKind::WorkOrderCancelled { seq, op } => {
                out.push(instant(
                    &format!("{} {}", label, trace.op_name(op)),
                    label,
                    e.t,
                    format!(r#"{{"seq":{seq},"op":{op}}}"#),
                ));
            }
            TraceEventKind::BlocksProduced { op, blocks, rows } => {
                out.push(instant(
                    &format!("produce {}", trace.op_name(op)),
                    label,
                    e.t,
                    format!(r#"{{"blocks":{blocks},"rows":{rows}}}"#),
                ));
            }
            TraceEventKind::EdgeStaged {
                producer,
                consumer,
                staged,
                threshold,
            } => {
                // A counter track per edge: the UoT occupancy over time.
                out.push(format!(
                    r#"{{"name":"staged {}->{}","ph":"C","ts":{:.3},"pid":{},"args":{{"staged":{}}}}}"#,
                    esc(&trace.op_name(producer)),
                    esc(&trace.op_name(consumer)),
                    us(e.t + offset),
                    pid,
                    staged
                ));
                let _ = threshold; // carried in the raw trace; not a counter
            }
            TraceEventKind::TransferFlushed {
                producer,
                consumer,
                blocks,
                bytes,
                partial,
            } => {
                out.push(instant(
                    &format!(
                        "transfer {}->{}",
                        trace.op_name(producer),
                        trace.op_name(consumer)
                    ),
                    label,
                    e.t,
                    format!(r#"{{"blocks":{blocks},"bytes":{bytes},"partial":{partial}}}"#),
                ));
                // The edge is empty after a flush: drop its counter to zero.
                out.push(format!(
                    r#"{{"name":"staged {}->{}","ph":"C","ts":{:.3},"pid":{},"args":{{"staged":0}}}}"#,
                    esc(&trace.op_name(producer)),
                    esc(&trace.op_name(consumer)),
                    us(e.t + offset),
                    pid
                ));
            }
            TraceEventKind::OperatorFinished { op } => {
                out.push(instant(
                    &format!("finish {}", trace.op_name(op)),
                    label,
                    e.t,
                    format!(r#"{{"op":{op}}}"#),
                ));
            }
            TraceEventKind::PoolAlloc { in_use, .. } | TraceEventKind::PoolFree { in_use, .. } => {
                out.push(format!(
                    r#"{{"name":"pool_in_use","ph":"C","ts":{:.3},"pid":{},"args":{{"bytes":{}}}}}"#,
                    us(e.t + offset),
                    pid,
                    in_use
                ));
            }
            TraceEventKind::Degraded { from, to } => {
                out.push(instant(
                    &format!("degrade {from} -> {to}"),
                    label,
                    e.t,
                    "{}".into(),
                ));
            }
            TraceEventKind::PipelineFused {
                pipeline,
                head,
                tail,
                ops,
                batches,
                rows,
                elapsed_us,
            } => {
                out.push(instant(
                    &format!(
                        "fused {}..{}",
                        trace.op_name(head),
                        trace.op_name(tail)
                    ),
                    label,
                    e.t,
                    format!(
                        r#"{{"pipeline":{pipeline},"ops":{ops},"batches":{batches},"rows":{rows},"elapsed_us":{elapsed_us}}}"#
                    ),
                ));
            }
            TraceEventKind::SpillOut { op, bytes, in_use }
            | TraceEventKind::SpillIn { op, bytes, in_use } => {
                out.push(instant(
                    &format!("{} {}", label, trace.op_name(op)),
                    label,
                    e.t,
                    format!(r#"{{"bytes":{bytes},"op":{op}}}"#),
                ));
                // Spill moves resident bytes, so refresh the pool counter too.
                out.push(format!(
                    r#"{{"name":"pool_in_use","ph":"C","ts":{:.3},"pid":{},"args":{{"bytes":{}}}}}"#,
                    us(e.t + offset),
                    pid,
                    in_use
                ));
            }
            TraceEventKind::FaultInjected { site, kind, op } => {
                out.push(instant(
                    &format!("fault {:?} at {}", site, trace.op_name(op)),
                    label,
                    e.t,
                    format!(r#"{{"kind":"{:?}","op":{}}}"#, kind, op),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_id::QueryId;
    use crate::trace::{TraceEvent, TraceEventKind};

    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                TraceEvent {
                    t: Duration::from_micros(1),
                    kind: TraceEventKind::WorkOrderDispatched { seq: 0, op: 0 },
                },
                TraceEvent {
                    t: Duration::from_micros(9),
                    kind: TraceEventKind::WorkOrderFinished {
                        seq: 0,
                        op: 0,
                        worker: 0,
                        start: Duration::from_micros(2),
                        end: Duration::from_micros(9),
                    },
                },
                TraceEvent {
                    t: Duration::from_micros(10),
                    kind: TraceEventKind::TransferFlushed {
                        producer: 0,
                        consumer: 1,
                        blocks: 2,
                        bytes: 128,
                        partial: false,
                    },
                },
            ],
            op_names: vec!["select \"q\"".into(), "probe".into()],
            dropped: 0,
            query: QueryId::SOLO,
        }
    }

    #[test]
    fn emits_complete_and_instant_events() {
        let json = chrome_trace_json(&sample_trace());
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains(r#""ph":"C""#));
        assert!(json.contains(r#""ph":"M""#));
        assert!(json.contains("traceEvents"));
        // Solo traces keep pid 0: single-query output is unchanged.
        assert!(json.contains(r#""pid":0"#));
        // Name with an embedded quote is escaped, not emitted raw.
        assert!(json.contains(r#"select \"q\""#));
    }

    #[test]
    fn empty_trace_is_still_valid_shape() {
        let json = chrome_trace_json(&Trace::default());
        assert!(json.starts_with('{'));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("traceEvents"));
    }

    #[test]
    fn merged_traces_get_distinct_pids_and_offsets() {
        let mut a = sample_trace();
        a.query = QueryId::new(1);
        let mut b = sample_trace();
        b.query = QueryId::new(2);
        let json =
            merged_chrome_trace_json(&[(&a, Duration::ZERO), (&b, Duration::from_micros(500))]);
        assert!(json.contains(r#""pid":1"#));
        assert!(json.contains(r#""pid":2"#));
        assert!(json.contains("uot-engine q1"));
        assert!(json.contains("uot-engine q2"));
        // b's work-order span (start 2us) lands at 502us on the shared axis.
        assert!(json.contains(r#""ts":502.000"#), "{json}");
    }
}
