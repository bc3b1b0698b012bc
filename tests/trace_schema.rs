//! Schema check for exported query profiles: the Chrome `trace_event` JSON
//! must actually be JSON (a hand-rolled recursive-descent parser below — the
//! workspace deliberately has no serde), the trace must be non-empty for a
//! real query, and the Prometheus exposition of the query's hub must follow
//! the text exposition format. CI runs this plus `examples/trace_profile.rs` and uploads the
//! emitted files as an artifact.

use std::collections::HashMap;

use std::sync::Arc;

use uot::engine::obs::{chrome_trace_json, prometheus_from_hub};
use uot::engine::{Engine, EngineConfig, MetricsHub, QueryResult, TraceConfig, Uot};
use uot::storage::BlockFormat;
use uot::tpch::{build_query, QueryId, TpchConfig, TpchDb};

// ---------------------------------------------------------------------------
// Minimal JSON parser (values, objects, arrays, strings, numbers, literals).
// Strict enough for schema validation: rejects trailing garbage, unterminated
// strings, bad escapes and malformed numbers.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(HashMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }
    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing garbage at byte {}", p.i));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                c as char,
                self.i,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other, self.i)),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input came from a &str,
                    // so boundaries are valid).
                    let s = std::str::from_utf8(&self.b[self.i..]).map_err(|e| e.to_string())?;
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                other => return Err(format!("expected , or ] found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut m = HashMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.eat(b':')?;
            m.insert(k, self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                other => return Err(format!("expected , or }} found {other:?}")),
            }
        }
    }
}

// ---------------------------------------------------------------------------

/// A traced Q3 run with a hub installed for that one query.
fn traced_q3() -> (QueryResult, Arc<MetricsHub>) {
    let db = TpchDb::generate(
        TpchConfig::scale(0.003)
            .with_block_bytes(8 * 1024)
            .with_format(BlockFormat::Column),
    );
    let plan = build_query(QueryId::Q3, &db).expect("Q3 builds");
    let hub = Arc::new(MetricsHub::new());
    let result = Engine::new(
        EngineConfig::parallel(2)
            .with_block_bytes(8 * 1024)
            .with_uot(Uot::LOW)
            .tracing(TraceConfig::default())
            .with_hub(hub.clone()),
    )
    .execute(plan)
    .expect("Q3 runs");
    (result, hub)
}

#[test]
fn chrome_trace_is_valid_nonempty_json() {
    let (result, _) = traced_q3();
    let trace = result.trace.as_ref().expect("tracing was enabled");
    assert!(!trace.is_empty(), "a real query must produce events");

    let json = chrome_trace_json(trace);
    let doc = Parser::parse(&json).expect("chrome trace parses as JSON");

    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(events.len() > 10, "only {} trace events", events.len());

    let mut phases: HashMap<String, usize> = HashMap::new();
    for e in events {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .expect("every event has a phase");
        *phases.entry(ph.to_string()).or_insert(0) += 1;
        assert!(e.get("name").is_some(), "every event has a name");
        assert!(e.get("pid").is_some(), "every event has a pid");
        match ph {
            // Complete events carry a start and a duration in microseconds.
            "X" => {
                assert!(e.get("ts").and_then(Json::as_num).is_some_and(|t| t >= 0.0));
                assert!(e
                    .get("dur")
                    .and_then(Json::as_num)
                    .is_some_and(|d| d >= 0.0));
                assert!(e.get("tid").is_some());
            }
            "C" => assert!(e.get("args").is_some(), "counters carry args"),
            "M" | "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    // A traced query yields all four phases: metadata, slices (work orders),
    // instants (dispatches, transfers) and counters (pool occupancy).
    for ph in ["M", "X", "i", "C"] {
        assert!(phases.contains_key(ph), "no {ph:?} events: {phases:?}");
    }
}

/// The metric name of a sample line: everything before its labels or value.
fn sample_name(line: &str) -> &str {
    let end = line.find(['{', ' ']).unwrap_or(line.len());
    &line[..end]
}

#[test]
fn prometheus_from_hub_follows_exposition_format() {
    let (result, hub) = traced_q3();
    let text = prometheus_from_hub(&hub.snapshot());
    assert!(text.contains("# TYPE uot_hub_work_orders_total counter"));
    assert!(text.contains("# TYPE uot_hub_work_order_service_us histogram"));
    assert!(
        text.contains(&format!(
            "uot_hub_work_orders_total {}\n",
            result.metrics.tasks.len()
        )),
        "the query's hub counts every work order its metrics do"
    );
    // (family name, type) of the family most recently declared, and the
    // running cumulative count of its `_bucket` samples.
    let mut typed: Option<(String, String)> = None;
    let mut buckets: Option<f64> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE names a family").to_string();
            let kind = parts.next().unwrap_or_default().to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "bad TYPE line: {line}"
            );
            assert!(parts.next().is_none(), "trailing tokens: {line}");
            typed = Some((name, kind));
            buckets = None;
        } else if !line.starts_with('#') && !line.is_empty() {
            // Sample lines belong to the family most recently declared and
            // end in a finite number.
            let (family, kind) = typed.as_ref().expect("sample before any # TYPE");
            let value = line.rsplit(' ').next().unwrap();
            let v = value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .unwrap_or_else(|| panic!("bad value in {line:?}"));
            let name = sample_name(line);
            if kind == "histogram" {
                let suffix = name
                    .strip_prefix(family.as_str())
                    .unwrap_or_else(|| panic!("stray sample {line:?}"));
                match suffix {
                    "_bucket" => {
                        assert!(
                            line[name.len()..].starts_with("{le=\""),
                            "bucket without an le label: {line:?}"
                        );
                        assert!(
                            buckets.is_none_or(|prev| v >= prev),
                            "buckets must be cumulative: {line:?}"
                        );
                        buckets = Some(v);
                    }
                    "_sum" => {}
                    "_count" => assert_eq!(
                        buckets,
                        Some(v),
                        "+Inf bucket must equal the count: {line:?}"
                    ),
                    _ => panic!("stray histogram sample {line:?}"),
                }
            } else {
                assert_eq!(name, family, "stray sample {line:?}");
            }
        }
    }
}

#[test]
fn parser_rejects_malformed_json() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "\"unterminated",
        "{\"a\":1} trailing",
        "nul",
        "1e",
    ] {
        assert!(Parser::parse(bad).is_err(), "accepted {bad:?}");
    }
    let ok = Parser::parse(r#"{"a":[1,-2.5e3,true,null,"x\nA"]}"#).unwrap();
    assert_eq!(
        ok.get("a").and_then(Json::as_arr).map(<[Json]>::len),
        Some(5)
    );
}
