//! In-memory spans for the traced run.
//!
//! The rig records a span around every call it makes into a layer and
//! around every socket request: name, start, end, the span that caused
//! it, and a request identifier shared by the spans of one request.
//! Spans stay in memory and are written out when the run ends. A
//! layer's self time is its spans' duration minus the part their child
//! spans cover. End-to-end metrics are never taken from a traced run.

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Socket-request spans kept per run: enough for a budget table, and it
/// bounds `trace.json` at a few megabytes however long a phase runs.
pub const MAX_REQUEST_SPANS: u64 = 4096;

/// One recorded span. Names are `layer.operation`.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, the layer being a crate of the repository
    /// (or `pabench` for the rig's own work).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Shared by every span of one request; 0 outside any request.
    pub request_id: u64,
}

/// Collects spans; shareable between the rig's threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// One row of a budget table.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    /// The layer (span-name prefix before the dot).
    pub layer: String,
    /// Spans of this layer.
    pub spans: u64,
    /// Self time of this layer, in seconds.
    pub self_s: f64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<u32>, request_id: u64) -> u32 {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
        });
        (spans.len() - 1) as u32
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: u32) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("tracer poisoned")[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request_id);
        let out = f();
        self.close(id);
        out
    }

    /// Self time per layer, largest first.
    pub fn budget(&self) -> Vec<BudgetRow> {
        let spans = self.spans.lock().expect("tracer poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (s, children) in spans.iter().zip(&child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(*children);
            let row = by_layer.entry(layer).or_default();
            row.0 += 1;
            row.1 += own;
        }
        let mut rows: Vec<BudgetRow> = by_layer
            .into_iter()
            .map(|(layer, (spans, ns))| BudgetRow {
                layer: layer.to_string(),
                spans,
                self_s: ns as f64 / 1e9,
            })
            .collect();
        rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
        rows
    }

    /// The budget table as text: layer, spans, self time, share.
    pub fn budget_table(&self, title: &str) -> String {
        let rows = self.budget();
        let total: f64 = rows.iter().map(|r| r.self_s).sum();
        let mut out = format!("budget: {title}\n");
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>12} {:>7}",
            "layer", "spans", "self_s", "share"
        );
        for r in &rows {
            let share = if total > 0.0 {
                100.0 * r.self_s / total
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<10} {:>8} {:>12.6} {:>6.1}%",
                r.layer, r.spans, r.self_s, share
            );
        }
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>12.6} {:>6.1}%",
            "total", "", total, 100.0
        );
        out
    }

    /// Every span as a JSON array of
    /// `{name, start_ns, end_ns, parent, request_id}`.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("tracer poisoned");
        let mut out = String::with_capacity(spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "\n{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                parent,
                s.request_id
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let t = Tracer::new();
        let root = t.open("pabench.pipeline", None, 1);
        t.time("parser.parse", Some(root), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        t.time("mapper.map", Some(root), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let rows = t.budget();
        let get = |l: &str| rows.iter().find(|r| r.layer == l).unwrap().self_s;
        assert!(get("parser") >= 0.004 && get("mapper") >= 0.002);
        // The root's self time is what its children do not cover:
        // here, next to nothing.
        assert!(get("pabench") < 0.002, "{}", get("pabench"));
        assert_eq!(rows[0].layer, "parser");
        assert!(t.budget_table("t").contains("parser"));
    }

    #[test]
    fn trace_json_parses() {
        let t = Tracer::new();
        let root = t.open("server.rtt", None, 7);
        t.time("mailer.resolve", Some(root), 7, || ());
        t.close(root);
        let v = json::parse(&t.to_json()).unwrap();
        let spans = v.as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&json::Value::Null));
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[1].get("request_id").unwrap().as_f64(), Some(7.0));
        assert_eq!(
            spans[1].get("name").unwrap().as_str(),
            Some("mailer.resolve")
        );
    }
}
