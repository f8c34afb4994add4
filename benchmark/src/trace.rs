//! Spans of the traced run: held in memory while the workload runs,
//! written to `out/trace-<workload>.json` when it ends.

use crate::json::quote;
use std::fmt::Write as _;
use std::path::Path;

/// Spans written to a trace file. Every span is kept in memory and
/// counted in the file's `spans_total`; the file holds the first
/// `MAX_SPANS_WRITTEN` so half a million transactions do not become
/// a 50 MB artefact.
pub const MAX_SPANS_WRITTEN: usize = 60_000;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Request identity shared by every span of one request (0 = none).
    pub req: u64,
}

impl Span {
    pub fn new(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        req: u64,
    ) -> Self {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        }
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (overlapping children are merged first, so
/// a doubly covered nanosecond is subtracted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Everything one traced run leaves behind.
pub struct TraceFile {
    pub workload: &'static str,
    pub seed: u64,
    /// Wall time of the traced phase.
    pub wall_ns: u64,
    pub spans: Vec<Span>,
    /// Self time per layer; with `unattributed_ns` it sums to `wall_ns`.
    pub layers: Vec<(String, u64)>,
    pub unattributed_ns: i64,
}

impl TraceFile {
    /// Write `trace-<workload>.json` under `out_dir`; the error says
    /// which file could not be written.
    pub fn save(&self, out_dir: &Path) -> Result<(), String> {
        let path = out_dir.join(format!("trace-{}.json", self.workload));
        self.write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":{},\"seed\":{},\"wall_ns\":{},\"spans_total\":{},\n\"layers\":{{",
            quote(self.workload),
            self.seed,
            self.wall_ns,
            self.spans.len()
        );
        for (i, (layer, ns)) in self.layers.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}{}:{ns}", quote(layer));
        }
        let _ = write!(
            out,
            "}},\n\"unattributed_ns\":{},\n\"spans\":[",
            self.unattributed_ns
        );
        for (i, s) in self.spans.iter().take(MAX_SPANS_WRITTEN).enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.req
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span::new("s", start_ns, end_ns, parent, 0)
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = [
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child
            span(20, 50, Some(0)),  // overlaps the first child by 10
            span(70, 120, Some(0)), // runs past the root: clipped to 100
            span(12, 18, Some(1)),  // grandchild only reduces its own parent
        ];
        let own = self_times(&spans);
        // Children cover [10,50) and [70,100) of the root: 70 of 100.
        assert_eq!(own[0], 30);
        assert_eq!(own[1], 20 - 6);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 50);
        assert_eq!(own[4], 6);
    }

    #[test]
    fn trace_file_is_valid_json_and_capped() {
        let spans: Vec<Span> = (0..(MAX_SPANS_WRITTEN as u64 + 5))
            .map(|i| span(i, i + 1, None))
            .collect();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-test-{}", std::process::id()));
        let total = spans.len();
        TraceFile {
            workload: "x",
            seed: 7,
            wall_ns: 99,
            spans,
            layers: vec![("buffer".to_string(), 40), ("sim".to_string(), 50)],
            unattributed_ns: 9,
        }
        .save(&dir)
        .unwrap();
        let text = std::fs::read_to_string(dir.join("trace-x.json")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let v = crate::json::Json::parse(&text).unwrap();
        let counted = v.get("spans_total").and_then(crate::json::Json::as_f64);
        assert_eq!(counted, Some(total as f64));
        let written = v.get("spans").and_then(crate::json::Json::as_arr).unwrap();
        assert_eq!(written.len(), MAX_SPANS_WRITTEN);
        let layers = v.get("layers").and_then(crate::json::Json::as_obj).unwrap();
        let sum: f64 = layers.values().filter_map(crate::json::Json::as_f64).sum();
        let rest = v.get("unattributed_ns").and_then(crate::json::Json::as_f64);
        assert_eq!(sum + rest.unwrap(), 99.0);
    }
}
