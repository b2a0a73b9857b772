//! In-memory spans recorded around each call the benchmark makes into a
//! module's public functions.
//!
//! A span has a module, a call name, start and end (ns since the tracer was
//! made), its parent span and the id of the request it belongs to (one
//! program analysis or one commit; 0 is set-up). Spans stay in memory and
//! are written out as JSON lines when the run ends. When tracing is off,
//! [`Tracer::begin`] and [`Tracer::end`] do nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use bane_obs::RunReport;

#[derive(Clone, Debug)]
struct Span {
    module: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
    /// Nanoseconds inside this span that belong to another module although
    /// no child span covers them (attributed from the program's own
    /// recorders, see [`Tracer::attribute`]).
    attributed: Vec<(&'static str, u64)>,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new request: later spans carry its id.
    pub fn request(&mut self, id: u64) {
        self.request = id;
    }

    #[inline]
    pub fn begin(&mut self, module: &'static str, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            module,
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
            attributed: Vec::new(),
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if let Some(idx) = id.0 {
            self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must nest");
        }
    }

    /// Moves `ns` of span `id`'s self time to `module`: used where the
    /// program's own recorder, not a span, says which module spent it.
    pub fn attribute(&mut self, id: SpanId, module: &'static str, ns: u64) {
        if let Some(idx) = id.0 {
            self.spans[idx].attributed.push((module, ns));
        }
    }

    /// Mean duration of spans named `module.name`, in ns (0 if none).
    pub fn mean_ns(&self, module: &str, name: &str) -> f64 {
        let (total, n) = self
            .spans
            .iter()
            .filter(|s| s.module == module && s.name == name)
            .fold((0, 0u64), |(t, n), s| (t + (s.end_ns - s.start_ns), n + 1));
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }

    /// Self time per module over the spans of requests `> 0` (the timed
    /// requests, not set-up): each span's duration minus the part its
    /// children cover, with attributed time moved to its module.
    pub fn self_ns_by_module(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.request == 0 {
                continue;
            }
            let mut own = (s.end_ns - s.start_ns).saturating_sub(child[i]);
            for &(module, ns) in &s.attributed {
                let ns = ns.min(own);
                own -= ns;
                *out.entry(module).or_insert(0) += ns;
            }
            *out.entry(s.module).or_insert(0) += own;
        }
        out
    }

    /// Distinct request ids above 0.
    pub fn requests(&self) -> usize {
        let mut ids: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.request)
            .filter(|&r| r > 0)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Writes the spans to `dir/spans-<workload>.jsonl` and the program's
    /// own run reports to `dir/runreport-<workload>.json`.
    pub fn dump<'a>(
        &self,
        dir: &Path,
        workload: &str,
        reports: impl Iterator<Item = &'a RunReport>,
    ) {
        let body: Vec<String> = reports.map(RunReport::to_json).collect();
        let written = self
            .write_jsonl(&dir.join(format!("spans-{workload}.jsonl")))
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("runreport-{workload}.json")),
                    body.join("\n") + "\n",
                )
            });
        if let Err(e) = written {
            eprintln!("perfbench: could not write trace files: {e}");
        }
    }

    /// Writes every span as one JSON object per line.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}.{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.module, s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}
