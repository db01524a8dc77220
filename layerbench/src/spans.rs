//! The benchmark's own spans around every call into a layer, written out
//! as a chrome trace of complete (`"ph":"X"`) events.
//!
//! A span name is `<layer>.<call>`, where the layer is the crate the call
//! enters (`campaign.run_campaign`, `minic.codegen`, ...). Spans of one
//! job share its id; `parent` names the enclosing span (0 = none).

use std::path::Path;
use std::time::Instant;

use crate::json::{obj, Value};

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id within the recording process.
    pub id: u64,
    /// Enclosing span id, `0` for a root span.
    pub parent: u64,
    /// Job or iteration id shared by every span of that job.
    pub job: u64,
    /// `<layer>.<call>`.
    pub name: String,
    /// Start, microseconds since the recorder's epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Recording thread (chrome `tid`).
    pub tid: u64,
    /// Recording process (chrome `pid`).
    pub pid: u64,
}

impl Span {
    /// The layer: the span name up to its first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    /// The span as a JSON object (the child-process wire form).
    pub fn to_json(&self) -> Value {
        obj([
            ("id", Value::Num(self.id as f64)),
            ("parent", Value::Num(self.parent as f64)),
            ("job", Value::Num(self.job as f64)),
            ("name", Value::Str(self.name.clone())),
            ("start_us", Value::Num(self.start_us)),
            ("dur_us", Value::Num(self.dur_us)),
            ("tid", Value::Num(self.tid as f64)),
            ("pid", Value::Num(self.pid as f64)),
        ])
    }

    /// Reads a span back from [`Span::to_json`].
    pub fn from_json(value: &Value) -> Option<Span> {
        let num = |key: &str| value.get(key).and_then(Value::as_f64);
        Some(Span {
            id: num("id")? as u64,
            parent: num("parent")? as u64,
            job: num("job")? as u64,
            name: value.get("name")?.as_str()?.to_owned(),
            start_us: num("start_us")?,
            dur_us: num("dur_us")?,
            tid: num("tid")? as u64,
            pid: num("pid")? as u64,
        })
    }
}

/// Records spans in memory when enabled; a disabled recorder only runs
/// the wrapped calls.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    tid: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`; `tid` tells
    /// recorders of different threads apart.
    pub fn new(enabled: bool, epoch: Instant, tid: u64) -> Recorder {
        Recorder {
            enabled,
            epoch,
            next_id: tid << 32,
            tid,
            spans: Vec::new(),
        }
    }

    /// Reserves a span id, so a parent can be named before its children
    /// run; close it with [`Recorder::close`].
    pub fn open(&mut self) -> (u64, Instant) {
        self.next_id += 1;
        (self.next_id, Instant::now())
    }

    /// Records the span opened as `(id, started)`.
    pub fn close(&mut self, (id, started): (u64, Instant), parent: u64, job: u64, name: &str) {
        if !self.enabled {
            return;
        }
        let end = Instant::now();
        self.spans.push(Span {
            id,
            parent,
            job,
            name: name.to_owned(),
            start_us: started.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: end.duration_since(started).as_secs_f64() * 1e6,
            tid: self.tid,
            pid: 0,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, parent: u64, job: u64, f: impl FnOnce() -> T) -> T {
        let opened = self.open();
        let out = f();
        self.close(opened, parent, job, name);
        out
    }

    /// The recorded spans, emptying the recorder.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Renders spans as a chrome trace document (`chrome://tracing`,
/// Perfetto): one complete event per span, categorised by layer.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            obj([
                ("name", Value::Str(s.name.clone())),
                ("cat", Value::Str(s.layer().to_owned())),
                ("ph", Value::Str("X".to_owned())),
                ("ts", Value::Num(s.start_us)),
                ("dur", Value::Num(s.dur_us)),
                ("pid", Value::Num(s.pid as f64)),
                ("tid", Value::Num(s.tid as f64)),
                (
                    "args",
                    obj([
                        ("span", Value::Num(s.id as f64)),
                        ("parent", Value::Num(s.parent as f64)),
                        ("job", Value::Num(s.job as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    obj([
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::Str("ms".to_owned())),
    ])
}

/// Writes the chrome trace to `path`, creating its directory.
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, chrome_trace(spans).render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn nested_spans_share_the_job_and_name_their_parent() {
        let mut rec = Recorder::new(true, Instant::now(), 1);
        let outer = rec.open();
        rec.span("minic.codegen", outer.0, 7, || ());
        rec.close(outer, 0, 7, "faults.run_fault_campaign");
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(spans.iter().all(|s| s.job == 7));
        assert_eq!(spans[1].layer(), "faults");
        assert!(spans[0].start_us >= spans[1].start_us);
        assert!(spans[0].start_us + spans[0].dur_us <= spans[1].start_us + spans[1].dur_us);
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false, Instant::now(), 1);
        assert_eq!(rec.span("campaign.run_campaign", 0, 1, || 5), 5);
        assert!(rec.take().is_empty());
    }

    #[test]
    fn chrome_trace_is_complete_events_named_by_layer() {
        let mut rec = Recorder::new(true, Instant::now(), 3);
        rec.span("server.submit", 0, 2, || ());
        let spans = rec.take();
        let doc = parse(&chrome_trace(&spans).render()).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 1);
        let event = &events[0];
        assert_eq!(event.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(event.get("cat").and_then(Value::as_str), Some("server"));
        assert_eq!(
            event.get("name").and_then(Value::as_str),
            Some("server.submit")
        );
        assert!(event.get("dur").and_then(Value::as_f64).is_some());
        assert_eq!(
            event
                .get("args")
                .and_then(|a| a.get("job"))
                .and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(
            Span::from_json(&spans[0].to_json()).as_ref(),
            Some(&spans[0])
        );
    }
}
