//! The harness's own span recorder. Spans are recorded from outside the
//! program, around each call into a layer's public function; they stay in
//! memory and are written out once, when the run ends. The untraced run
//! holds a disabled tracer, whose `begin`/`end` are one branch each.

use aaa_observe::Json;
use std::time::Instant;

/// One recorded span. `parent` indexes into the tracer's span list.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer (crate or module) the wrapped call belongs to.
    pub layer: &'static str,
    pub name: &'static str,
    /// Graph instance the span belongs to.
    pub instance: usize,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Instance the next spans are attributed to.
    pub instance: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), instance: 0 }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            layer,
            name,
            instance: self.instance,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes the span and returns its duration in seconds (0 when the
    /// tracer is disabled).
    pub fn end(&mut self, id: SpanId) -> f64 {
        let Some(id) = id.0 else { return 0.0 };
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost-first");
        self.spans[id].end_us = self.now_us();
        self.spans[id].dur_s()
    }

    /// Summed duration of every span with this layer and name, divided by
    /// the number of instances that recorded one.
    pub fn mean_per_instance_s(&self, layer: &str, name: &str) -> f64 {
        let hits: Vec<&Span> =
            self.spans.iter().filter(|s| s.layer == layer && s.name == name).collect();
        let mut instances: Vec<usize> = hits.iter().map(|s| s.instance).collect();
        instances.sort_unstable();
        instances.dedup();
        if instances.is_empty() {
            return 0.0;
        }
        hits.iter().map(|s| s.dur_s()).sum::<f64>() / instances.len() as f64
    }

    /// Self time of each span: its duration minus what its children cover.
    fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_us - s.start_us;
            }
        }
        own
    }

    /// The trace document: every span with its parent and self time.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let own = self.self_us();
        let spans = self
            .spans
            .iter()
            .zip(&own)
            .enumerate()
            .map(|(id, (s, &self_us))| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(id as f64)),
                    ("layer".into(), Json::Str(s.layer.into())),
                    ("name".into(), Json::Str(s.name.into())),
                    ("workload".into(), Json::Str(workload.into())),
                    ("instance".into(), Json::Num(s.instance as f64)),
                    ("start_us".into(), Json::Num(s.start_us)),
                    ("end_us".into(), Json::Num(s.end_us)),
                    ("self_us".into(), Json::Num(self_us)),
                    ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), Json::Num(seed as f64)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}
