//! Outside-in tracing: the benchmark opens a span around each call it makes
//! into a layer. Spans stay in memory until the run ends; end-to-end metrics
//! are never taken from a traced trial.
//!
//! A disabled [`Tracer`] reads no clock and stores nothing, so the untraced
//! pass runs the same driver code with tracing off.

use std::time::Instant;

/// Index of a span in its tracer (also its id in the trace file).
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call` name, e.g. `runtime.drain`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one (`None` for a trial root).
    pub parent: Option<SpanId>,
    /// The trial this span belongs to; spans of one trial share it.
    pub trial: u32,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-call sample taken on a producer thread (1 op in [`SAMPLE_STRIDE`]).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Which call was timed.
    pub kind: SampleKind,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Clock-to-clock duration, timer overhead included.
    pub dur_ns: u32,
}

/// The sampled per-op calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// A `push` that stays inside the current batch.
    Push,
    /// The `push` that fills the batch and publishes it.
    Publish,
    /// An exact `read`.
    Read,
    /// A `read_stale`.
    ReadStale,
}

impl SampleKind {
    /// Dense index for per-kind tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The span name of a sampled call.
    pub fn span_name(self) -> &'static str {
        match self {
            SampleKind::Push => "runtime.push",
            SampleKind::Publish => "runtime.publish",
            SampleKind::Read => "runtime.read",
            SampleKind::ReadStale => "runtime.read_stale",
        }
    }
}

/// One op in this many is timed in the traced pass: a stride coprime to the
/// 256-op batch, so the publishing push is neither always nor never hit.
pub const SAMPLE_STRIDE: u32 = 61;

/// Sampled calls kept as individual spans per producer and trial; the rest
/// are summarised (count and total) on their parent span in the trace file.
pub const SPANS_KEPT_PER_PRODUCER: usize = 256;

/// Decides per op whether to time it. The untraced pass uses [`NoSampling`],
/// whose `sample` is a constant the optimiser removes.
pub trait Sampler {
    /// True when the next op should be timed.
    fn sample(&mut self) -> bool;
    /// Stores one timed call.
    fn record(&mut self, kind: SampleKind, start: Instant, end: Instant);
}

/// The untraced pass: never samples.
#[derive(Debug, Default)]
pub struct NoSampling;

impl Sampler for NoSampling {
    #[inline(always)]
    fn sample(&mut self) -> bool {
        false
    }
    #[inline(always)]
    fn record(&mut self, _: SampleKind, _: Instant, _: Instant) {}
}

/// The traced pass: every [`SAMPLE_STRIDE`]-th op, into a pre-sized buffer.
#[derive(Debug)]
pub struct StrideSampling {
    epoch: Instant,
    countdown: u32,
    /// The timed calls, in program order.
    pub samples: Vec<Sample>,
}

impl StrideSampling {
    /// A sampler sized for a stream of `ops` operations.
    pub fn new(epoch: Instant, ops: u64) -> Self {
        StrideSampling {
            epoch,
            countdown: SAMPLE_STRIDE,
            samples: Vec::with_capacity((ops / u64::from(SAMPLE_STRIDE)) as usize + 1),
        }
    }
}

impl Sampler for StrideSampling {
    #[inline]
    fn sample(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = SAMPLE_STRIDE;
            true
        } else {
            false
        }
    }

    #[inline]
    fn record(&mut self, kind: SampleKind, start: Instant, end: Instant) {
        self.samples.push(Sample {
            kind,
            start_ns: (start - self.epoch).as_nanos() as u64,
            dur_ns: (end - start).as_nanos().min(u128::from(u32::MAX)) as u32,
        });
    }
}

/// Summary of the sampled children of one span that were not kept as spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Folded {
    /// The parent the samples belong to.
    pub parent: SpanId,
    /// Samples summarised.
    pub count: u64,
    /// Their total duration.
    pub total_ns: u64,
}

/// The span recorder of the benchmark's main thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    folded: Vec<Folded>,
    stack: Vec<SpanId>,
    trial: u32,
}

impl Tracer {
    /// A tracer that records nothing and reads no clock.
    pub fn disabled() -> Self {
        Tracer::new(false, 0)
    }

    /// A recording tracer with room for `capacity` spans.
    pub fn enabled(capacity: usize) -> Self {
        Tracer::new(true, capacity)
    }

    fn new(enabled: bool, capacity: usize) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            folded: Vec::new(),
            stack: Vec::new(),
            trial: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Starts the next trial: later spans carry a fresh trial id.
    pub fn next_trial(&mut self) {
        assert!(self.stack.is_empty(), "trial boundary inside an open span");
        self.trial += 1;
    }

    /// The id of the current trial.
    pub fn trial(&self) -> u32 {
        self.trial
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span. Returns `f`'s result and the span's id (`None` when disabled).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Option<SpanId>) {
        if !self.enabled {
            return (f(self), None);
        }
        let id = self.spans.len() as SpanId;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            trial: self.trial,
        });
        self.stack.push(id);
        let result = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        (result, Some(id))
    }

    /// [`Tracer::span`] for a call that opens no spans of its own.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f()).0
    }

    /// Adds a span another thread timed, as a child of `parent`.
    pub fn adopt(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            trial: self.spans[parent as usize].trial,
        });
        id
    }

    /// Adds a producer's sampled calls under `parent`: the first
    /// [`SPANS_KEPT_PER_PRODUCER`] as spans, the rest folded into a summary.
    pub fn adopt_samples(&mut self, parent: SpanId, samples: &[Sample]) {
        let kept = samples.len().min(SPANS_KEPT_PER_PRODUCER);
        for sample in &samples[..kept] {
            self.adopt(
                sample.kind.span_name(),
                parent,
                sample.start_ns,
                sample.start_ns + u64::from(sample.dur_ns),
            );
        }
        let rest = &samples[kept..];
        if !rest.is_empty() {
            self.folded.push(Folded {
                parent,
                count: rest.len() as u64,
                total_ns: rest.iter().map(|s| u64::from(s.dur_ns)).sum(),
            });
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summaries of sampled calls not kept as spans.
    pub fn folded(&self) -> &[Folded] {
        &self.folded
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// child spans (and folded samples) cover. Children on several threads may
/// overlap, so coverage is the union of their intervals, not the sum.
pub fn self_times(spans: &[Span], folded: &[Folded]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    let mut selfs: Vec<u64> = spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect();
    for fold in folded {
        let own = &mut selfs[fold.parent as usize];
        *own = own.saturating_sub(fold.total_ns);
    }
    selfs
}

/// Share of each trial's wall-clock covered by the layer spans directly
/// under its root, as a percentage; the minimum over trials. The root's own
/// self time is the harness (thread spawns, oracle comparison).
pub fn coverage_pct(spans: &[Span], folded: &[Folded]) -> f64 {
    let selfs = self_times(spans, folded);
    spans
        .iter()
        .zip(&selfs)
        .filter(|(span, _)| span.name == "trial" && span.duration_ns() > 0)
        .map(|(span, &own)| 100.0 * (1.0 - own as f64 / span.duration_ns() as f64))
        .fold(100.0, f64::min)
}

/// Renders the trace file: one JSON object with the spans (id = position),
/// their self times, and the folded-sample summaries.
pub fn to_json(workload: &str, seed: u64, spans: &[Span], folded: &[Folded]) -> String {
    let selfs = self_times(spans, folded);
    let mut out = String::with_capacity(spans.len() * 110 + 256);
    out.push_str(&format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"ns since tracer start\", \"sample_stride\": {SAMPLE_STRIDE},\n\"spans\": [\n"
    ));
    for (id, (span, own)) in spans.iter().zip(&selfs).enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {id}, \"parent\": {parent}, \"trial\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}{}\n",
            span.trial,
            span.name,
            span.start_ns,
            span.end_ns,
            if id + 1 == spans.len() { "" } else { "," },
        ));
    }
    out.push_str("],\n\"folded_samples\": [\n");
    for (i, fold) in folded.iter().enumerate() {
        out.push_str(&format!(
            "{{\"parent\": {}, \"count\": {}, \"total_ns\": {}}}{}\n",
            fold.parent,
            fold.count,
            fold.total_ns,
            if i + 1 == folded.len() { "" } else { "," },
        ));
    }
    out.push_str("]}\n");
    out
}
