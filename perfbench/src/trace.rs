//! Spans recorded by the benchmark around each call into a layer.
//!
//! A span's label is `layer.what` (`core.run`, `compile.miss`, ...); the
//! part before the first `.` names the workspace crate the call enters.
//! Spans nest per thread, and a layer's self time is its spans' duration
//! minus the part of each interval that its child spans cover.  When
//! tracing is off every call is a plain function call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    label: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Collects spans in memory; reports are built when the run ends.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(
        &self,
        label: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.push(Span {
            label,
            start_ns,
            end_ns,
            parent,
        });
        spans.len() - 1
    }

    /// Runs `f` inside a span labelled `label`, a child of the innermost
    /// span open on this thread.
    pub fn span<R>(&self, label: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_under(self.current(), label, f)
    }

    /// Runs `f` inside a span whose parent is given explicitly (a span
    /// opened on another thread, such as the generator's phase span).
    pub fn span_under<R>(
        &self,
        parent: Option<usize>,
        label: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        self.traced(parent, || (f(), label))
    }

    /// Like [`Tracer::span`], but `f` names the span once it knows what
    /// the call did (a compile that hit or missed the cache).
    pub fn span_named<R>(&self, f: impl FnOnce() -> (R, &'static str)) -> R {
        self.traced(self.current(), f)
    }

    fn traced<R>(&self, parent: Option<usize>, f: impl FnOnce() -> (R, &'static str)) -> R {
        if !self.on {
            return f().0;
        }
        let start = self.now_ns();
        let idx = self.push("", start, start, parent);
        OPEN.with(|o| o.borrow_mut().push(idx));
        let (out, label) = f();
        OPEN.with(|o| o.borrow_mut().pop());
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans[idx].end_ns = end;
        spans[idx].label = label;
        out
    }

    /// The innermost span open on this thread.
    pub fn current(&self) -> Option<usize> {
        OPEN.with(|o| o.borrow().last().copied())
    }

    /// Records stage times the program measured itself (the artifact's
    /// `CompileStats`) as back-to-back children at the start of the
    /// innermost open span, so they leave that span's self time.
    pub fn stages(&self, parts: &[(&'static str, f64)]) {
        if !self.on {
            return;
        }
        let Some(parent) = self.current() else { return };
        let (mut at, end) = {
            let spans = self.spans.lock().expect("span buffer poisoned");
            (spans[parent].start_ns, self.now_ns())
        };
        for &(label, seconds) in parts {
            let dur = ((seconds * 1e9) as u64).min(end.saturating_sub(at));
            self.push(label, at, at + dur, Some(parent));
            at += dur;
        }
    }

    /// Sum of span durations per label.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let e = out.entry(s.label).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns) as f64 / 1e9;
        }
        out
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// union of its children's intervals, summed by layer name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let layer = s.label.split('.').next().unwrap_or(s.label);
            *out.entry(layer).or_default() += (s.end_ns - s.start_ns - covered) as f64 / 1e9;
        }
        out
    }
}
