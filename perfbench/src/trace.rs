//! Span recorder for the traced run: the benchmark wraps each call it
//! makes into a library crate in a span.  Spans (name, start, end,
//! parent) stay in memory and are written out once, when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are seconds since the recorder was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans from the thread that owns it (the benchmark's main
/// thread; library worker threads are never traced from here).
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// A recorder whose spans only run their body: the untraced runs share
    /// the traced code paths without paying for them.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Run `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = self.begin(name);
        let result = f();
        self.end(index);
        result
    }

    /// Open a span explicitly, for a region that is not one closure; close
    /// it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent: self.open.borrow().last().copied(),
        });
        self.open.borrow_mut().push(spans.len() - 1);
        Some(spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&self, index: Option<usize>) {
        if let Some(index) = index {
            let popped = self.open.borrow_mut().pop();
            debug_assert_eq!(popped, Some(index), "spans close innermost first");
            self.spans.borrow_mut()[index].end = self.now();
        }
    }

    /// Seconds of the most recent span called `name`.
    ///
    /// # Panics
    /// Panics when no such span was recorded: a metric read from a span
    /// the run never opened is a bug in the benchmark.
    pub fn last(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .rev()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no span named {name}"))
            .secs()
    }

    /// Seconds of the most recent span called `name` covered by its
    /// direct children.
    pub fn child_coverage(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        let parent = spans
            .iter()
            .rposition(|s| s.name == name)
            .unwrap_or_else(|| panic!("no span named {name}"));
        spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::secs)
            .sum::<f64>()
            / spans[parent].secs()
    }

    /// Every span as one JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start,
                s.end
            );
        }
        out.push_str("\n]");
        out
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_cover() {
        let t = Tracer::new();
        t.span("outer", || {
            t.span("a", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("b", || t.span("inner", || ()));
        });
        let json = t.to_json();
        assert!(json.contains("\"name\": \"inner\", ") && json.contains("\"parent\": 2"));
        let coverage = t.child_coverage("outer");
        assert!(coverage > 0.5 && coverage <= 1.0, "{coverage}");
        assert!(t.last("a") >= 0.005);
    }
}
