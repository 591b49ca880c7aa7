//! Bench-side spans for the traced run: one span around each call into a
//! layer, kept in memory and written out at exit. A layer's self time is
//! its spans' duration minus what their child spans cover; whatever part
//! of a rep no layer span covers is the bench's own (`bench.unattributed`).

use crate::json::{obj, Json};
use std::time::Instant;

/// The layers a span can be charged to: this repo's crates on the timed
/// path, plus the bench itself (rep and row frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Analysis,
    Rewrite,
    Emu,
    Kernel,
    Bench,
}

impl Layer {
    pub const ALL: [Layer; 5] = [
        Layer::Analysis,
        Layer::Rewrite,
        Layer::Emu,
        Layer::Kernel,
        Layer::Bench,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Analysis => "analysis",
            Layer::Rewrite => "rewrite",
            Layer::Emu => "emu",
            Layer::Kernel => "kernel",
            Layer::Bench => "bench",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// Nanoseconds since the log's origin.
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
    /// 1-based traced rep; 0 for spans outside the timed reps.
    pub rep: u32,
    /// Calls folded into this span (hot loops are aggregated: one span
    /// holding the summed duration of `count` calls).
    pub count: u64,
    /// Instrumentation-only work (the standalone analysis re-runs): taken
    /// out of the rep total and credited to its layer *instead of* the
    /// rewrite scan that did the same work inside the program.
    pub probe: bool,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
    rep: u32,
}

/// Where a rep's time went, summed over every traced rep.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Rep time with the probe spans taken out.
    pub total_ns: u64,
    /// Self time per layer, indexed like [`Layer::ALL`]; `Bench` is the
    /// unattributed remainder.
    pub layer_ns: [u64; 5],
}

impl Breakdown {
    pub fn share_pct(&self, layer: Layer) -> f64 {
        let i = Layer::ALL.iter().position(|l| *l == layer).expect("layer");
        100.0 * self.layer_ns[i] as f64 / self.total_ns as f64
    }
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            rep: 0,
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn open(&mut self, name: &'static str, layer: Layer, parent: Option<u32>) -> u32 {
        let start = self.now();
        self.push(Span {
            name,
            layer,
            start,
            end: start,
            parent,
            rep: self.rep,
            count: 1,
            probe: false,
        })
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end = self.now();
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, layer, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records a finished span: `total_ns` of work in `count` calls that
    /// happened somewhere after `start` inside `parent`.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: u32,
        start: u64,
        total_ns: u64,
        count: u64,
    ) -> u32 {
        self.push(Span {
            name,
            layer,
            start,
            end: start + total_ns,
            parent: Some(parent),
            rep: self.rep,
            count,
            probe: false,
        })
    }

    pub fn mark_probe(&mut self, id: u32) {
        self.spans[id as usize].probe = true;
    }

    /// Probe time recorded since span `id` was opened (probes are taken
    /// out of whatever wall time they fell into).
    pub fn probe_ns_since(&self, id: u32) -> u64 {
        self.spans[id as usize..]
            .iter()
            .filter(|s| s.probe)
            .map(Span::dur)
            .sum()
    }

    fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Duration minus the part covered by direct children, per span.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur());
            }
        }
        own
    }

    /// The layer breakdown of the traced reps (spans with `rep >= 1`).
    /// Probe spans leave the total; an analysis probe's time moves from
    /// `rewrite` (whose scan pass ran the same analyses) to `analysis`.
    pub fn breakdown(&self) -> Breakdown {
        let own = self.self_times();
        let mut total = 0u64;
        let mut layer_ns = [0u64; 5];
        let mut probes = 0u64;
        let idx = |layer: Layer| Layer::ALL.iter().position(|l| *l == layer).expect("layer");
        for (s, own) in self.spans.iter().zip(own) {
            if s.rep == 0 {
                continue;
            }
            if s.parent.is_none() {
                total += s.dur();
            }
            if s.probe {
                probes += s.dur();
                if s.layer == Layer::Analysis {
                    layer_ns[idx(Layer::Analysis)] += s.dur();
                }
            } else {
                layer_ns[idx(s.layer)] += own;
            }
        }
        let moved = layer_ns[idx(Layer::Analysis)];
        let rewrite = &mut layer_ns[idx(Layer::Rewrite)];
        *rewrite = rewrite.saturating_sub(moved);
        Breakdown {
            total_ns: total - probes,
            layer_ns,
        }
    }

    /// Per traced rep, the summed duration (ns) of the spans called `name`.
    pub fn per_rep_ns(&self, name: &str) -> Vec<f64> {
        self.per_rep(name, |s| s.dur())
    }

    /// Per traced rep, the summed call count of the spans called `name`.
    pub fn per_rep_count(&self, name: &str) -> Vec<f64> {
        self.per_rep(name, |s| s.count)
    }

    fn per_rep(&self, name: &str, f: impl Fn(&Span) -> u64) -> Vec<f64> {
        let reps = self.spans.iter().map(|s| s.rep).max().unwrap_or(0) as usize;
        let mut sums = vec![0u64; reps];
        for s in self.spans.iter().filter(|s| s.rep > 0 && s.name == name) {
            sums[s.rep as usize - 1] += f(s);
        }
        sums.into_iter().map(|x| x as f64).collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("name", s.name.into()),
                        ("layer", s.layer.name().into()),
                        ("start", s.start.into()),
                        ("end", s.end.into()),
                        ("parent", s.parent.map(u64::from).into()),
                        ("rep", u64::from(s.rep).into()),
                        ("count", s.count.into()),
                        ("probe", s.probe.into()),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: Layer,
        start: u64,
        end: u64,
        parent: Option<u32>,
        probe: bool,
    ) -> Span {
        Span {
            name,
            layer,
            start,
            end,
            parent,
            rep: 1,
            count: 1,
            probe,
        }
    }

    fn log_of(spans: Vec<Span>) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans,
            rep: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let log = log_of(vec![
            span("rep", Layer::Bench, 0, 1000, None, false),
            span("rewrite.run", Layer::Rewrite, 100, 700, Some(0), false),
            span("exec", Layer::Bench, 700, 950, Some(0), false),
            span("emu.cpu_run", Layer::Emu, 700, 900, Some(2), false),
            span(
                "kernel.service_trap",
                Layer::Kernel,
                700,
                730,
                Some(2),
                false,
            ),
        ]);
        assert_eq!(log.self_times(), vec![150, 600, 20, 200, 30]);
    }

    #[test]
    fn breakdown_sums_to_the_rep_total_and_reports_the_unattributed_rest() {
        let log = log_of(vec![
            span("rep", Layer::Bench, 0, 1000, None, false),
            span("rewrite.run", Layer::Rewrite, 100, 700, Some(0), false),
            span("emu.cpu_run", Layer::Emu, 700, 900, Some(0), false),
            span("kernel.load", Layer::Kernel, 900, 950, Some(0), false),
        ]);
        let b = log.breakdown();
        assert_eq!(b.total_ns, 1000);
        assert_eq!(b.layer_ns.iter().sum::<u64>(), 1000);
        assert_eq!(b.share_pct(Layer::Rewrite), 60.0);
        assert_eq!(b.share_pct(Layer::Emu), 20.0);
        assert_eq!(b.share_pct(Layer::Kernel), 5.0);
        // 0..100 and 950..1000 are covered by no layer span.
        assert_eq!(b.share_pct(Layer::Bench), 15.0);
    }

    #[test]
    fn analysis_probe_leaves_the_total_and_moves_time_out_of_rewrite() {
        let log = log_of(vec![
            span("rep", Layer::Bench, 0, 1300, None, false),
            span("rewrite.run", Layer::Rewrite, 0, 800, Some(0), false),
            span("analysis.disasm", Layer::Analysis, 800, 1100, Some(0), true),
            span("emu.cpu_run", Layer::Emu, 1100, 1300, Some(0), false),
        ]);
        let b = log.breakdown();
        assert_eq!(b.total_ns, 1000, "the probe's 300 ns are not rep time");
        assert_eq!(b.share_pct(Layer::Analysis), 30.0);
        assert_eq!(b.share_pct(Layer::Rewrite), 50.0);
        assert_eq!(b.share_pct(Layer::Emu), 20.0);
        assert_eq!(b.share_pct(Layer::Bench), 0.0);
        assert_eq!(b.layer_ns.iter().sum::<u64>(), b.total_ns);
    }

    #[test]
    fn spans_outside_timed_reps_are_ignored_and_reps_sum_separately() {
        let mut warm = span("rep", Layer::Bench, 0, 500, None, false);
        warm.rep = 0;
        let mut second = span("rewrite.run", Layer::Rewrite, 2000, 2300, Some(3), false);
        second.rep = 2;
        let mut root2 = span("rep", Layer::Bench, 2000, 2400, None, false);
        root2.rep = 2;
        let log = log_of(vec![
            warm,
            span("rep", Layer::Bench, 1000, 1500, None, false),
            span("rewrite.run", Layer::Rewrite, 1000, 1400, Some(1), false),
            root2,
            second,
        ]);
        assert_eq!(log.breakdown().total_ns, 900);
        assert_eq!(log.per_rep_ns("rewrite.run"), vec![400.0, 300.0]);
        assert_eq!(log.per_rep_count("rewrite.run"), vec![1.0, 1.0]);
    }
}
