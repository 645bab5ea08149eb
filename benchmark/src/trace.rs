//! Spans recorded from the benchmark's own files, around each call into
//! a layer. Tracing inside the program is a later issue; here every span
//! is opened and closed by benchmark code.
//!
//! Two kinds of thread record spans: the main thread (constructors,
//! `DiompRuntime::run`, `Sim::run`, `run_workload`, the apps) and rank 0's
//! task thread inside a running simulation. The main thread is blocked in
//! `Sim::run` for as long as rank 0 runs, and only one task holds the
//! baton at a time, so a span never overlaps a sibling and host time
//! partitions exactly. Parents are passed explicitly through [`Scope`]
//! rather than kept on a per-thread stack, because rank 0's spans are
//! children of a span the main thread opened.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use diomp_sim::Ctx;

/// Index of a span in the tracer's table.
pub type SpanId = u32;

/// Where a new span hangs: its parent and the iteration it belongs to.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scope {
    /// Parent span (`None` for an iteration root).
    pub parent: Option<SpanId>,
    /// Iteration id shared by every span of one iteration.
    pub iter: u32,
}

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// Workload the span was recorded under.
    pub workload: &'static str,
    /// Layer the call enters: `bench`, `sim`, `device`, `fabric`, `xccl`, `core` or `apps`.
    pub layer: &'static str,
    pub name: &'static str,
    pub iter: u32,
    /// Payload bytes of the call, where it has one.
    pub bytes: u64,
    /// Host nanoseconds since the tracer was created.
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    /// Virtual nanoseconds from `ctx.now()`, inside rank closures only.
    pub virt_ns: Option<(u64, u64)>,
}

impl Span {
    /// Host duration in nanoseconds.
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }

    /// Virtual duration in nanoseconds, when recorded.
    pub fn virt_dur_ns(&self) -> Option<u64> {
        self.virt_ns.map(|(a, b)| b - a)
    }
}

/// The span recorder. Cheap to share (`Arc<Tracer>`); when off, every
/// call runs its closure and records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// The workload new spans belong to, and the span table.
    table: Mutex<(&'static str, Vec<Span>)>,
}

impl Tracer {
    /// A tracer that records (`on`) or only forwards (`!on`).
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), table: Mutex::new(("", Vec::new())) }
    }

    /// Name the workload that subsequent spans belong to.
    pub fn set_workload(&self, name: &'static str) {
        self.table.lock().expect("tracer lock").0 = name;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, scope: Scope, layer: &'static str, name: &'static str, bytes: u64) -> SpanId {
        let mut table = self.table.lock().expect("tracer lock");
        let (workload, spans) = (table.0, &mut table.1);
        let id = spans.len() as SpanId;
        spans.push(Span {
            id,
            parent: scope.parent,
            workload,
            layer,
            name,
            iter: scope.iter,
            bytes,
            host_start_ns: 0,
            host_end_ns: 0,
            virt_ns: None,
        });
        // Stamp the start after the push so a table growth is not billed to the span.
        spans[id as usize].host_start_ns = self.now_ns();
        id
    }

    fn close(&self, id: SpanId, virt_ns: Option<(u64, u64)>) {
        let t = self.now_ns();
        let mut table = self.table.lock().expect("tracer lock");
        let s = &mut table.1[id as usize];
        s.host_end_ns = t;
        s.virt_ns = virt_ns;
    }

    /// Run `f` inside a span of `layer`; `f` receives the scope its own
    /// child spans hang from.
    pub fn span<R>(
        &self,
        scope: Scope,
        layer: &'static str,
        name: &'static str,
        bytes: u64,
        f: impl FnOnce(Scope) -> R,
    ) -> R {
        if !self.on {
            return f(scope);
        }
        let id = self.open(scope, layer, name, bytes);
        let out = f(Scope { parent: Some(id), iter: scope.iter });
        self.close(id, None);
        out
    }

    /// Like [`Tracer::span`] for a leaf call inside a rank closure: also
    /// records virtual start and end from `ctx.now()`.
    pub fn span_virt<R>(
        &self,
        scope: Scope,
        layer: &'static str,
        name: &'static str,
        bytes: u64,
        ctx: &mut Ctx,
        f: impl FnOnce(&mut Ctx) -> R,
    ) -> R {
        if !self.on {
            return f(ctx);
        }
        let v0 = ctx.now().nanos();
        let id = self.open(scope, layer, name, bytes);
        let out = f(ctx);
        self.close(id, Some((v0, ctx.now().nanos())));
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.table.lock().expect("tracer lock").1.clone()
    }
}

/// Per-span self time and the nesting check.
pub struct SelfTimes {
    /// Self host nanoseconds per span id: duration minus the part of it
    /// the span's children cover, clamped at zero.
    pub self_ns: Vec<u64>,
    /// Host nanoseconds by which children overran their parents, summed.
    /// Zero when every span nests properly.
    pub overrun_ns: u64,
    /// Summed duration of the root spans (`parent == None`).
    pub root_ns: u64,
}

impl SelfTimes {
    /// Overrun as a share of the root time: how far the parts are from
    /// summing to the whole.
    pub fn gap_share(&self) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            self.overrun_ns as f64 / self.root_ns as f64
        }
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut children_ns = vec![0u64; spans.len()];
    let mut root_ns = 0;
    for s in spans {
        match s.parent {
            Some(p) => children_ns[p as usize] += s.host_ns(),
            None => root_ns += s.host_ns(),
        }
    }
    let mut overrun_ns = 0;
    let self_ns = spans
        .iter()
        .map(|s| {
            let covered = children_ns[s.id as usize];
            overrun_ns += covered.saturating_sub(s.host_ns());
            s.host_ns().saturating_sub(covered)
        })
        .collect();
    SelfTimes { self_ns, overrun_ns, root_ns }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write spans as JSON lines, one object per span, with self time.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let st = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let virt = s.virt_ns.map_or("null,\"virt_end_ns\":null".to_string(), |(a, b)| {
            format!("{a},\"virt_end_ns\":{b}")
        });
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"workload\":{},\"layer\":{},\"name\":{},\
             \"iter\":{},\"bytes\":{},\"host_start_ns\":{},\"host_end_ns\":{},\
             \"self_host_ns\":{},\"virt_start_ns\":{virt}}}",
            s.id,
            json_str(s.workload),
            json_str(s.layer),
            json_str(s.name),
            s.iter,
            s.bytes,
            s.host_start_ns,
            s.host_end_ns,
            st.self_ns[s.id as usize],
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: SpanId, parent: Option<SpanId>, layer: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            workload: "w",
            layer,
            name: "n",
            iter: 0,
            bytes: 0,
            host_start_ns: a,
            host_end_ns: b,
            virt_ns: None,
        }
    }

    #[test]
    fn self_time_is_a_span_minus_its_children() {
        // root 0..100; child A 10..40 with grandchild 15..25; child B 50..90.
        let spans = vec![
            sp(0, None, "bench", 0, 100),
            sp(1, Some(0), "core", 10, 40),
            sp(2, Some(1), "fabric", 15, 25),
            sp(3, Some(0), "sim", 50, 90),
        ];
        let st = self_times(&spans);
        assert_eq!(st.self_ns, vec![30, 20, 10, 40]);
        assert_eq!(st.root_ns, 100);
        assert_eq!(st.overrun_ns, 0);
        // The parts sum to the whole exactly when spans nest.
        assert_eq!(st.self_ns.iter().sum::<u64>(), st.root_ns);
        assert_eq!(st.gap_share(), 0.0);
    }

    #[test]
    fn children_that_overrun_their_parent_show_as_a_gap() {
        let spans = vec![sp(0, None, "bench", 0, 100), sp(1, Some(0), "core", 0, 103)];
        let st = self_times(&spans);
        assert_eq!(st.self_ns, vec![0, 103]);
        assert_eq!(st.overrun_ns, 3);
        assert!((st.gap_share() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing_and_still_runs_the_closure() {
        let tr = Tracer::new(false);
        let v = tr.span(Scope::default(), "core", "x", 0, |s| {
            assert!(s.parent.is_none());
            41 + 1
        });
        assert_eq!(v, 42);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parents_and_carry_the_iteration() {
        let tr = Tracer::new(true);
        tr.set_workload("demo");
        tr.span(Scope { parent: None, iter: 3 }, "bench", "iteration", 0, |s| {
            tr.span(s, "core", "run", 8, |s| {
                tr.span(s, "sim", "leaf", 0, |_| ());
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.iter == 3 && s.workload == "demo"));
        assert_eq!(spans[1].bytes, 8);
        assert!(spans[0].host_ns() >= spans[1].host_ns());
        assert_eq!(self_times(&spans).overrun_ns, 0);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let dir = std::env::temp_dir().join(format!("layerbench_trace_{}", std::process::id()));
        let path = dir.join("t.jsonl");
        let mut s = sp(1, Some(0), "core", 5, 9);
        s.virt_ns = Some((100, 250));
        write_jsonl(&path, &[sp(0, None, "bench", 0, 10), s]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"self_host_ns\":6"));
        assert!(lines[1].contains("\"virt_start_ns\":100,\"virt_end_ns\":250"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
