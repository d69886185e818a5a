//! Pass-through probe aspects at the concern-band boundaries, the spans they
//! record, and the per-solve reduction of those spans into layer figures.
//!
//! A probe is plain around-advice that reads the clock, proceeds, and reads
//! it again. Probes sit one precedence step outside and one step inside each
//! plugged band (asynchronous invocation, partition, synchronisation,
//! distribution), and one more wraps the kernel on every node weaver. They
//! are plugged for the traced phase only.
//!
//! Causal parents ride on the weave runtime's current-task frame: a probe
//! pushes its span id as the current task, so nested probes on the same
//! thread, and probes on the far side of a detached (asynchronous) chain,
//! read it as their parent. Node-side kernel spans run on the node's own
//! thread and have no captured context; they are attached afterwards to the
//! distribution span whose interval contains them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use weavepar::prelude::*;
use weavepar::weave::aspect::precedence;
use weavepar::weave::trace::{self, TaskId};

/// Where a span was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    AsyncOut,
    AsyncIn,
    PartitionOut,
    PartitionIn,
    SyncOut,
    SyncIn,
    DistOut,
    DistIn,
    NodeKernel,
}

impl Probe {
    fn name(self) -> &'static str {
        match self {
            Probe::AsyncOut => "async.out",
            Probe::AsyncIn => "async.in",
            Probe::PartitionOut => "partition.out",
            Probe::PartitionIn => "partition.in",
            Probe::SyncOut => "sync.out",
            Probe::SyncIn => "sync.in",
            Probe::DistOut => "dist.out",
            Probe::DistIn => "dist.in",
            Probe::NodeKernel => "node.kernel",
        }
    }
}

/// One recorded interval. `parent` is 0 for a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub probe: Probe,
    pub start_ns: u64,
    pub end_ns: u64,
    pub solve: u64,
}

impl Span {
    fn len_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Shared state of every probe of one run.
#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    solve: AtomicU64,
    /// Join points seen on the client and node weavers.
    pub joinpoints: AtomicU64,
    /// Kernel calls issued by an aspect (the partition's packs).
    pub packs: AtomicU64,
    /// Pack payload bytes sent to and returned from remote objects.
    pub bytes: AtomicU64,
}

impl Tracer {
    /// Tag the spans recorded from now on with solve `id`.
    pub fn begin_solve(&self, id: u64) {
        self.solve.store(id, Ordering::Relaxed);
    }

    /// Take every span recorded since the last call.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer"))
    }

    fn record(&self, probe: Probe, id: u64, parent: u64, start_ns: u64) {
        let span = Span {
            id,
            parent,
            probe,
            start_ns,
            end_ns: now_ns(),
            solve: self.solve.load(Ordering::Relaxed),
        };
        self.spans.lock().expect("span buffer").push(span);
    }
}

/// A span probe at `precedence`; `bytes` counts pack payloads through it.
fn span_probe(
    tracer: &Arc<Tracer>,
    probe: Probe,
    precedence: i32,
    pointcut: Pointcut,
    bytes: bool,
) -> Aspect {
    let tracer = tracer.clone();
    Aspect::named(format!("probe.{}", probe.name()))
        .precedence(precedence)
        .around(pointcut, move |inv: &mut Invocation| {
            let id = tracer.next_id.fetch_add(1, Ordering::Relaxed) + 1;
            let parent = trace::current_task().map_or(0, |t| t.raw());
            if bytes {
                let sent = inv.arg::<Pack>(0).map_or(0, ByteSize::byte_size);
                tracer.bytes.fetch_add(sent as u64, Ordering::Relaxed);
            }
            let start = now_ns();
            let result = {
                let _frame = trace::push_task(Some(TaskId::from_raw(id)));
                inv.proceed()
            };
            tracer.record(probe, id, parent, start);
            if let (true, Ok(ret)) = (bytes, &result) {
                let got = ret.downcast_ref::<Pack>().map_or(0, ByteSize::byte_size);
                tracer.bytes.fetch_add(got as u64, Ordering::Relaxed);
            }
            result
        })
        .build()
}

/// Counts every join point; outermost, so each counts once.
fn count_probe(tracer: &Arc<Tracer>, kernel: (&'static str, &'static str)) -> Aspect {
    let tracer = tracer.clone();
    Aspect::named("probe.count")
        .precedence(i32::MIN)
        .around(Pointcut::Always, move |inv: &mut Invocation| {
            tracer.joinpoints.fetch_add(1, Ordering::Relaxed);
            let sig = inv.signature();
            if inv.kind() == JoinPointKind::Call
                && matches!(inv.caller(), Provenance::Aspect(_))
                && (sig.class, sig.method) == kernel
            {
                tracer.packs.fetch_add(1, Ordering::Relaxed);
            }
            inv.proceed()
        })
        .build()
}

/// The probes plugged on one run's weavers; unplugging restores the stack.
pub struct Probes {
    plugged: Vec<(Weaver, PluggedAspect)>,
    fabric: Option<Arc<InProcFabric>>,
}

impl Probes {
    /// Plug span probes around each band the stack has plugged, count probes
    /// on the client and node weavers, and a kernel probe on each node.
    pub fn plug(
        tracer: &Arc<Tracer>,
        stack: &ConcernStack,
        fabric: Option<&Arc<InProcFabric>>,
        probed: Pointcut,
        kernel: (&'static str, &'static str),
    ) -> Probes {
        let bands = [
            (precedence::ASYNC_INVOCATION, Probe::AsyncOut, Probe::AsyncIn, Concern::Concurrency),
            (precedence::PARTITION, Probe::PartitionOut, Probe::PartitionIn, Concern::Partition),
            (precedence::SYNCHRONISATION, Probe::SyncOut, Probe::SyncIn, Concern::Concurrency),
            (precedence::DISTRIBUTION, Probe::DistOut, Probe::DistIn, Concern::Distribution),
        ];
        let client = stack.weaver();
        let mut plugged = Vec::new();
        let mut plug = |weaver: &Weaver, aspect: Aspect| {
            plugged.push((weaver.clone(), weaver.plug(aspect)));
        };
        for (band, out, inner, concern) in bands {
            if stack.is_plugged(concern) {
                let bytes = out == Probe::DistOut;
                plug(client, span_probe(tracer, out, band - 1, probed.clone(), bytes));
                plug(client, span_probe(tracer, inner, band + 1, probed.clone(), false));
            }
        }
        plug(client, count_probe(tracer, kernel));
        if let Some(fabric) = fabric {
            let kernel_calls = Pointcut::call_sig(kernel.0, kernel.1);
            for i in 0..fabric.node_count() {
                let node = fabric.node(i).expect("node in range");
                node.set_woven(true);
                plug(node.weaver(), count_probe(tracer, kernel));
                let probe = span_probe(tracer, Probe::NodeKernel, 0, kernel_calls.clone(), false);
                plug(node.weaver(), probe);
            }
        }
        Probes { plugged, fabric: fabric.cloned() }
    }

    /// Unplug every probe and return the nodes to unwoven dispatch.
    pub fn unplug(self) {
        for (weaver, token) in &self.plugged {
            weaver.unplug(token);
        }
        if let Some(fabric) = &self.fabric {
            for i in 0..fabric.node_count() {
                fabric.node(i).expect("node in range").set_woven(false);
            }
        }
    }
}

/// One solve's spans reduced to layer figures.
#[derive(Debug, Default, Clone)]
pub struct SolveFigures {
    /// Self time of the partition band spans, ms.
    pub partition_self_ms: f64,
    /// Self time of the distribution band spans (marshal, fabric queue,
    /// reply wait), ms.
    pub dist_self_ms: f64,
    /// Node-side kernel time, ms.
    pub kernel_ms: f64,
    /// Outer-to-inner probe gaps around asynchronous invocation, µs.
    pub spawn_gaps_us: Vec<f64>,
    /// Outer-to-inner probe gaps around synchronisation, µs.
    pub monitor_gaps_us: Vec<f64>,
}

/// Reduce one solve's spans. Attaches node-kernel spans to the distribution
/// span containing them (rewriting their `parent`), then takes each band's
/// self time as its span minus the part of it covered by descendant spans —
/// descendants rather than direct children, because asynchronous children
/// return at once and their work shows in their own children on other
/// threads.
pub fn reduce(spans: &mut [Span]) -> SolveFigures {
    attach_kernels(spans);
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push(i);
        }
    }
    let mut fig = SolveFigures::default();
    for (i, s) in spans.iter().enumerate() {
        let parent = index.get(&s.parent).map(|&p| &spans[p]);
        let gap_us = || parent.map_or(0.0, |p| s.start_ns.saturating_sub(p.start_ns) as f64 / 1e3);
        match s.probe {
            Probe::PartitionOut => {
                fig.partition_self_ms += self_ns(spans, &children, i) as f64 / 1e6
            }
            Probe::DistOut => fig.dist_self_ms += self_ns(spans, &children, i) as f64 / 1e6,
            Probe::NodeKernel => fig.kernel_ms += s.len_ns() as f64 / 1e6,
            Probe::AsyncIn if parent.is_some_and(|p| p.probe == Probe::AsyncOut) => {
                fig.spawn_gaps_us.push(gap_us())
            }
            Probe::SyncIn if parent.is_some_and(|p| p.probe == Probe::SyncOut) => {
                fig.monitor_gaps_us.push(gap_us())
            }
            _ => {}
        }
    }
    fig
}

/// Give each parentless node-kernel span the latest-starting distribution
/// span that contains it and has no kernel child yet.
fn attach_kernels(spans: &mut [Span]) {
    let mut dist: Vec<usize> =
        (0..spans.len()).filter(|&i| spans[i].probe == Probe::DistOut).collect();
    dist.sort_by_key(|&i| spans[i].start_ns);
    let mut taken = vec![false; dist.len()];
    for k in 0..spans.len() {
        if spans[k].probe != Probe::NodeKernel || spans[k].parent != 0 {
            continue;
        }
        let (start, end) = (spans[k].start_ns, spans[k].end_ns);
        let upto = dist.partition_point(|&d| spans[d].start_ns <= start);
        if let Some(j) = (0..upto).rev().find(|&j| !taken[j] && spans[dist[j]].end_ns >= end) {
            taken[j] = true;
            spans[k].parent = spans[dist[j]].id;
        }
    }
}

/// Span `i` minus the union of its descendants' intervals, clipped to it.
fn self_ns(spans: &[Span], children: &[Vec<usize>], i: usize) -> u64 {
    let (lo, hi) = (spans[i].start_ns, spans[i].end_ns);
    let mut covered = Vec::new();
    let mut stack: Vec<usize> = children[i].clone();
    while let Some(c) = stack.pop() {
        let (s, e) = (spans[c].start_ns.max(lo), spans[c].end_ns.min(hi));
        if s < e {
            covered.push((s, e));
        }
        stack.extend_from_slice(&children[c]);
    }
    covered.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in covered {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    spans[i].len_ns().saturating_sub(total)
}

/// Write spans as tab-separated text, one per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "solve\tid\tparent\tprobe\tstart_ns\tend_ns")?;
    for s in spans {
        let (solve, id, parent, name) = (s.solve, s.id, s.parent, s.probe.name());
        writeln!(out, "{solve}\t{id}\t{parent}\t{name}\t{}\t{}", s.start_ns, s.end_ns)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, probe: Probe, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, probe, start_ns, end_ns, solve: 1 }
    }

    #[test]
    fn self_time_subtracts_descendant_cover_once() {
        let mut spans = vec![
            span(1, 0, Probe::PartitionOut, 0, 100),
            span(2, 1, Probe::AsyncOut, 10, 12),
            // Work on another thread: a grandchild of the partition span.
            span(3, 2, Probe::AsyncIn, 20, 60),
            span(4, 3, Probe::SyncOut, 30, 70),
        ];
        let fig = reduce(&mut spans);
        // Covered: [10,12) and [20,70), 52 of 100.
        assert_eq!((fig.partition_self_ms * 1e6).round(), 48.0);
        assert_eq!(fig.spawn_gaps_us, vec![10.0 / 1e3]);
    }

    #[test]
    fn node_kernels_attach_to_the_containing_distribution_span() {
        let mut spans = vec![
            span(1, 0, Probe::DistOut, 0, 100),
            span(2, 0, Probe::DistOut, 50, 200),
            span(3, 0, Probe::NodeKernel, 10, 40),
            span(4, 0, Probe::NodeKernel, 120, 180),
        ];
        let fig = reduce(&mut spans);
        assert_eq!((spans[2].parent, spans[3].parent), (1, 2));
        // Kernels of 30 and 60 ns; distribution self times of 70 and 90 ns.
        assert_eq!((fig.kernel_ms * 1e6).round(), 90.0);
        assert_eq!((fig.dist_self_ms * 1e6).round(), 160.0);
    }
}
