//! A simulated cluster node: one thread, one weaver, one request loop.
//!
//! This is the paper's Figure 15 server side — `PrimeFilter.main` with a
//! receive loop that takes messages off the wire and dispatches them to the
//! local object — generalised to serve constructions and arbitrary method
//! calls for any registered class.
//!
//! Requests carry interned [`MethodId`]/[`ClassId`] handles, not strings:
//! resolving the codec on the serving side is an array index, and the method
//! *name* needed for dispatch comes from the registry's `Arc<str>` boundary
//! copy. Replies are encoded into frames drawn from a shared [`BufPool`],
//! and a [`Request::CallPack`] frame executes many oneway calls from one
//! queue wakeup with no intermediate allocation (the pack's argument views
//! are zero-copy slices of the frame).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use weavepar_weave::{ObjId, WeaveError, WeaveResult, Weaveable, Weaver};

use crate::pool::{BufPool, SlotReply};
use crate::wire::{ClassId, MarshalRegistry, MethodId, PackReader};

/// A request arriving at a node.
pub enum Request {
    /// Create an instance from marshalled constructor arguments. `ctor` is
    /// the interned id of the class's `"new"` method — it names both the
    /// class and the argument codec.
    Construct {
        /// Interned id of `Class.new`.
        ctor: MethodId,
        /// Marshalled constructor arguments.
        args: Bytes,
        /// Reply channel carrying the new object's id.
        reply: Sender<WeaveResult<ObjId>>,
    },
    /// Snapshot (and optionally remove) an object's state for migration.
    Snapshot {
        /// Object to snapshot.
        obj: ObjId,
        /// Remove the object after snapshotting (move semantics).
        remove: bool,
        /// Reply channel with the marshalled state.
        reply: Sender<WeaveResult<Bytes>>,
    },
    /// Rebuild an instance of `class` from snapshotted state.
    Restore {
        /// Interned class id (must have a registered state codec).
        class: ClassId,
        /// Marshalled state.
        state: Bytes,
        /// Reply channel with the new object's id.
        reply: Sender<WeaveResult<ObjId>>,
    },
    /// Invoke `method` on object `obj` with marshalled arguments.
    Call {
        /// Target object on this node.
        obj: ObjId,
        /// Interned method id.
        method: MethodId,
        /// Marshalled arguments.
        args: Bytes,
        /// Reply slot for the marshalled return value; `None` makes the
        /// call oneway (MPP-style send).
        reply: Option<SlotReply>,
        /// At-most-once dedup key: a retried or duplicated delivery carrying
        /// a `seq` already in the node's dedup window is never executed
        /// again — replied duplicates get the cached reply, oneway
        /// duplicates are dropped. `None` (the default fast path) skips the
        /// window entirely.
        seq: Option<u64>,
    },
    /// A framed pack of oneway calls (see
    /// [`PackFrame`](crate::wire::PackFrame) for the layout): one submit,
    /// one wakeup, many executions.
    CallPack {
        /// The framed calls.
        frame: Bytes,
    },
}

impl Request {
    /// Fail the request's reply path with `err`; oneway requests are
    /// silently dropped (they have nowhere to report to).
    fn fail(self, err: impl Fn() -> WeaveError) {
        match self {
            Request::Construct { reply, .. } | Request::Restore { reply, .. } => {
                let _ = reply.send(Err(err()));
            }
            Request::Snapshot { reply, .. } => {
                let _ = reply.send(Err(err()));
            }
            Request::Call { reply: Some(reply), .. } => reply.send(Err(err())),
            Request::Call { reply: None, .. } | Request::CallPack { .. } => {}
        }
    }
}

/// One in-process "cluster node".
pub struct NodeRuntime {
    id: usize,
    weaver: Weaver,
    /// The request queue's sender, behind a mutex so [`NodeRuntime::kill`]
    /// can swap it for a closed channel without racing concurrent submits.
    tx: Mutex<Sender<Request>>,
    handle: Mutex<Option<JoinHandle<()>>>,
    down: Arc<AtomicBool>,
    woven: Arc<AtomicBool>,
}

impl NodeRuntime {
    /// Spawn the node's server thread with a private buffer pool.
    pub fn spawn(id: usize, marshal: MarshalRegistry) -> Self {
        Self::spawn_with_pool(id, marshal, Arc::new(BufPool::new()))
    }

    /// Spawn the node's server thread, recycling reply frames through the
    /// given pool (the fabric shares one pool across nodes and clients).
    pub fn spawn_with_pool(id: usize, marshal: MarshalRegistry, pool: Arc<BufPool>) -> Self {
        let weaver = Weaver::new();
        let (tx, rx) = unbounded::<Request>();
        let server_weaver = weaver.clone();
        let woven = Arc::new(AtomicBool::new(false));
        let down = Arc::new(AtomicBool::new(false));
        let server_woven = woven.clone();
        let server_down = down.clone();
        let handle = std::thread::Builder::new()
            .name(format!("node-{id}"))
            .spawn(move || serve(id, server_weaver, marshal, rx, server_woven, server_down, pool))
            .expect("spawning node thread");
        NodeRuntime {
            id,
            weaver,
            tx: Mutex::new(tx),
            handle: Mutex::new(Some(handle)),
            down,
            woven,
        }
    }

    /// Failure injection: mark the node as crashed. Every later submission
    /// fails with a [`WeaveError::NodeDown`], and requests already queued are
    /// failed promptly by the serve loop instead of executing — callers
    /// blocked on a reply see the error as soon as the loop reaches their
    /// request, rather than hanging until the node is dropped (the
    /// `RemoteException` the paper's Figure 14 wraps in try/catch).
    ///
    /// The kill linearises on the `down` flag *before* the channel swap: a
    /// concurrent [`NodeRuntime::submit`] either observed `down == false`
    /// and still holds the live sender (its request is drained-and-failed by
    /// the serve loop, which re-checks the flag per request), or observes
    /// `down == true` and is rejected up front. Either way no request is
    /// executed after the kill, and none is silently stranded in a channel
    /// nobody serves.
    pub fn kill(&self) {
        self.down.store(true, Ordering::SeqCst);
        // Swap the queue for a closed channel: the serve loop exits once the
        // original senders (including any in-flight clones) are gone, after
        // draining and failing whatever was queued.
        let (closed_tx, _) = unbounded();
        *self.tx.lock() = closed_tx;
    }

    /// Is the node marked as crashed?
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// Server-side weaving: when enabled, incoming calls dispatch through
    /// the node weaver's full join-point pipeline, so aspects plugged on the
    /// *node's* weaver apply to remote executions — the paper's MPP sketch,
    /// where the server JVM runs woven code too.
    pub fn set_woven(&self, woven: bool) {
        self.woven.store(woven, Ordering::SeqCst);
    }

    /// This node's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's weaver (its private object space). Exposed so tests and
    /// applications can register classes and inspect server-side state.
    pub fn weaver(&self) -> &Weaver {
        &self.weaver
    }

    /// Register a class on this node so construct/call requests can resolve
    /// it by name.
    pub fn register_class<T: Weaveable>(&self) {
        self.weaver.register_class::<T>();
    }

    /// Submit a request to the node's queue.
    pub fn submit(&self, request: Request) -> WeaveResult<()> {
        if self.is_down() {
            return Err(WeaveError::NodeDown { node: self.id });
        }
        self.tx.lock().send(request).map_err(|_| WeaveError::NodeDown { node: self.id })
    }

    /// A clone of the live queue sender, for delivery-injection threads that
    /// need to enqueue after a delay without borrowing the runtime. If the
    /// node is killed in the meantime the clone feeds the old (drained)
    /// channel or a closed one — either way the request is failed or
    /// dropped, never executed.
    pub(crate) fn sender(&self) -> Sender<Request> {
        self.tx.lock().clone()
    }
}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        // Closing the channel ends the serve loop after the queue drains.
        let (closed_tx, _) = unbounded();
        *self.tx.lock() = closed_tx;
        if let Some(handle) = self.handle.lock().take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for NodeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRuntime")
            .field("id", &self.id)
            .field("objects", &self.weaver.space().len())
            .finish()
    }
}

/// Execute one already-decoded call: dispatch by the registry's boundary
/// name, woven or unwoven.
fn execute(
    weaver: &Weaver,
    marshal: &MarshalRegistry,
    woven: bool,
    obj: ObjId,
    method: MethodId,
    args: &Bytes,
) -> WeaveResult<(MethodId, weavepar_weave::AnyValue)> {
    let entry = marshal.method_entry(method)?;
    let mut view = args.clone();
    let decoded = marshal.decode_args_id(method, &mut view)?;
    let ret = if woven {
        weaver.invoke_call_dyn(obj, &entry.method_name, decoded)?
    } else {
        weaver.invoke_unwoven(obj, &entry.method_name, decoded)?
    };
    Ok((method, ret))
}

/// Per-node at-most-once window: remembers recently seen call `seq` keys and
/// the reply outcome they produced, so a retried (or fault-injected
/// duplicate) delivery is answered from cache instead of executed twice.
///
/// `Some(result)` caches a replied call's encoded outcome; `None` marks a
/// oneway already executed (nothing to resend — the duplicate is dropped).
/// The window is bounded: the oldest entries are evicted FIFO, which is safe
/// because retries happen within a call's deadline, far inside the window.
struct DedupWindow {
    seen: HashMap<u64, Option<WeaveResult<Bytes>>>,
    order: VecDeque<u64>,
    cap: usize,
}

impl DedupWindow {
    fn new(cap: usize) -> Self {
        DedupWindow { seen: HashMap::new(), order: VecDeque::new(), cap }
    }

    /// Look up a previously executed call. `Some(cached)` means duplicate.
    fn check(&self, seq: u64) -> Option<&Option<WeaveResult<Bytes>>> {
        self.seen.get(&seq)
    }

    /// Record an executed call's outcome under its dedup key.
    fn record(&mut self, seq: u64, outcome: Option<WeaveResult<Bytes>>) {
        if self.seen.len() >= self.cap {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        if self.seen.insert(seq, outcome).is_none() {
            self.order.push_back(seq);
        }
    }
}

/// The receive loop: decode, dispatch unwoven (the weaving happened on the
/// client), encode the reply into a pooled frame.
fn serve(
    id: usize,
    weaver: Weaver,
    marshal: MarshalRegistry,
    rx: Receiver<Request>,
    woven: Arc<AtomicBool>,
    down: Arc<AtomicBool>,
    pool: Arc<BufPool>,
) {
    let mut dedup = DedupWindow::new(4096);
    while let Ok(request) = rx.recv() {
        // Crashed node: fail everything still queued instead of executing
        // it, so callers blocked on replies are released promptly.
        if down.load(Ordering::SeqCst) {
            request.fail(|| WeaveError::NodeDown { node: id });
            continue;
        }
        match request {
            Request::Construct { ctor, args, reply } => {
                let result = (|| {
                    let entry = marshal.method_entry(ctor)?;
                    let class = entry.class_name.clone();
                    let mut view = args.clone();
                    let decoded = marshal.decode_args_id(ctor, &mut view)?;
                    weaver.construct_dyn_unwoven(&class, decoded)
                })();
                pool.recycle(args);
                let _ = reply.send(result);
            }
            Request::Snapshot { obj, remove, reply } => {
                let result = (|| {
                    let class = weaver.space().class_of(obj)?;
                    let state = marshal.snapshot_state(&weaver, class, obj)?;
                    if remove {
                        weaver.space().remove(obj);
                    }
                    Ok(state)
                })();
                let _ = reply.send(result);
            }
            Request::Restore { class, state, reply } => {
                let result = marshal
                    .class_name(class)
                    .and_then(|name| marshal.restore_state(&weaver, &name, &state));
                let _ = reply.send(result);
            }
            Request::Call { obj, method, args, reply, seq } => {
                // At-most-once: a seq already in the window was executed by
                // an earlier delivery — answer from cache (replied) or drop
                // (oneway) without touching the object again.
                if let Some(seq) = seq {
                    if let Some(cached) = dedup.check(seq) {
                        pool.recycle(args);
                        if let Some(reply) = reply {
                            match cached {
                                Some(outcome) => reply.send(outcome.clone()),
                                // A oneway executed under this seq; a replied
                                // duplicate asking for its result is a
                                // protocol mismatch — fail it loudly.
                                None => reply.send(Err(WeaveError::remote(
                                    "duplicate delivery of a oneway call",
                                ))),
                            }
                        }
                        continue;
                    }
                }
                let woven = woven.load(Ordering::SeqCst);
                let result = execute(&weaver, &marshal, woven, obj, method, &args);
                pool.recycle(args);
                match reply {
                    Some(reply) => {
                        let encoded = result.and_then(|(method, ret)| {
                            let mut buf = pool.take();
                            marshal.encode_ret_id(method, &ret, &mut buf)?;
                            Ok(buf.freeze())
                        });
                        if let Some(seq) = seq {
                            dedup.record(seq, Some(encoded.clone()));
                        }
                        reply.send(encoded);
                    }
                    None => {
                        // Oneway: failures have nowhere to go; drop them like
                        // a lost datagram (the paper's MPP send has the same
                        // property).
                        let _ = result;
                        if let Some(seq) = seq {
                            dedup.record(seq, None);
                        }
                    }
                }
            }
            Request::CallPack { frame } => {
                let woven = woven.load(Ordering::SeqCst);
                match PackReader::new(frame.clone()) {
                    Ok(reader) => {
                        for entry in reader {
                            // Entries are oneway: malformed frames and failed
                            // calls alike are dropped datagrams.
                            let Ok((obj, method, args)) = entry else { break };
                            let _ = execute(&weaver, &marshal, woven, obj, method, &args);
                        }
                    }
                    Err(_) => { /* truncated header: drop the pack */ }
                }
                pool.recycle(frame);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{ReplyPool, SlotTicket};
    use crossbeam::channel::bounded;
    use weavepar_weave::WeaveResult as WR;

    struct Adder {
        total: u64,
    }

    weavepar_weave::weaveable! {
        class Adder as AdderProxy {
            fn new(start: u64) -> Self { Adder { total: start } }
            fn add(&mut self, x: u64) -> u64 {
                self.total += x;
                self.total
            }
        }
    }

    static GATE_OPEN: AtomicBool = AtomicBool::new(false);

    struct Blocker;

    weavepar_weave::weaveable! {
        class Blocker as BlockerProxy {
            fn new() -> Self { Blocker }
            fn block(&mut self) -> u64 {
                while !super::tests::GATE_OPEN.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                1
            }
        }
    }

    fn marshal() -> MarshalRegistry {
        let m = MarshalRegistry::new();
        m.register::<(u64,), ()>("Adder", "new");
        m.register::<(u64,), u64>("Adder", "add");
        m.register::<(), ()>("Blocker", "new");
        m.register::<(), u64>("Blocker", "block");
        m
    }

    fn construct(node: &NodeRuntime, m: &MarshalRegistry, class: &str, args: Bytes) -> WR<ObjId> {
        let (tx, rx) = bounded(1);
        node.submit(Request::Construct { ctor: m.method_id(class, "new")?, args, reply: tx })?;
        rx.recv().map_err(|_| weavepar_weave::WeaveError::remote("no reply"))?
    }

    /// Submit a replied call; the returned ticket parks on its reply slot.
    fn submit_replied(
        node: &NodeRuntime,
        obj: ObjId,
        method: MethodId,
        args: Bytes,
        seq: Option<u64>,
    ) -> WR<SlotTicket> {
        let (ticket, reply) = ReplyPool::new().checkout();
        node.submit(Request::Call { obj, method, args, reply: Some(reply), seq })?;
        Ok(ticket)
    }

    fn construct_adder(node: &NodeRuntime, m: &MarshalRegistry, start: u64) -> WR<ObjId> {
        let args = m.encode_args("Adder", "new", &weavepar_weave::args![start]).unwrap();
        construct(node, m, "Adder", args)
    }

    fn add_args(m: &MarshalRegistry, x: u64) -> Bytes {
        m.encode_args("Adder", "add", &weavepar_weave::args![x]).unwrap()
    }

    #[test]
    fn construct_and_call_roundtrip() {
        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        node.register_class::<Adder>();
        let obj = construct_adder(&node, &m, 10).unwrap();

        let add = m.method_id("Adder", "add").unwrap();
        let ret = submit_replied(&node, obj, add, add_args(&m, 5), None).unwrap().wait().unwrap();
        let v = m.decode_ret("Adder", "add", &ret).unwrap();
        assert_eq!(*v.downcast::<u64>().unwrap(), 15);
    }

    #[test]
    fn oneway_calls_execute() {
        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        node.register_class::<Adder>();
        let obj = construct_adder(&node, &m, 0).unwrap();
        let add = m.method_id("Adder", "add").unwrap();
        for _ in 0..3 {
            node.submit(Request::Call {
                obj,
                method: add,
                args: add_args(&m, 1),
                reply: None,
                seq: None,
            })
            .unwrap();
        }
        // Synchronise via a replied call.
        let ret = submit_replied(&node, obj, add, add_args(&m, 0), None).unwrap().wait().unwrap();
        let v = m.decode_ret("Adder", "add", &ret).unwrap();
        assert_eq!(*v.downcast::<u64>().unwrap(), 3);
    }

    #[test]
    fn call_pack_executes_all_entries() {
        use crate::wire::PackFrame;
        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        node.register_class::<Adder>();
        let obj = construct_adder(&node, &m, 0).unwrap();
        let add = m.method_id("Adder", "add").unwrap();
        let mut frame = PackFrame::new(bytes::BytesMut::new());
        for _ in 0..10 {
            frame.push(obj, add, &m, &weavepar_weave::args![1u64]).unwrap();
        }
        node.submit(Request::CallPack { frame: frame.finish() }).unwrap();
        // Synchronise via a replied call: queue order is execution order.
        let ret = submit_replied(&node, obj, add, add_args(&m, 0), None).unwrap().wait().unwrap();
        let v = m.decode_ret("Adder", "add", &ret).unwrap();
        assert_eq!(*v.downcast::<u64>().unwrap(), 10);
    }

    #[test]
    fn unknown_class_fails_cleanly() {
        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        // Class NOT registered on the node.
        let err = construct_adder(&node, &m, 1).unwrap_err();
        assert!(matches!(err, weavepar_weave::WeaveError::Construction(_)));
    }

    #[test]
    fn call_on_missing_object_fails_cleanly() {
        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        node.register_class::<Adder>();
        let add = m.method_id("Adder", "add").unwrap();
        let ticket = submit_replied(&node, ObjId::from_raw(404), add, add_args(&m, 1), None);
        let err = ticket.unwrap().wait().unwrap_err();
        assert!(matches!(err, WeaveError::NoSuchObject(_)), "{err}");
    }

    #[test]
    fn killed_node_rejects_new_requests() {
        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        node.register_class::<Adder>();
        let obj = construct_adder(&node, &m, 0).unwrap();
        assert!(!node.is_down());
        node.kill();
        assert!(node.is_down());
        let add = m.method_id("Adder", "add").unwrap();
        let err = submit_replied(&node, obj, add, add_args(&m, 1), None).err().unwrap();
        assert!(matches!(err, weavepar_weave::WeaveError::NodeDown { node: 0 }));
    }

    #[test]
    fn kill_fails_queued_requests_promptly() {
        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        node.register_class::<Adder>();
        node.register_class::<Blocker>();
        let adder = construct_adder(&node, &m, 0).unwrap();
        let blocker = construct(
            &node,
            &m,
            "Blocker",
            m.encode_args("Blocker", "new", &weavepar_weave::args![]).unwrap(),
        )
        .unwrap();
        GATE_OPEN.store(false, Ordering::SeqCst);
        // Occupy the serve loop with a blocking oneway call...
        node.submit(Request::Call {
            obj: blocker,
            method: m.method_id("Blocker", "block").unwrap(),
            args: m.encode_args("Blocker", "block", &weavepar_weave::args![]).unwrap(),
            reply: None,
            seq: None,
        })
        .unwrap();
        // ...queue a replied call behind it...
        let add = m.method_id("Adder", "add").unwrap();
        let ticket = submit_replied(&node, adder, add, add_args(&m, 1), None).unwrap();
        // ...kill the node while the call is queued, then release the gate.
        node.kill();
        GATE_OPEN.store(true, Ordering::SeqCst);
        // The queued caller must be failed, not executed or stranded.
        let err = ticket.wait().unwrap_err();
        assert!(matches!(err, weavepar_weave::WeaveError::NodeDown { node: 0 }));
    }

    #[test]
    fn kill_linearises_against_concurrent_submits() {
        // A submit racing the kill must either be rejected up front or have
        // its request drained-and-failed — never stranded in a queue nobody
        // serves. Run several rounds; each round hammers submits from two
        // threads while the main thread kills the node, then asserts every
        // accepted replied call got an answer.
        for _round in 0..8 {
            let m = marshal();
            let node = Arc::new(NodeRuntime::spawn(3, m.clone()));
            node.register_class::<Adder>();
            let obj = construct_adder(&node, &m, 0).unwrap();
            let add = m.method_id("Adder", "add").unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let mut submitters = Vec::new();
            for _ in 0..2 {
                let node = node.clone();
                let m = m.clone();
                let stop = stop.clone();
                submitters.push(std::thread::spawn(move || {
                    let mut accepted = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        if let Ok(ticket) = submit_replied(&node, obj, add, add_args(&m, 1), None) {
                            accepted.push(ticket);
                        }
                    }
                    accepted
                }));
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
            node.kill();
            stop.store(true, Ordering::SeqCst);
            for handle in submitters {
                for ticket in handle.join().unwrap() {
                    // Every accepted call gets a reply (value before the kill,
                    // NodeDown after) within a bounded wait — no stranding,
                    // and no request dropped unanswered (the slot's
                    // drop-guard error).
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                    if let Err(err) = ticket.wait_deadline(Some(deadline), 5000) {
                        assert!(matches!(err, WeaveError::NodeDown { node: 3 }), "{err}");
                    }
                }
            }
            // And the node still shuts down cleanly.
            drop(node);
        }
    }

    #[test]
    fn server_side_weaving_applies_node_aspects() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use weavepar_weave::prelude::*;

        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        node.register_class::<Adder>();
        let fired = std::sync::Arc::new(AtomicU64::new(0));
        let fired2 = fired.clone();
        node.weaver().plug(
            Aspect::named("ServerLogging")
                .before(Pointcut::call("Adder.add"), move |_| {
                    fired2.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                })
                .build(),
        );
        let obj = construct_adder(&node, &m, 0).unwrap();
        let add = m.method_id("Adder", "add").unwrap();
        let send = |obj| {
            submit_replied(&node, obj, add, add_args(&m, 1), None).unwrap().wait().unwrap();
        };
        // Unwoven (default): server aspects do not apply.
        send(obj);
        assert_eq!(fired.load(Ordering::Relaxed), 0);
        // Woven: they do.
        node.set_woven(true);
        send(obj);
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        node.set_woven(false);
        send(obj);
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dedup_window_suppresses_duplicate_deliveries() {
        let m = marshal();
        let node = NodeRuntime::spawn(0, m.clone());
        node.register_class::<Adder>();
        let obj = construct_adder(&node, &m, 0).unwrap();
        let add = m.method_id("Adder", "add").unwrap();
        // Same seq delivered twice as a oneway: the add executes once.
        for _ in 0..2 {
            node.submit(Request::Call {
                obj,
                method: add,
                args: add_args(&m, 5),
                reply: None,
                seq: Some(7),
            })
            .unwrap();
        }
        // A replied call duplicated under one seq: executed once, the second
        // delivery answered from the cached reply.
        let mut replies = Vec::new();
        for _ in 0..2 {
            replies.push(submit_replied(&node, obj, add, add_args(&m, 1), Some(8)).unwrap());
        }
        for ticket in replies {
            let ret = ticket.wait().unwrap();
            let v = m.decode_ret("Adder", "add", &ret).unwrap();
            // 0 + 5 (executed once) + 1 (executed once) — both deliveries of
            // the replied call see the same total.
            assert_eq!(*v.downcast::<u64>().unwrap(), 6);
        }
    }

    #[test]
    fn dedup_window_evicts_oldest_entries() {
        let mut w = DedupWindow::new(2);
        w.record(1, None);
        w.record(2, None);
        w.record(3, None);
        assert!(w.check(1).is_none(), "oldest entry evicted at capacity");
        assert!(w.check(2).is_some());
        assert!(w.check(3).is_some());
    }

    #[test]
    fn drop_shuts_the_node_down() {
        let m = marshal();
        let node = NodeRuntime::spawn(7, m);
        assert_eq!(node.id(), 7);
        drop(node); // must join without hanging
    }
}
