//! The mutable network state and wire-time model.
//!
//! [`NetState`] owns the contention bookkeeping for one partition of one
//! machine: a FIFO resource per unidirectional link plus a per-node
//! injection engine (the CPU copy loop, the Paragon co-processor, or the
//! T3D block-transfer engine, per [`SendEngine`]). The immutable part —
//! topology, routes and link capacities — is built once per process for
//! each `(TopologyKind, p)` and shared by every state of that shape.
//!
//! # Wire model
//!
//! Wormhole routing is approximated in the standard way: a message's
//! header walks the route paying one hop latency per link, the payload
//! streams pipelined behind it at the bottleneck byte rate, and each link
//! is *occupied* for the full serialization time from the moment the
//! header claims it. Two messages wanting the same link therefore
//! serialize — the contention the paper observes in the Paragon mesh and
//! the SP2's blocking Omega stages.

use crate::class::OpClass;
use crate::spec::{MachineSpec, SendEngine, TopologyKind};
use desim::{FifoResource, ResourcePool, SimDuration, SimTime, TypedEvent};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use topo::{NodeId, Topology};

/// Timing outcome of pushing one message into the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendTiming {
    /// When the sending CPU is free to continue (after any blocking copy
    /// or engine setup; *excludes* the per-message `o_send` overhead,
    /// which the executor charges before calling the network).
    pub cpu_release: SimTime,
    /// When the full payload has arrived at the destination node (before
    /// receive-side software costs).
    pub delivered: SimTime,
    /// Time this message queued behind the injection engine (FIFO
    /// occupancy wait). Zero for local sends.
    pub inject_wait: SimDuration,
    /// Time this message queued behind busy links, summed over its
    /// route (contention wait). Zero for local sends.
    pub link_wait: SimDuration,
}

impl SendTiming {
    /// The typed completion event for this send: fires
    /// [`TypedEvent::MessageReady`] at the delivery instant. Actor ids
    /// are whatever the executor keys its state machines by — logical
    /// ranks in `mpisim`, which need not equal physical node ids under
    /// non-identity placement. The executor posts the returned pair on
    /// the engine's allocation-free path.
    pub fn delivery_event(&self, src_actor: usize, dst_actor: usize) -> (SimTime, TypedEvent) {
        (
            self.delivered,
            TypedEvent::MessageReady {
                src: src_actor as u32,
                dst: dst_actor as u32,
            },
        )
    }

    /// The typed CPU-release event: fires [`TypedEvent::RankResume`] for
    /// the sending actor when its CPU is free to continue.
    pub fn release_event(&self, actor: usize) -> (SimTime, TypedEvent) {
        (
            self.cpu_release,
            TypedEvent::RankResume { rank: actor as u32 },
        )
    }

    /// True when the message never waited for a busy injection engine or
    /// link: its delivery time follows from the route alone. Occupancy
    /// commits in event-time order, so the predicate is exact, not
    /// heuristic.
    pub fn uncontended(&self) -> bool {
        self.inject_wait == SimDuration::ZERO && self.link_wait == SimDuration::ZERO
    }
}

/// Ablation switches for the wire model (all on by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireConfig {
    /// Model per-link occupancy (off ⇒ infinite link bandwidth sharing).
    pub link_contention: bool,
    /// Serialize a node's outgoing messages through its injection engine
    /// (off ⇒ a node can inject unlimited messages at once).
    pub nic_serialization: bool,
    /// Pipelined wormhole propagation (off ⇒ store-and-forward: the full
    /// serialization time is paid on *every* hop).
    pub wormhole: bool,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            link_contention: true,
            nic_serialization: true,
            wormhole: true,
        }
    }
}

/// Per-link and per-class instrumentation, collected only when enabled
/// via [`NetState::enable_instrumentation`] — the default (disabled)
/// path costs one pointer-null check per send.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetInstr {
    /// Raw payload bytes carried per unidirectional link (each message's
    /// payload counted once per link on its route; local sends excluded).
    pub link_bytes: Vec<u64>,
    /// Messages that traversed each unidirectional link.
    pub link_msgs: Vec<u64>,
    /// Total time spent queued waiting for busy links, ns.
    pub link_queue_ns: u64,
    /// Total time spent queued behind the injection engine, ns.
    pub inject_queue_ns: u64,
    /// Messages sent, indexed by [`OpClass::index`].
    pub class_msgs: [u64; OpClass::ALL.len()],
    /// Payload bytes sent, indexed by [`OpClass::index`].
    pub class_bytes: [u64; OpClass::ALL.len()],
}

impl NetInstr {
    /// Exports the instrumentation-only counters: queueing delays,
    /// per-class message/byte counts, and the per-link byte distribution
    /// as a histogram.
    pub fn export_metrics(&self, reg: &mut obs::MetricsRegistry) {
        reg.counter("net.queue.link_wait_ns", self.link_queue_ns);
        reg.counter("net.queue.inject_wait_ns", self.inject_queue_ns);
        for op in OpClass::ALL {
            let i = op.index();
            if self.class_msgs[i] > 0 {
                reg.counter(
                    format!("net.class.{}.messages", op.key()),
                    self.class_msgs[i],
                );
                reg.counter(format!("net.class.{}.bytes", op.key()), self.class_bytes[i]);
            }
        }
        reg.observe_all(
            "net.link.bytes",
            self.link_bytes.iter().copied().filter(|&b| b > 0),
        );
    }
}

/// Send-engine timing for one message, independent of any network
/// occupancy state: when the CPU is released, when the payload is ready
/// to enter the wire, and at what byte rate it streams.
#[derive(Debug, Clone, Copy)]
struct EngineTiming {
    /// When the sending CPU is free to continue.
    cpu_release: SimTime,
    /// When the payload is ready to enter the injection engine.
    engine_ready: SimTime,
    /// The engine's streaming rate, ns per byte (the wire streams at the
    /// slower of this and the link rate).
    engine_ns_per_byte: f64,
}

/// The immutable network of one `p`-node partition: its topology, every
/// route, and the link capacities. Routes and capacities depend only on
/// the topology kind and `p` — not on the wire config, the placement or
/// the cost table — so [`Network::shared`] builds one per `(kind, p)`
/// per process and keeps it until the process exits.
struct Network {
    topo: Box<dyn Topology + Send + Sync>,
    nodes: usize,
    /// The links of route `src -> dst` are
    /// `route_links[route_start[i]..route_start[i + 1]]` with
    /// `i = src * nodes + dst`.
    route_start: Vec<u32>,
    route_links: Vec<u32>,
    /// Relative link capacities, floored at 1 and indexed by link id, so
    /// `send` avoids a virtual topology call per hop.
    link_cap: Vec<f64>,
}

impl Network {
    fn build(kind: TopologyKind, p: usize) -> Self {
        let topo = kind.build(p);
        let nodes = topo.nodes();
        let mut route_start = Vec::with_capacity(nodes * nodes + 1);
        let mut route_links = Vec::new();
        route_start.push(0);
        for src in 0..nodes {
            for dst in 0..nodes {
                let route = topo.route(NodeId(src), NodeId(dst));
                route_links.extend(
                    route
                        .links()
                        .iter()
                        .map(|l| u32::try_from(l.0).expect("link ids fit u32")),
                );
                route_start
                    .push(u32::try_from(route_links.len()).expect("route table offsets fit u32"));
            }
        }
        let link_cap = (0..topo.links())
            .map(|l| topo.link_capacity(topo::LinkId(l)).max(1.0))
            .collect();
        Network {
            topo,
            nodes,
            route_start,
            route_links,
            link_cap,
        }
    }

    /// The process-wide network for `(kind, p)`, built on first use.
    fn shared(kind: TopologyKind, p: usize) -> Arc<Network> {
        type Memo = Mutex<HashMap<(TopologyKind, usize), Arc<Network>>>;
        static NETWORKS: OnceLock<Memo> = OnceLock::new();
        // A build that panics leaves the map untouched (the entry is
        // inserted only after `build` returns), so a poisoned lock still
        // guards a valid map.
        let mut memo = NETWORKS
            .get_or_init(Memo::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            memo.entry((kind, p))
                .or_insert_with(|| Arc::new(Network::build(kind, p))),
        )
    }

    /// The link ids of the route `src -> dst`, in traversal order.
    fn route(&self, src: NodeId, dst: NodeId) -> &[u32] {
        let i = src.0 * self.nodes + dst.0;
        &self.route_links[self.route_start[i] as usize..self.route_start[i + 1] as usize]
    }
}

/// Mutable network state for one `p`-node partition of a machine.
pub struct NetState {
    network: Arc<Network>,
    links: ResourcePool,
    inject: Vec<FifoResource>,
    config: WireConfig,
    messages: u64,
    bytes: u64,
    /// Per-link/per-class accounting; `None` (the default) keeps the
    /// send hot path free of per-link bookkeeping.
    instr: Option<Box<NetInstr>>,
}

impl std::fmt::Debug for NetState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetState")
            .field("topology", &self.network.topo.describe())
            .field("messages", &self.messages)
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl NetState {
    /// Builds the network state for a `p`-node partition of `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `p` exceeds the machine's measured maximum
    /// times four (a guard against accidental huge builds).
    pub fn new(spec: &MachineSpec, p: usize) -> Self {
        Self::with_config(spec, p, WireConfig::default())
    }

    /// Builds with explicit ablation switches. The occupancy watermarks
    /// start fresh; the topology and route table are the process-wide
    /// ones for `(spec.topology, p)`, built on first use.
    pub fn with_config(spec: &MachineSpec, p: usize, config: WireConfig) -> Self {
        assert!(p > 0, "partition must have at least one node");
        assert!(
            p <= spec.max_nodes * 4,
            "partition of {p} nodes is far beyond {}'s {}-node maximum",
            spec.name,
            spec.max_nodes
        );
        let network = Network::shared(spec.topology, p);
        NetState {
            links: ResourcePool::new(network.link_cap.len()),
            inject: vec![FifoResource::new(); p],
            network,
            config,
            messages: 0,
            bytes: 0,
            instr: None,
        }
    }

    /// Turns on per-link / per-class accounting for subsequent sends.
    /// Counters start at zero; calling again resets them.
    pub fn enable_instrumentation(&mut self) {
        self.instr = Some(Box::new(NetInstr {
            link_bytes: vec![0; self.links.len()],
            link_msgs: vec![0; self.links.len()],
            ..NetInstr::default()
        }));
    }

    /// Moves the collected instrumentation out, if enabled; accounting
    /// stops, and later calls return `None`.
    pub fn take_instrumentation(&mut self) -> Option<NetInstr> {
        self.instr.take().map(|i| *i)
    }

    /// The topology in use.
    pub fn topology(&self) -> &dyn Topology {
        &*self.network.topo
    }

    /// Number of nodes in the partition (a hypercube partition of 48
    /// nodes routes through a 64-node cube, but has 48 nodes).
    pub fn nodes(&self) -> usize {
        self.inject.len()
    }

    /// Messages sent through this state so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages
    }

    /// Payload bytes sent through this state so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes
    }

    /// Busy time of every link that carried traffic, sorted hottest
    /// first: the link-load distribution of whatever ran on this state.
    pub fn link_loads(&self) -> Vec<(topo::LinkId, SimDuration)> {
        let mut loads: Vec<(topo::LinkId, SimDuration)> = (0..self.links.len())
            .filter_map(|i| {
                let busy = self.links.get(i).expect("in range").busy_time();
                (busy > SimDuration::ZERO).then_some((topo::LinkId(i), busy))
            })
            .collect();
        loads.sort_by_key(|&(_, busy)| std::cmp::Reverse(busy));
        loads
    }

    /// Sends `bytes` from `src` to `dst` starting at `start` (the instant
    /// the sending CPU has finished its per-message overhead). Returns
    /// when the CPU is released and when the payload is delivered.
    ///
    /// # Panics
    ///
    /// Panics if a node id is out of range.
    pub fn send(
        &mut self,
        spec: &MachineSpec,
        class: OpClass,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        start: SimTime,
    ) -> SendTiming {
        assert!(
            src.0 < self.nodes() && dst.0 < self.nodes(),
            "node out of range"
        );
        self.messages += 1;
        self.bytes += u64::from(bytes);
        if let Some(instr) = &mut self.instr {
            instr.class_msgs[class.index()] += 1;
            instr.class_bytes[class.index()] += u64::from(bytes);
        }

        let EngineTiming {
            cpu_release,
            engine_ready,
            engine_ns_per_byte,
        } = spec.engine_timing(class, bytes, start);

        if src == dst {
            // Local delivery: just the send-side copy; no wire.
            return SendTiming {
                cpu_release,
                delivered: engine_ready,
                inject_wait: SimDuration::ZERO,
                link_wait: SimDuration::ZERO,
            };
        }

        // Wire traversal: the whole message occupies the injection engine
        // for its serialization time, then each link on its route from
        // the instant the header reaches it. The ablation switches are
        // read once, outside the per-hop loop.
        let WireConfig {
            link_contention,
            nic_serialization,
            wormhole,
        } = self.config;
        let stream_ns_per_byte = spec.link_ns_per_byte.max(engine_ns_per_byte);
        let wire_bytes = f64::from(bytes.max(spec.min_packet_bytes));
        let serialize = SimDuration::from_nanos_f64(wire_bytes * stream_ns_per_byte);
        let network = &*self.network;
        let route = network.route(src, dst);
        if let Some(instr) = &mut self.instr {
            for &link in route {
                instr.link_bytes[link as usize] += u64::from(bytes);
                instr.link_msgs[link as usize] += 1;
            }
        }

        let inject_at = if nic_serialization {
            self.inject[src.0].acquire(engine_ready, serialize)
        } else {
            engine_ready
        };
        let inject_wait = inject_at.since(engine_ready);

        // Header propagation with per-link occupancy. A link's occupancy
        // is the serialization time divided by its relative capacity (fat
        // topologies aggregate bandwidth upward). Store-and-forward
        // re-serializes the full payload per hop.
        let hop = SimDuration::from_nanos_f64(spec.hop_ns);
        let hop_extra = if wormhole { hop } else { hop + serialize };
        let mut link_wait = SimDuration::ZERO;
        let mut t_hdr = inject_at;
        for &link in route {
            let capacity = network.link_cap[link as usize];
            let occupancy = if capacity > 1.0 {
                SimDuration::from_nanos_f64(wire_bytes * stream_ns_per_byte / capacity)
            } else {
                serialize
            };
            let at = if link_contention {
                self.links.acquire(link as usize, t_hdr, occupancy)
            } else {
                t_hdr
            };
            link_wait += at.since(t_hdr);
            t_hdr = at + hop_extra;
        }
        if let Some(instr) = &mut self.instr {
            instr.inject_queue_ns += inject_wait.as_nanos();
            instr.link_queue_ns += link_wait.as_nanos();
        }
        SendTiming {
            cpu_release,
            delivered: if wormhole { t_hdr + serialize } else { t_hdr },
            inject_wait,
            link_wait,
        }
    }
}

/// Software-cost helpers shared by the executor. These are thin wrappers
/// over the calibrated [`CostTable`](crate::class::CostTable), kept here
/// so the executor has a single vocabulary for all time charges.
impl MachineSpec {
    /// One-time per-rank cost of entering a collective.
    pub fn entry_overhead(&self, class: OpClass) -> SimDuration {
        SimDuration::from_micros_f64(self.costs.get(class).entry_us)
    }

    /// Per-message send-side CPU overhead (descriptor, matching, kernel
    /// trap) — excludes the payload copy, which the network model charges.
    pub fn send_overhead(&self, class: OpClass) -> SimDuration {
        SimDuration::from_micros_f64(self.costs.get(class).o_send_us)
    }

    /// Per-message receive-side cost: fixed overhead plus the receive
    /// copy of `bytes`.
    pub fn recv_overhead(&self, class: OpClass, bytes: u32) -> SimDuration {
        let c = self.costs.get(class);
        SimDuration::from_micros_f64(c.o_recv_us)
            + SimDuration::from_nanos_f64(f64::from(bytes) * c.byte_recv_ns)
    }

    /// Cost of combining `bytes` of operand data in a reduction.
    pub fn compute_cost(&self, bytes: u32) -> SimDuration {
        SimDuration::from_nanos_f64(f64::from(bytes) * self.compute_ns_per_byte)
    }

    /// Send-engine behaviour for one message: who pays the payload copy,
    /// and at what byte rate the payload enters the wire. Classes whose
    /// sends stay on the CPU (`offload = false`) bypass the engine
    /// entirely.
    fn engine_timing(&self, class: OpClass, bytes: u32, start: SimTime) -> EngineTiming {
        let costs = self.costs.get(class);
        let copy = SimDuration::from_nanos_f64(f64::from(bytes) * costs.byte_send_ns);
        let engine = if costs.offload {
            self.send_engine
        } else {
            SendEngine::Cpu
        };
        let (cpu_release, engine_ready, engine_ns_per_byte) = match engine {
            SendEngine::Cpu => {
                let ready = start + copy;
                (ready, ready, costs.byte_send_ns)
            }
            SendEngine::Coprocessor { ns_per_byte } => {
                // CPU posts a descriptor and is released immediately; the
                // co-processor streams the payload.
                (start, start, ns_per_byte)
            }
            SendEngine::BlockTransfer {
                threshold_bytes,
                setup_us,
                ns_per_byte,
            } => {
                if bytes >= threshold_bytes {
                    let ready = start + SimDuration::from_micros_f64(setup_us);
                    (ready, ready, ns_per_byte)
                } else {
                    let ready = start + copy;
                    (ready, ready, costs.byte_send_ns)
                }
            }
        };
        EngineTiming {
            cpu_release,
            engine_ready,
            engine_ns_per_byte,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassCosts, CostTable};
    use crate::spec::TopologyKind;

    fn spec(engine: SendEngine) -> MachineSpec {
        MachineSpec {
            name: "test",
            topology: TopologyKind::Mesh2d,
            hop_ns: 100.0,
            link_ns_per_byte: 10.0,
            min_packet_bytes: 1,
            costs: CostTable::uniform(ClassCosts {
                entry_us: 0.0,
                o_send_us: 0.0,
                o_recv_us: 0.0,
                byte_send_ns: 2.0,
                byte_recv_ns: 3.0,
                offload: true,
            }),
            compute_ns_per_byte: 5.0,
            send_engine: engine,
            hw_barrier: None,
            max_nodes: 128,
        }
    }

    const T0: SimTime = SimTime::ZERO;

    /// The send arithmetic of the packetized wire loop this module ran
    /// before whole-message reservation, at one segment per message:
    /// chained FIFO updates on local watermark copies, committed once per
    /// (message, resource). It keeps its own watermarks over the shared
    /// [`Network`], so it is an independent oracle for [`NetState::send`].
    struct ReferenceNet {
        network: Arc<Network>,
        config: WireConfig,
        inject_free: Vec<SimTime>,
        link_free: Vec<SimTime>,
        link_busy: Vec<SimDuration>,
    }

    impl ReferenceNet {
        fn new(spec: &MachineSpec, p: usize, config: WireConfig) -> Self {
            let network = Network::shared(spec.topology, p);
            let links = network.link_cap.len();
            ReferenceNet {
                network,
                config,
                inject_free: vec![SimTime::ZERO; p],
                link_free: vec![SimTime::ZERO; links],
                link_busy: vec![SimDuration::ZERO; links],
            }
        }

        fn send(
            &mut self,
            spec: &MachineSpec,
            class: OpClass,
            src: NodeId,
            dst: NodeId,
            bytes: u32,
            start: SimTime,
        ) -> SendTiming {
            let EngineTiming {
                cpu_release,
                engine_ready,
                engine_ns_per_byte,
            } = spec.engine_timing(class, bytes, start);
            if src == dst {
                return SendTiming {
                    cpu_release,
                    delivered: engine_ready,
                    inject_wait: SimDuration::ZERO,
                    link_wait: SimDuration::ZERO,
                };
            }
            let stream_ns_per_byte = spec.link_ns_per_byte.max(engine_ns_per_byte);
            let total_bytes = bytes.max(spec.min_packet_bytes);
            let seg_size = total_bytes;
            let route = self.network.route(src, dst);
            let hop = SimDuration::from_nanos_f64(spec.hop_ns);
            let mut inject_free = self.inject_free[src.0];
            let mut link_free: Vec<SimTime> =
                route.iter().map(|&l| self.link_free[l as usize]).collect();
            let mut link_service = vec![SimDuration::ZERO; route.len()];
            let mut inject_queue_ns = 0u64;
            let mut link_queue_ns = 0u64;
            let mut remaining = total_bytes;
            let mut segment_ready = engine_ready;
            let mut delivered = engine_ready;
            while remaining > 0 {
                let chunk = remaining.min(seg_size);
                remaining -= chunk;
                let chunk_bytes = f64::from(chunk.max(spec.min_packet_bytes));
                let serialize = SimDuration::from_nanos_f64(chunk_bytes * stream_ns_per_byte);
                let inject_at = if self.config.nic_serialization {
                    let at = segment_ready.max(inject_free);
                    inject_free = at + serialize;
                    inject_queue_ns += at.since(segment_ready).as_nanos();
                    at
                } else {
                    segment_ready
                };
                segment_ready = inject_at + serialize;
                let hop_extra = if self.config.wormhole {
                    hop
                } else {
                    hop + serialize
                };
                let mut t_hdr = inject_at;
                for (li, &link) in route.iter().enumerate() {
                    let capacity = self.network.link_cap[link as usize];
                    let occupancy = if capacity > 1.0 {
                        SimDuration::from_nanos_f64(chunk_bytes * stream_ns_per_byte / capacity)
                    } else {
                        serialize
                    };
                    let at = if self.config.link_contention {
                        let start = t_hdr.max(link_free[li]);
                        link_free[li] = start + occupancy;
                        link_service[li] += occupancy;
                        link_queue_ns += start.since(t_hdr).as_nanos();
                        start
                    } else {
                        t_hdr
                    };
                    t_hdr = at + hop_extra;
                }
                let seg_delivered = if self.config.wormhole {
                    t_hdr + serialize
                } else {
                    t_hdr
                };
                delivered = delivered.max(seg_delivered);
            }
            if self.config.nic_serialization {
                self.inject_free[src.0] = inject_free;
            }
            if self.config.link_contention {
                for (li, &link) in route.iter().enumerate() {
                    self.link_free[link as usize] = link_free[li];
                    self.link_busy[link as usize] += link_service[li];
                }
            }
            SendTiming {
                cpu_release,
                delivered,
                inject_wait: SimDuration::from_nanos(inject_queue_ns),
                link_wait: SimDuration::from_nanos(link_queue_ns),
            }
        }

        fn link_loads(&self) -> Vec<(topo::LinkId, SimDuration)> {
            let mut loads: Vec<(topo::LinkId, SimDuration)> = (self.link_busy.iter().enumerate())
                .filter(|&(_, &busy)| busy > SimDuration::ZERO)
                .map(|(i, &busy)| (topo::LinkId(i), busy))
                .collect();
            loads.sort_by_key(|&(_, busy)| std::cmp::Reverse(busy));
            loads
        }
    }

    #[test]
    fn one_pass_send_equals_the_segment_loop_reference() {
        use desim::check::forall;
        let kinds = [
            TopologyKind::Torus3d,
            TopologyKind::Mesh2d,
            TopologyKind::Omega { radix: 2 },
            TopologyKind::Omega { radix: 4 },
            TopologyKind::Crossbar,
            TopologyKind::Hypercube,
            TopologyKind::FatTree { radix: 2 },
            TopologyKind::FatTree { radix: 4 },
        ];
        forall("one-pass send equals the reference", 150, |g| {
            let p = g.usize(1, 64);
            let mut s = spec(match g.usize(0, 2) {
                0 => SendEngine::Cpu,
                1 => SendEngine::Coprocessor {
                    ns_per_byte: g.f64(0.0, 40.0),
                },
                _ => SendEngine::BlockTransfer {
                    threshold_bytes: g.u32(1, 8_192),
                    setup_us: g.f64(0.0, 5.0),
                    ns_per_byte: g.f64(0.0, 10.0),
                },
            });
            s.topology = *g.pick(&kinds);
            s.hop_ns = g.f64(0.0, 200.0);
            s.link_ns_per_byte = g.f64(0.25, 30.0);
            s.min_packet_bytes = g.u32(1, 256);
            s.costs = CostTable::uniform(ClassCosts {
                byte_send_ns: g.f64(0.0, 20.0),
                offload: g.bool(),
                ..ClassCosts::FREE
            });
            // Random traffic: local sends, empty and sub-packet payloads,
            // start instants out of order.
            let traffic: Vec<(OpClass, NodeId, NodeId, u32, SimTime)> = (0..g.usize(1, 48))
                .map(|_| {
                    let src = g.usize(0, p - 1);
                    let dst = if g.usize(0, 7) == 0 {
                        src
                    } else {
                        g.usize(0, p - 1)
                    };
                    let bytes = match g.usize(0, 3) {
                        0 => 0,
                        1 => g.u32(0, s.min_packet_bytes),
                        _ => g.u32(0, 70_000),
                    };
                    let start = SimTime::from_nanos(g.u64(0, 200_000));
                    (
                        *g.pick(&OpClass::ALL),
                        NodeId(src),
                        NodeId(dst),
                        bytes,
                        start,
                    )
                })
                .collect();
            for switches in 0..8u8 {
                let config = WireConfig {
                    link_contention: switches & 1 != 0,
                    nic_serialization: switches & 2 != 0,
                    wormhole: switches & 4 != 0,
                };
                let mut net = NetState::with_config(&s, p, config);
                let mut reference = ReferenceNet::new(&s, p, config);
                for &(class, src, dst, bytes, start) in &traffic {
                    // Whole-message acquires equal the local-copy commit
                    // only on routes that never revisit a link.
                    let route = net.network.route(src, dst);
                    let mut links = route.to_vec();
                    links.sort_unstable();
                    links.dedup();
                    assert_eq!(links.len(), route.len());
                    assert_eq!(
                        net.send(&s, class, src, dst, bytes, start),
                        reference.send(&s, class, src, dst, bytes, start),
                        "{:?} p={p} {config:?} {src}->{dst} {bytes} B at {start:?}",
                        s.topology
                    );
                }
                assert_eq!(net.link_loads(), reference.link_loads(), "{config:?}");
            }
        });
    }

    #[test]
    fn single_hop_timing() {
        let s = spec(SendEngine::Cpu);
        let mut net = NetState::new(&s, 2); // 2x1 mesh: one hop
        let t = net.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(1), 100, T0);
        // copy 100B * 2ns = 200ns; then wire: hop 100 + serialize 1000
        assert_eq!(t.cpu_release.as_nanos(), 200);
        assert_eq!(t.delivered.as_nanos(), 200 + 100 + 1000);
    }

    #[test]
    fn local_send_skips_wire() {
        let s = spec(SendEngine::Cpu);
        let mut net = NetState::new(&s, 4);
        let t = net.send(&s, OpClass::PointToPoint, NodeId(2), NodeId(2), 100, T0);
        assert_eq!(t.delivered.as_nanos(), 200, "copy only");
    }

    #[test]
    fn coprocessor_releases_cpu_immediately() {
        let s = spec(SendEngine::Coprocessor { ns_per_byte: 4.0 });
        let mut net = NetState::new(&s, 2);
        let t = net.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(1), 100, T0);
        assert_eq!(t.cpu_release, T0);
        // Stream rate is the slower of coproc (4) and link (10): 10 ns/B.
        assert_eq!(t.delivered.as_nanos(), 100 + 1000);
    }

    #[test]
    fn slow_coprocessor_limits_stream_rate() {
        let s = spec(SendEngine::Coprocessor { ns_per_byte: 50.0 });
        let mut net = NetState::new(&s, 2);
        let t = net.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(1), 100, T0);
        assert_eq!(t.delivered.as_nanos(), 100 + 5000);
    }

    #[test]
    fn blt_engages_above_threshold() {
        let s = spec(SendEngine::BlockTransfer {
            threshold_bytes: 64,
            setup_us: 1.0,
            ns_per_byte: 1.0,
        });
        let mut net = NetState::new(&s, 2);
        // Below threshold: CPU copy path.
        let small = net.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(1), 10, T0);
        assert_eq!(small.cpu_release.as_nanos(), 20);
        // Above: setup 1us, CPU released after setup, link-rate stream.
        let mut net = NetState::new(&s, 2);
        let big = net.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(1), 1000, T0);
        assert_eq!(big.cpu_release.as_nanos(), 1_000);
        assert_eq!(big.delivered.as_nanos(), 1_000 + 100 + 10_000);
    }

    #[test]
    fn nic_serializes_back_to_back_sends() {
        let s = spec(SendEngine::Coprocessor { ns_per_byte: 0.0 });
        let mut net = NetState::new(&s, 4); // 4x1 mesh row... (2x2 actually)
                                            // Two messages from node 0 to distinct neighbors, same instant.
        let a = net.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(1), 100, T0);
        let b = net.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(2), 100, T0);
        // Serialization time 1000ns each; b injects 1000ns later.
        assert_eq!(b.delivered.as_nanos() - a.delivered.as_nanos(), 1000);
    }

    #[test]
    fn link_contention_serializes_shared_path() {
        let s = spec(SendEngine::Coprocessor { ns_per_byte: 0.0 });
        // 4x1 row: 0->3 and 1->3 share links.
        let mut net = NetState::with_config(
            &s,
            4,
            WireConfig {
                nic_serialization: false,
                ..WireConfig::default()
            },
        );
        let a = net.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(3), 100, T0);
        let b = net.send(&s, OpClass::PointToPoint, NodeId(1), NodeId(3), 100, T0);
        // b's first link (1->2) is a's second link; b must queue behind a.
        assert!(b.delivered > a.delivered);
        let gap = b.delivered.as_nanos() as i64 - a.delivered.as_nanos() as i64;
        assert!(gap >= 900, "expected near-full serialization, got {gap}");
    }

    #[test]
    fn contention_off_is_faster() {
        let s = spec(SendEngine::Cpu);
        let run = |cfg: WireConfig| {
            let mut net = NetState::with_config(&s, 8, cfg);
            let mut last = SimTime::ZERO;
            for i in 1..8 {
                let t = net.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(i), 4096, T0);
                last = last.max(t.delivered);
            }
            last
        };
        let with = run(WireConfig::default());
        let without = run(WireConfig {
            link_contention: false,
            nic_serialization: false,
            ..WireConfig::default()
        });
        assert!(without < with, "ablating contention must speed things up");
    }

    #[test]
    fn store_and_forward_exact_per_hop_reserialization() {
        // 2x2 mesh: 0 -> 3 takes exactly two hops. With wormhole off, the
        // full payload re-serializes on every hop; with it on, the
        // serialization is paid once behind the pipelined header.
        let s = spec(SendEngine::Cpu);
        let mut wh = NetState::new(&s, 4);
        let a = wh.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(3), 100, T0);
        // copy 200; header: hop + hop; stream once: 1000.
        assert_eq!(a.delivered.as_nanos(), 200 + 100 + 100 + 1000);
        let mut sf = NetState::with_config(
            &s,
            4,
            WireConfig {
                wormhole: false,
                ..WireConfig::default()
            },
        );
        let b = sf.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(3), 100, T0);
        // copy 200; per hop: hop latency + full 1000 ns re-serialization.
        assert_eq!(b.delivered.as_nanos(), 200 + (100 + 1000) * 2);
    }

    #[test]
    fn store_and_forward_single_hop_matches_wormhole() {
        // One hop has nothing to pipeline across: both models pay one
        // hop latency plus one serialization.
        let s = spec(SendEngine::Cpu);
        let mut wh = NetState::new(&s, 2);
        let mut sf = NetState::with_config(
            &s,
            2,
            WireConfig {
                wormhole: false,
                ..WireConfig::default()
            },
        );
        let a = wh.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(1), 100, T0);
        let b = sf.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(1), 100, T0);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(b.delivered.as_nanos(), 200 + 100 + 1000);
    }

    #[test]
    fn typed_event_helpers_carry_timing() {
        let s = spec(SendEngine::Cpu);
        let mut net = NetState::new(&s, 2);
        let t = net.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(1), 100, T0);
        let (at, ev) = t.delivery_event(0, 1);
        assert_eq!(at, t.delivered);
        assert_eq!(ev, TypedEvent::MessageReady { src: 0, dst: 1 });
        let (at, ev) = t.release_event(0);
        assert_eq!(at, t.cpu_release);
        assert_eq!(ev, TypedEvent::RankResume { rank: 0 });
    }

    #[test]
    fn store_and_forward_slower_than_wormhole() {
        let s = spec(SendEngine::Cpu);
        let mut wh = NetState::new(&s, 16);
        let mut sf = NetState::with_config(
            &s,
            16,
            WireConfig {
                wormhole: false,
                ..WireConfig::default()
            },
        );
        let a = wh.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(15), 4096, T0);
        let b = sf.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(15), 4096, T0);
        assert!(b.delivered > a.delivered);
    }

    #[test]
    fn min_packet_floors_wire_time() {
        let mut s = spec(SendEngine::Cpu);
        s.min_packet_bytes = 32;
        let mut net = NetState::new(&s, 2);
        let t = net.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(1), 1, T0);
        // serialize = 32B * 10ns = 320ns even for a 1-byte payload
        assert_eq!(t.delivered.as_nanos(), 2 + 100 + 320);
    }

    #[test]
    fn counters_track_traffic() {
        let s = spec(SendEngine::Cpu);
        let mut net = NetState::new(&s, 4);
        net.send(&s, OpClass::Bcast, NodeId(0), NodeId(1), 10, T0);
        net.send(&s, OpClass::Bcast, NodeId(0), NodeId(2), 20, T0);
        assert_eq!(net.messages_sent(), 2);
        assert_eq!(net.bytes_sent(), 30);
        assert!(!net.link_loads().is_empty());
    }

    #[test]
    fn link_loads_sorted_and_consistent() {
        let s = spec(SendEngine::Cpu);
        let mut net = NetState::new(&s, 4);
        net.send(&s, OpClass::Bcast, NodeId(0), NodeId(1), 100, T0);
        net.send(&s, OpClass::Bcast, NodeId(0), NodeId(1), 100, T0);
        net.send(&s, OpClass::Bcast, NodeId(2), NodeId(3), 10, T0);
        let loads = net.link_loads();
        assert!(!loads.is_empty());
        assert!(loads.windows(2).all(|w| w[0].1 >= w[1].1), "sorted");
        // Every busy link is listed once, with its FIFO busy time.
        let total: SimDuration = loads.iter().map(|&(_, b)| b).sum();
        let busy: SimDuration = (0..net.links.len())
            .map(|i| net.links.get(i).expect("in range").busy_time())
            .sum();
        assert_eq!(total, busy);
        // 0->1 twice at 100 B and 2->3 once at 10 B, one hop each.
        assert_eq!(total, SimDuration::from_nanos(2 * 1_000 + 100));
    }

    #[test]
    fn idle_network_has_no_hotspots() {
        let s = spec(SendEngine::Cpu);
        let net = NetState::new(&s, 4);
        assert!(net.link_loads().is_empty());
    }

    #[test]
    fn spec_overhead_helpers() {
        let s = spec(SendEngine::Cpu);
        assert_eq!(s.recv_overhead(OpClass::Bcast, 100).as_nanos(), 300);
        assert_eq!(s.compute_cost(100).as_nanos(), 500);
        assert_eq!(s.send_overhead(OpClass::Bcast), SimDuration::ZERO);
        assert_eq!(s.entry_overhead(OpClass::Bcast), SimDuration::ZERO);
    }

    #[test]
    fn instrumentation_counts_links_classes_and_queueing() {
        let s = spec(SendEngine::Coprocessor { ns_per_byte: 0.0 });
        let mut net = NetState::with_config(
            &s,
            4,
            WireConfig {
                nic_serialization: false,
                ..WireConfig::default()
            },
        );
        net.enable_instrumentation();
        // Two messages sharing the 1->3 link: the second must queue.
        net.send(&s, OpClass::Bcast, NodeId(0), NodeId(3), 100, T0);
        net.send(&s, OpClass::Alltoall, NodeId(1), NodeId(3), 50, T0);
        net.send(&s, OpClass::Bcast, NodeId(2), NodeId(2), 10, T0); // local: no wire
        let instr = net.take_instrumentation().expect("enabled");
        assert_eq!(instr.class_msgs[OpClass::Bcast.index()], 2);
        assert_eq!(instr.class_bytes[OpClass::Bcast.index()], 110);
        assert_eq!(instr.class_msgs[OpClass::Alltoall.index()], 1);
        // Total per-link bytes = sum over messages of payload * hops;
        // the local send contributes nothing.
        let total: u64 = instr.link_bytes.iter().sum();
        let hops01_3 = 2; // 2x2 mesh: 0->3 and 1->3 both take 2 and 1 hops
        let hops1_3 = 1;
        assert_eq!(total, 100 * hops01_3 + 50 * hops1_3);
        assert!(instr.link_queue_ns > 0, "second message queued");

        assert_eq!(net.messages_sent(), 3);
        let mut reg = obs::MetricsRegistry::new();
        instr.export_metrics(&mut reg);
        assert_eq!(
            reg.get("net.class.bcast.messages").unwrap().as_f64(),
            Some(2.0)
        );
        assert!(reg.get("net.queue.link_wait_ns").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn blame_waits_zero_when_uncontended() {
        let s = spec(SendEngine::Cpu);
        let mut net = NetState::new(&s, 4);
        let t = net.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(1), 100, T0);
        assert_eq!(t.inject_wait, SimDuration::ZERO);
        assert_eq!(t.link_wait, SimDuration::ZERO);
        assert!(t.uncontended());
        // Local sends never touch the wire.
        let l = net.send(&s, OpClass::PointToPoint, NodeId(2), NodeId(2), 100, T0);
        assert!(l.uncontended());
    }

    #[test]
    fn blame_records_link_contention_wait() {
        let s = spec(SendEngine::Coprocessor { ns_per_byte: 0.0 });
        let mut net = NetState::with_config(
            &s,
            4,
            WireConfig {
                nic_serialization: false,
                ..WireConfig::default()
            },
        );
        // 0->3 then 1->3: the second message queues behind the first on
        // the shared 1->3 link.
        let a = net.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(3), 100, T0);
        let b = net.send(&s, OpClass::PointToPoint, NodeId(1), NodeId(3), 100, T0);
        assert!(a.uncontended());
        assert!(b.link_wait > SimDuration::ZERO);
        assert_eq!(b.inject_wait, SimDuration::ZERO);
        assert!(!b.uncontended());
    }

    #[test]
    fn blame_records_inject_wait() {
        let s = spec(SendEngine::Coprocessor { ns_per_byte: 0.0 });
        let mut net = NetState::new(&s, 4);
        // Back-to-back sends from one node to distinct neighbors: the
        // second queues behind the NIC, not behind any link.
        let a = net.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(1), 100, T0);
        let b = net.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(2), 100, T0);
        assert!(a.uncontended());
        assert!(b.inject_wait > SimDuration::ZERO);
        assert!(!b.uncontended());
        // The waits match the instrumentation accumulators exactly when
        // both are enabled.
        let mut inst = NetState::new(&s, 4);
        inst.enable_instrumentation();
        let a2 = inst.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(1), 100, T0);
        let b2 = inst.send(&s, OpClass::PointToPoint, NodeId(0), NodeId(2), 100, T0);
        let instr = inst.take_instrumentation().expect("enabled");
        assert_eq!(
            instr.inject_queue_ns,
            a2.inject_wait.as_nanos() + b2.inject_wait.as_nanos()
        );
        assert_eq!(
            instr.link_queue_ns,
            a2.link_wait.as_nanos() + b2.link_wait.as_nanos()
        );
    }

    #[test]
    fn instrumentation_disabled_by_default() {
        let s = spec(SendEngine::Cpu);
        let mut net = NetState::new(&s, 2);
        net.send(&s, OpClass::Bcast, NodeId(0), NodeId(1), 100, T0);
        assert!(net.take_instrumentation().is_none());
    }

    #[test]
    fn flat_routes_match_the_topology_and_are_shared() {
        for spec in [crate::sp2(), crate::t3d(), crate::paragon()] {
            for p in [2, 64, 128].into_iter().filter(|&p| p <= spec.max_nodes) {
                let net = NetState::new(&spec, p);
                for s in 0..p {
                    for d in 0..p {
                        let (s, d) = (NodeId(s), NodeId(d));
                        let want: Vec<u32> = net
                            .topology()
                            .route(s, d)
                            .links()
                            .iter()
                            .map(|l| l.0 as u32)
                            .collect();
                        assert_eq!(
                            net.network.route(s, d),
                            want,
                            "{} p={p} {s}->{d}",
                            spec.name
                        );
                    }
                }
                let other = NetState::with_config(
                    &spec,
                    p,
                    WireConfig {
                        wormhole: false,
                        ..WireConfig::default()
                    },
                );
                assert!(
                    Arc::ptr_eq(&net.network, &other.network),
                    "{} p={p}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn hypercube_below_a_power_of_two_routes_every_pair() {
        // A 48-node partition sits in a 64-node cube: the route table
        // must cover the cube's nodes, not the partition's 48 x 48 pairs.
        let mut s = spec(SendEngine::Cpu);
        s.topology = TopologyKind::Hypercube;
        let mut net = NetState::new(&s, 48);
        let t = net.send(&s, OpClass::PointToPoint, NodeId(47), NodeId(46), 64, T0);
        assert!(t.delivered > t.cpu_release);
    }

    #[test]
    fn send_out_of_range_panics() {
        let mut cube = spec(SendEngine::Cpu);
        cube.topology = TopologyKind::Hypercube;
        // (spec, partition size, src, dst): node 50 of a 48-node
        // partition exists in the 64-node cube but not in the partition.
        let cases = [
            (spec(SendEngine::Cpu), 2, 0, 5),
            (cube.clone(), 48, 50, 0),
            (cube, 48, 0, 50),
        ];
        for (s, p, src, dst) in cases {
            let mut net = NetState::new(&s, p);
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                net.send(&s, OpClass::PointToPoint, NodeId(src), NodeId(dst), 1, T0)
            }))
            .expect_err("an out-of-range node must panic");
            let msg = panic.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "node out of range", "p={p} {src}->{dst}");
        }
    }
}
