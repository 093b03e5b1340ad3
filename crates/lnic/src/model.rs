//! LNIC graph types: nodes (compute units, memory regions, switching
//! hubs), edges, and the validated [`Lnic`] container.

use crate::cost::CostModel;
use core::fmt;

/// Index of a compute unit within an [`Lnic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitId(pub usize);

/// Index of a memory region within an [`Lnic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemId(pub usize);

/// Index of a switching hub within an [`Lnic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HubId(pub usize);

/// Kinds of domain-specific accelerators found on SmartNICs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccelKind {
    /// Checksum offload engine (e.g. at ingress, where packet data is
    /// immediately available).
    Checksum,
    /// Crypto engine (AES, etc.).
    Crypto,
    /// Hardware-accelerated exact-match table — Netronome's "flow cache"
    /// SRAM table.
    FlowCache,
    /// Longest-prefix-match engine.
    Lpm,
}

impl AccelKind {
    /// Every kind, in discriminant order.
    pub const ALL: [AccelKind; 4] =
        [AccelKind::Checksum, AccelKind::Crypto, AccelKind::FlowCache, AccelKind::Lpm];
}

impl fmt::Display for AccelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelKind::Checksum => write!(f, "checksum"),
            AccelKind::Crypto => write!(f, "crypto"),
            AccelKind::FlowCache => write!(f, "flow-cache"),
            AccelKind::Lpm => write!(f, "lpm"),
        }
    }
}

/// The type of a compute unit (§3.1: "compute units are typed").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeClass {
    /// Header processing / match-action engine.
    HeaderEngine,
    /// General-purpose core (NPU microengine, ARM core, ...).
    GeneralCore,
    /// A domain-specific accelerator.
    Accelerator(AccelKind),
}

/// A compute unit node.
#[derive(Debug, Clone)]
pub struct ComputeUnit {
    /// Human-readable name, unique within the NIC (e.g. `"npu0"`).
    pub name: String,
    /// Unit type.
    pub class: ComputeClass,
    /// Hardware threads (Netronome NPUs have 8; a packet is bound to one).
    pub threads: usize,
    /// Island this unit belongs to, if the architecture is clustered.
    pub island: Option<usize>,
    /// Per-operation cycle costs on this unit.
    pub cost: CostModel,
    /// Whether the unit has a floating-point unit. Without one, float
    /// operations are software-emulated (§3.4) at `cost.float_emulation`
    /// cycles each.
    pub has_fpu: bool,
    /// Position in the pipeline for pipelined architectures; units must be
    /// mapped in non-decreasing stage order (§3.4: `Π[k] ≤ Π[t]`).
    pub stage: usize,
}

/// Memory region levels, ordered roughly by distance from the cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemKind {
    /// Per-core local memory / register file.
    Local,
    /// Cluster/island-shared SRAM (Netronome CTM).
    ClusterSram,
    /// On-chip internal memory (Netronome IMEM).
    Internal,
    /// Off-chip DRAM (Netronome EMEM).
    External,
    /// Host memory across PCIe (for partial offloading).
    HostDram,
}

impl fmt::Display for MemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemKind::Local => write!(f, "local"),
            MemKind::ClusterSram => write!(f, "cluster-sram"),
            MemKind::Internal => write!(f, "internal"),
            MemKind::External => write!(f, "external"),
            MemKind::HostDram => write!(f, "host-dram"),
        }
    }
}

/// Optional cache fronting a memory region (e.g. the EMEM's 3 MB cache).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheParams {
    /// Cache capacity in bytes.
    pub capacity: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Associativity (ways).
    pub ways: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

/// A memory region node.
#[derive(Debug, Clone)]
pub struct MemoryRegion {
    /// Human-readable name, unique within the NIC (e.g. `"emem"`).
    pub name: String,
    /// Hierarchy level.
    pub kind: MemKind,
    /// Capacity in bytes.
    pub capacity: usize,
    /// Baseline access latency in cycles (before NUMA edge weights).
    pub latency: u64,
    /// Marginal cycles per byte for *bulk* transfers out of this region
    /// (DMA-style streaming of packet payloads). The paper's example:
    /// checksumming a 1000-byte packet on an NPU costs ≈1700 extra cycles
    /// for memory accesses — i.e. ≈1.7 cycles/byte out of the CTM.
    pub bulk_per_byte: f64,
    /// Cache fronting this region, if any.
    pub cache: Option<CacheParams>,
    /// Island this region belongs to (e.g. each CTM belongs to one island).
    pub island: Option<usize>,
}

/// Queueing discipline at a switching hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// First-in first-out.
    Fifo,
    /// Weighted round-robin between input ports.
    WeightedRoundRobin,
}

/// A switching hub node: embedded NIC switch or traffic manager.
#[derive(Debug, Clone)]
pub struct SwitchingHub {
    /// Human-readable name.
    pub name: String,
    /// Per-packet traversal latency in cycles.
    pub latency: u64,
    /// Queue capacity in packets.
    pub queue_capacity: usize,
    /// Queueing discipline.
    pub discipline: QueueDiscipline,
}

/// Edge kinds, mirroring §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// `c↔m`: a compute unit accesses a memory region; the weight captures
    /// NUMA effects and is *added* to the region's base latency.
    MemAccess { unit: UnitId, mem: MemId, extra_latency: u64 },
    /// `m↔M`: hierarchy link; data evicts from `from` to `to` and is
    /// fetched in the opposite direction.
    Hierarchy { from: MemId, to: MemId },
    /// `c1→c2`: staged/pipelined execution order for packets.
    Pipeline { from: UnitId, to: UnitId },
    /// A link into or out of a switching hub.
    HubLink { hub: HubId, unit: UnitId },
}

/// An LNIC edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// What the edge connects and how.
    pub kind: EdgeKind,
}

/// Errors from LNIC validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LnicError {
    /// An edge references a node index that does not exist.
    DanglingEdge(String),
    /// Two nodes share a name.
    DuplicateName(String),
    /// A compute unit has no path to any memory region.
    IsolatedUnit(String),
    /// The NIC has no general-purpose compute at all.
    NoCompute,
}

impl fmt::Display for LnicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LnicError::DanglingEdge(e) => write!(f, "edge references missing node: {e}"),
            LnicError::DuplicateName(n) => write!(f, "duplicate node name: {n}"),
            LnicError::IsolatedUnit(n) => write!(f, "compute unit {n} reaches no memory"),
            LnicError::NoCompute => write!(f, "NIC has no general-purpose compute units"),
        }
    }
}

impl std::error::Error for LnicError {}

/// The logical SmartNIC: nodes, edges, and global parameters.
#[derive(Debug, Clone, Default)]
pub struct Lnic {
    /// Model name (e.g. `"netronome-agilio-cx40"`).
    pub name: String,
    /// Core clock in GHz (cycles ↔ wall-clock conversions).
    pub freq_ghz: f64,
    /// Whether the datapath is run-to-completion (`false`) or staged
    /// pipelining across units is required (`true`).
    pub pipelined: bool,
    /// Energy per active cycle, in nanojoules (for the §6 energy model).
    pub nj_per_cycle: f64,
    units: Vec<ComputeUnit>,
    mems: Vec<MemoryRegion>,
    hubs: Vec<SwitchingHub>,
    edges: Vec<Edge>,
}

impl Lnic {
    /// An empty model with the given name and clock.
    pub fn new(name: impl Into<String>, freq_ghz: f64) -> Self {
        Lnic {
            name: name.into(),
            freq_ghz,
            pipelined: false,
            nj_per_cycle: 0.5,
            ..Lnic::default()
        }
    }

    /// Add a compute unit, returning its id.
    pub fn add_unit(&mut self, unit: ComputeUnit) -> UnitId {
        self.units.push(unit);
        UnitId(self.units.len() - 1)
    }

    /// Add a memory region, returning its id.
    pub fn add_memory(&mut self, mem: MemoryRegion) -> MemId {
        self.mems.push(mem);
        MemId(self.mems.len() - 1)
    }

    /// Add a switching hub, returning its id.
    pub fn add_hub(&mut self, hub: SwitchingHub) -> HubId {
        self.hubs.push(hub);
        HubId(self.hubs.len() - 1)
    }

    /// Add an edge.
    pub fn add_edge(&mut self, kind: EdgeKind) {
        self.edges.push(Edge { kind });
    }

    /// Connect `unit` to `mem` with a NUMA weight.
    pub fn connect_mem(&mut self, unit: UnitId, mem: MemId, extra_latency: u64) {
        self.add_edge(EdgeKind::MemAccess { unit, mem, extra_latency });
    }

    /// All compute units.
    pub fn units(&self) -> &[ComputeUnit] {
        &self.units
    }

    /// All memory regions.
    pub fn memories(&self) -> &[MemoryRegion] {
        &self.mems
    }

    /// All switching hubs.
    pub fn hubs(&self) -> &[SwitchingHub] {
        &self.hubs
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Look up a compute unit by id.
    pub fn unit(&self, id: UnitId) -> &ComputeUnit {
        &self.units[id.0]
    }

    /// Look up a memory region by id.
    pub fn memory(&self, id: MemId) -> &MemoryRegion {
        &self.mems[id.0]
    }

    /// Look up a hub by id.
    pub fn hub(&self, id: HubId) -> &SwitchingHub {
        &self.hubs[id.0]
    }

    /// Find a compute unit by name.
    pub fn unit_named(&self, name: &str) -> Option<UnitId> {
        self.units.iter().position(|u| u.name == name).map(UnitId)
    }

    /// Find a memory region by name.
    pub fn memory_named(&self, name: &str) -> Option<MemId> {
        self.mems.iter().position(|m| m.name == name).map(MemId)
    }

    /// Ids of all units of a given class.
    pub fn units_of_class(&self, class: ComputeClass) -> Vec<UnitId> {
        self.units
            .iter()
            .enumerate()
            .filter(|(_, u)| u.class == class)
            .map(|(i, _)| UnitId(i))
            .collect()
    }

    /// Ids of all accelerator units of a given kind.
    pub fn accelerators(&self, kind: AccelKind) -> Vec<UnitId> {
        self.units_of_class(ComputeClass::Accelerator(kind))
    }

    /// Memory regions accessible from `unit`, with their total access
    /// latency (region base + NUMA edge weight), cheapest first.
    pub fn reachable_memories(&self, unit: UnitId) -> Vec<(MemId, u64)> {
        let mut out: Vec<(MemId, u64)> = self
            .edges
            .iter()
            .filter_map(|e| match e.kind {
                EdgeKind::MemAccess { unit: u, mem, extra_latency } if u == unit => {
                    Some((mem, self.mems[mem.0].latency + extra_latency))
                }
                _ => None,
            })
            .collect();
        out.sort_by_key(|&(_, lat)| lat);
        out
    }

    /// Total access latency from `unit` to `mem`, if connected.
    pub fn try_access_latency(&self, unit: UnitId, mem: MemId) -> Option<u64> {
        self.edges.iter().find_map(|e| match e.kind {
            EdgeKind::MemAccess { unit: u, mem: m, extra_latency } if u == unit && m == mem => {
                Some(self.mems[m.0].latency + extra_latency)
            }
            _ => None,
        })
    }

    /// Total access latency from `unit` to `mem`.
    ///
    /// # Panics
    /// Panics if the unit is not connected to the region; use
    /// [`Lnic::try_access_latency`] to probe.
    pub fn access_latency(&self, unit: UnitId, mem: MemId) -> u64 {
        self.try_access_latency(unit, mem).unwrap_or_else(|| {
            panic!(
                "unit {} has no edge to memory {}",
                self.units[unit.0].name, self.mems[mem.0].name
            )
        })
    }

    /// Total degree of parallelism: threads summed over general cores.
    pub fn total_threads(&self) -> usize {
        self.units
            .iter()
            .filter(|u| u.class == ComputeClass::GeneralCore)
            .map(|u| u.threads)
            .sum()
    }

    /// Convert cycles to nanoseconds at this NIC's clock.
    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles / self.freq_ghz
    }

    /// Validate graph integrity (names unique, edges well-formed, every
    /// unit reaches memory, compute exists).
    pub fn validate(&self) -> Result<(), LnicError> {
        let mut names = std::collections::HashSet::new();
        for n in self
            .units
            .iter()
            .map(|u| &u.name)
            .chain(self.mems.iter().map(|m| &m.name))
            .chain(self.hubs.iter().map(|h| &h.name))
        {
            if !names.insert(n.clone()) {
                return Err(LnicError::DuplicateName(n.clone()));
            }
        }
        for e in &self.edges {
            let ok = match e.kind {
                EdgeKind::MemAccess { unit, mem, .. } => {
                    unit.0 < self.units.len() && mem.0 < self.mems.len()
                }
                EdgeKind::Hierarchy { from, to } => {
                    from.0 < self.mems.len() && to.0 < self.mems.len()
                }
                EdgeKind::Pipeline { from, to } => {
                    from.0 < self.units.len() && to.0 < self.units.len()
                }
                EdgeKind::HubLink { hub, unit } => {
                    hub.0 < self.hubs.len() && unit.0 < self.units.len()
                }
            };
            if !ok {
                return Err(LnicError::DanglingEdge(format!("{:?}", e.kind)));
            }
        }
        if self.units_of_class(ComputeClass::GeneralCore).is_empty() {
            return Err(LnicError::NoCompute);
        }
        for (i, u) in self.units.iter().enumerate() {
            if matches!(u.class, ComputeClass::Accelerator(_)) {
                continue; // accelerators receive data via the fabric
            }
            if self.reachable_memories(UnitId(i)).is_empty() {
                return Err(LnicError::IsolatedUnit(u.name.clone()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    fn tiny() -> Lnic {
        let mut nic = Lnic::new("tiny", 1.0);
        let core = nic.add_unit(ComputeUnit {
            name: "core0".into(),
            class: ComputeClass::GeneralCore,
            threads: 4,
            island: Some(0),
            cost: CostModel::default(),
            has_fpu: false,
            stage: 0,
        });
        let sram = nic.add_memory(MemoryRegion {
            name: "sram".into(),
            kind: MemKind::ClusterSram,
            capacity: 256 << 10,
            latency: 50,
            bulk_per_byte: 1.0,
            cache: None,
            island: Some(0),
        });
        let dram = nic.add_memory(MemoryRegion {
            name: "dram".into(),
            kind: MemKind::External,
            capacity: 8 << 30,
            latency: 500,
            bulk_per_byte: 4.0,
            cache: Some(CacheParams { capacity: 3 << 20, line: 64, ways: 8, hit_latency: 120 }),
            island: None,
        });
        nic.connect_mem(core, sram, 0);
        nic.connect_mem(core, dram, 20);
        nic.add_edge(EdgeKind::Hierarchy { from: sram, to: dram });
        nic
    }

    #[test]
    fn tiny_nic_validates() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn access_latency_adds_numa_weight() {
        let nic = tiny();
        let core = nic.unit_named("core0").unwrap();
        let sram = nic.memory_named("sram").unwrap();
        let dram = nic.memory_named("dram").unwrap();
        assert_eq!(nic.access_latency(core, sram), 50);
        assert_eq!(nic.access_latency(core, dram), 520);
    }

    #[test]
    fn reachable_memories_sorted_cheapest_first() {
        let nic = tiny();
        let core = nic.unit_named("core0").unwrap();
        let reach = nic.reachable_memories(core);
        assert_eq!(reach.len(), 2);
        assert!(reach[0].1 <= reach[1].1);
        assert_eq!(nic.memory(reach[0].0).name, "sram");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut nic = tiny();
        nic.add_memory(MemoryRegion {
            name: "sram".into(),
            kind: MemKind::Internal,
            capacity: 1,
            latency: 1,
            bulk_per_byte: 1.0,
            cache: None,
            island: None,
        });
        assert_eq!(nic.validate().unwrap_err(), LnicError::DuplicateName("sram".into()));
    }

    #[test]
    fn dangling_edge_rejected() {
        let mut nic = tiny();
        nic.add_edge(EdgeKind::Pipeline { from: UnitId(0), to: UnitId(99) });
        assert!(matches!(nic.validate().unwrap_err(), LnicError::DanglingEdge(_)));
    }

    #[test]
    fn isolated_unit_rejected() {
        let mut nic = tiny();
        nic.add_unit(ComputeUnit {
            name: "lonely".into(),
            class: ComputeClass::GeneralCore,
            threads: 1,
            island: None,
            cost: CostModel::default(),
            has_fpu: false,
            stage: 0,
        });
        assert_eq!(nic.validate().unwrap_err(), LnicError::IsolatedUnit("lonely".into()));
    }

    #[test]
    fn nic_without_cores_rejected() {
        let mut nic = Lnic::new("empty", 1.0);
        nic.add_unit(ComputeUnit {
            name: "ck".into(),
            class: ComputeClass::Accelerator(AccelKind::Checksum),
            threads: 1,
            island: None,
            cost: CostModel::default(),
            has_fpu: false,
            stage: 0,
        });
        assert_eq!(nic.validate().unwrap_err(), LnicError::NoCompute);
    }

    #[test]
    fn total_threads_counts_general_cores_only() {
        let mut nic = tiny();
        nic.add_unit(ComputeUnit {
            name: "accel".into(),
            class: ComputeClass::Accelerator(AccelKind::Crypto),
            threads: 16,
            island: None,
            cost: CostModel::default(),
            has_fpu: false,
            stage: 0,
        });
        assert_eq!(nic.total_threads(), 4);
    }

    #[test]
    fn cycle_conversion() {
        let nic = Lnic::new("x", 0.8);
        assert!((nic.cycles_to_ns(800.0) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn lookup_by_name() {
        let nic = tiny();
        assert!(nic.unit_named("core0").is_some());
        assert!(nic.unit_named("nope").is_none());
        assert!(nic.memory_named("dram").is_some());
    }
}
