//! A CIR interpreter with path profiling.
//!
//! Clara's §3.5 prediction step "simulate\[s\] the execution for the set of
//! packets, and identif\[ies\] how a packet traverses the parameterized
//! LNIC". This interpreter provides the traversal half: given a packet
//! description and a state oracle it executes the lowered `handle`
//! function and records a [`PathProfile`] — how many times each basic
//! block ran and how many times each vcall executed. The predictor
//! multiplies those counts by mapped per-block costs.
//!
//! Class profiling runs every representative packet through here, and the
//! per-byte loops of scanning NFs make this the predictor's hottest loop,
//! so it neither allocates nor hashes per instruction: vcall operands are
//! read in place from the operand list and the register file, vcall counts
//! are derived once on return from the block counts (a block runs all its
//! instructions before its terminator), fuel is charged a block at a time,
//! and `execute` is generic over the oracle so [`HashState`] calls
//! dispatch statically.
//!
//! The same interpreter doubles as a differential-testing tool for the
//! lowering pass (execute source-visible semantics, compare outcomes).

use crate::ir::*;
use std::collections::HashMap;

/// Packet description visible to the interpreter (mirrors the fields NFC
/// exposes via `pkt.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketInfo {
    /// IPv4 source address (host order).
    pub src_ip: u32,
    /// IPv4 destination address (host order).
    pub dst_ip: u32,
    /// Transport source port.
    pub src_port: u16,
    /// Transport destination port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP).
    pub proto: u8,
    /// Time-to-live.
    pub ttl: u8,
    /// TCP flag byte (0 for UDP); bit 0x02 is SYN.
    pub tcp_flags: u8,
    /// Transport payload length.
    pub payload_len: u16,
    /// Payload pattern seed: byte `i` is `seed.wrapping_add(i)`.
    pub payload_seed: u8,
}

impl PacketInfo {
    /// A TCP packet with sensible defaults.
    pub fn tcp(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16, payload_len: u16) -> Self {
        PacketInfo {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: 6,
            ttl: 64,
            tcp_flags: 0x10, // ACK
            payload_len,
            payload_seed: 0,
        }
    }

    /// A UDP packet with sensible defaults.
    pub fn udp(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16, payload_len: u16) -> Self {
        PacketInfo { proto: 17, tcp_flags: 0, ..Self::tcp(src_ip, dst_ip, src_port, dst_port, payload_len) }
    }

    /// Mark as a TCP SYN.
    pub fn with_syn(mut self) -> Self {
        self.tcp_flags = 0x02;
        self
    }

    fn field(&self, f: PacketField) -> u64 {
        match f {
            PacketField::SrcIp => self.src_ip as u64,
            PacketField::DstIp => self.dst_ip as u64,
            PacketField::SrcPort => self.src_port as u64,
            PacketField::DstPort => self.dst_port as u64,
            PacketField::Proto => self.proto as u64,
            PacketField::Ttl => self.ttl as u64,
            PacketField::TcpFlags => self.tcp_flags as u64,
            PacketField::PayloadLen => self.payload_len as u64,
            PacketField::TotalLen => self.payload_len as u64 + 40,
            PacketField::IsTcp => (self.proto == 6) as u64,
            PacketField::IsUdp => (self.proto == 17) as u64,
            PacketField::IsSyn => (self.proto == 6 && self.tcp_flags & 0x02 != 0) as u64,
        }
    }

    fn set_field(&mut self, f: PacketField, v: u64) {
        match f {
            PacketField::SrcIp => self.src_ip = v as u32,
            PacketField::DstIp => self.dst_ip = v as u32,
            PacketField::SrcPort => self.src_port = v as u16,
            PacketField::DstPort => self.dst_port = v as u16,
            PacketField::Proto => self.proto = v as u8,
            PacketField::Ttl => self.ttl = v as u8,
            PacketField::TcpFlags => self.tcp_flags = v as u8,
            PacketField::PayloadLen => self.payload_len = v as u16,
            // Derived fields are not writable; ignore.
            PacketField::TotalLen
            | PacketField::IsTcp
            | PacketField::IsUdp
            | PacketField::IsSyn => {}
        }
    }
}

/// Backing store for NF state during interpretation.
///
/// Implementations decide hit/miss behaviour; [`HashState`] is a faithful
/// in-memory model.
pub trait StateOracle {
    /// Exact-match lookup; 0 means miss (NFC convention).
    fn table_lookup(&mut self, state: StateId, key: u64) -> u64;
    /// Insert or update.
    fn table_write(&mut self, state: StateId, key: u64, value: u64);
    /// Longest-prefix match over IPv4; 0 means no route.
    fn lpm_lookup(&mut self, state: StateId, ip: u64) -> u64;
    /// Counter bucket increment.
    fn counter_add(&mut self, state: StateId, idx: u64, delta: u64);
    /// Counter bucket read.
    fn counter_read(&mut self, state: StateId, idx: u64) -> u64;
    /// Dense array read.
    fn array_read(&mut self, state: StateId, idx: u64) -> u64;
    /// Dense array write.
    fn array_write(&mut self, state: StateId, idx: u64, value: u64);
    /// Token-bucket metering decision (true = conformant).
    fn meter(&mut self, flow: u64, rate: u64) -> bool {
        let _ = (flow, rate);
        true
    }
}

/// A straightforward hash-map-backed state store.
#[derive(Debug, Default, Clone)]
pub struct HashState {
    maps: HashMap<(StateId, u64), u64>,
    counters: HashMap<(StateId, u64), u64>,
    arrays: HashMap<(StateId, u64), u64>,
    lpm_rules: HashMap<StateId, Vec<(u32, u8, u64)>>, // (prefix, len, next hop)
}

impl HashState {
    /// Empty state.
    pub fn new() -> Self {
        HashState::default()
    }

    /// Install an LPM rule: `prefix/len → next_hop`.
    pub fn add_lpm_rule(&mut self, state: StateId, prefix: u32, len: u8, next_hop: u64) {
        self.lpm_rules.entry(state).or_default().push((prefix, len, next_hop));
    }

    /// Number of exact-match entries across all tables.
    pub fn table_entries(&self) -> usize {
        self.maps.len()
    }
}

impl StateOracle for HashState {
    fn table_lookup(&mut self, state: StateId, key: u64) -> u64 {
        self.maps.get(&(state, key)).copied().unwrap_or(0)
    }

    fn table_write(&mut self, state: StateId, key: u64, value: u64) {
        self.maps.insert((state, key), value);
    }

    fn lpm_lookup(&mut self, state: StateId, ip: u64) -> u64 {
        let ip = ip as u32;
        self.lpm_rules
            .get(&state)
            .and_then(|rules| {
                rules
                    .iter()
                    .filter(|(prefix, len, _)| {
                        let mask = if *len == 0 { 0 } else { u32::MAX << (32 - *len as u32) };
                        ip & mask == *prefix & mask
                    })
                    .max_by_key(|(_, len, _)| *len)
                    .map(|(_, _, nh)| *nh)
            })
            .unwrap_or(0)
    }

    fn counter_add(&mut self, state: StateId, idx: u64, delta: u64) {
        *self.counters.entry((state, idx)).or_insert(0) += delta;
    }

    fn counter_read(&mut self, state: StateId, idx: u64) -> u64 {
        self.counters.get(&(state, idx)).copied().unwrap_or(0)
    }

    fn array_read(&mut self, state: StateId, idx: u64) -> u64 {
        self.arrays.get(&(state, idx)).copied().unwrap_or(0)
    }

    fn array_write(&mut self, state: StateId, idx: u64, value: u64) {
        self.arrays.insert((state, idx), value);
    }
}

/// Execution record of one packet through the NF.
#[derive(Debug, Clone, PartialEq)]
pub struct PathProfile {
    /// Times each basic block executed.
    pub block_counts: Vec<u64>,
    /// Times each vcall executed.
    pub vcall_counts: HashMap<VCall, u64>,
    /// Final verdict: true = forward.
    pub forward: bool,
    /// Total instructions executed.
    pub instrs: u64,
    /// Final packet state (header rewrites applied).
    pub packet_out: PacketInfo,
}

/// Errors from interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The instruction budget was exhausted (runaway loop).
    FuelExhausted,
}

impl core::fmt::Display for InterpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InterpError::FuelExhausted => write!(f, "instruction budget exhausted"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Execute `handle` for one packet.
///
/// `fuel` bounds the instructions executed. It is charged a block at a
/// time; a block the remaining fuel does not cover runs exactly the
/// instructions the fuel pays for, so their side effects on `oracle`
/// stay, and then the call fails with [`InterpError::FuelExhausted`].
pub fn execute<O: StateOracle + ?Sized>(
    f: &CirFunction,
    packet: &PacketInfo,
    oracle: &mut O,
    fuel: u64,
) -> Result<PathProfile, InterpError> {
    let mut regs = vec![0u64; f.num_regs as usize];
    let mut pkt = *packet;
    let mut block_counts = vec![0u64; f.blocks.len()];
    let mut instrs = 0u64;
    let mut bb = BlockId(0);

    loop {
        block_counts[bb.0 as usize] += 1;
        let block = f.block(bb);
        // `instrs <= fuel` holds here: only whole, paid-for blocks add to it.
        let paid = (fuel - instrs).min(block.instrs.len() as u64) as usize;
        for instr in &block.instrs[..paid] {
            match instr {
                Instr::Const { dst, value } => regs[dst.0 as usize] = *value,
                Instr::Copy { dst, src } => regs[dst.0 as usize] = read(&regs, *src),
                Instr::Binary { dst, op, lhs, rhs } => {
                    regs[dst.0 as usize] = op.eval(read(&regs, *lhs), read(&regs, *rhs));
                }
                Instr::VCall { dst, call, args } => {
                    let result = eval_vcall(*call, args, &regs, &mut pkt, oracle);
                    if let Some(d) = dst {
                        regs[d.0 as usize] = result;
                    }
                }
            }
        }
        if paid < block.instrs.len() {
            return Err(InterpError::FuelExhausted);
        }
        instrs += paid as u64;
        match &block.term {
            Terminator::Jump(t) => bb = *t,
            Terminator::Branch { cond, then_bb, else_bb } => {
                bb = if read(&regs, *cond) != 0 { *then_bb } else { *else_bb };
            }
            Terminator::Return(v) => {
                // A block runs all its instructions before its terminator,
                // so each vcall ran exactly as often as its block.
                let mut vcall_counts = HashMap::new();
                for (b, call) in f.vcalls() {
                    let n = block_counts[b.0 as usize];
                    if n > 0 {
                        *vcall_counts.entry(*call).or_insert(0) += n;
                    }
                }
                return Ok(PathProfile {
                    block_counts,
                    vcall_counts,
                    forward: read(&regs, *v) != 0,
                    instrs,
                    packet_out: pkt,
                });
            }
        }
    }
}

fn read(regs: &[u64], op: Operand) -> u64 {
    match op {
        Operand::Reg(r) => regs[r.0 as usize],
        Operand::Imm(v) => v,
    }
}

/// Evaluate one vcall, reading its operands in place.
fn eval_vcall<O: StateOracle + ?Sized>(
    call: VCall,
    args: &[Operand],
    regs: &[u64],
    pkt: &mut PacketInfo,
    oracle: &mut O,
) -> u64 {
    let arg = |i: usize, default: u64| args.get(i).map_or(default, |&op| read(regs, op));
    match call {
        VCall::ParseHeader => 0,
        // A deterministic stand-in value; NFs only compare/forward it.
        VCall::ChecksumFull => {
            (mix(pkt.payload_len as u64 ^ (pkt.payload_seed as u64) << 16) & 0xffff).max(1)
        }
        VCall::ChecksumIncr => 0,
        VCall::Crypto => 0,
        // Deterministic "did any signature match" result.
        VCall::PayloadScan => {
            let sigset = arg(0, 0);
            mix(pkt.payload_seed as u64 ^ sigset).is_multiple_of(97) as u64
        }
        VCall::Hash => args
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |acc, &op| mix(acc ^ read(regs, op))),
        VCall::TableLookup(s) => oracle.table_lookup(s, arg(0, 0)),
        VCall::TableWrite(s) => {
            oracle.table_write(s, arg(0, 0), arg(1, 0));
            0
        }
        VCall::LpmLookup(s) => oracle.lpm_lookup(s, arg(0, 0)),
        VCall::CounterAdd(s) => {
            oracle.counter_add(s, arg(0, 0), arg(1, 1));
            0
        }
        VCall::CounterRead(s) => oracle.counter_read(s, arg(0, 0)),
        VCall::ArrayRead(s) => oracle.array_read(s, arg(0, 0)),
        VCall::ArrayWrite(s) => {
            oracle.array_write(s, arg(0, 0), arg(1, 0));
            0
        }
        VCall::MetadataRead(f) => pkt.field(f),
        VCall::MetadataWrite(f) => {
            pkt.set_field(f, arg(0, 0));
            0
        }
        VCall::PayloadByte => {
            let i = arg(0, 0);
            if i < pkt.payload_len as u64 {
                pkt.payload_seed.wrapping_add(i as u8) as u64
            } else {
                0
            }
        }
        VCall::Meter => oracle.meter(arg(0, 0), arg(1, 0)) as u64,
        VCall::FloatOp => {
            let a = arg(0, 0);
            let b = arg(1, 0);
            ((a as f64 * 0.875) + (b as f64 * 0.125)) as u64
        }
        VCall::Log => 0,
    }
}

fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use clara_lang::frontend;

    fn run(src: &str, pkt: PacketInfo) -> PathProfile {
        let m = lower(&frontend(src).unwrap()).unwrap();
        let mut state = HashState::new();
        execute(&m.handle, &pkt, &mut state, 1_000_000).unwrap()
    }

    #[test]
    fn verdicts_follow_control_flow() {
        let src = "nf t { fn handle(pkt: packet) -> action {
            if (pkt.is_tcp) { return forward; }
            return drop; } }";
        assert!(run(src, PacketInfo::tcp(1, 2, 3, 4, 100)).forward);
        assert!(!run(src, PacketInfo::udp(1, 2, 3, 4, 100)).forward);
    }

    #[test]
    fn loop_iterations_tracked_in_block_counts() {
        let src = "nf t { fn handle(pkt: packet) -> action {
            let i: u64 = 0;
            let acc: u64 = 0;
            while (i < pkt.payload_len) {
                acc = acc + pkt.payload_byte(i);
                i = i + 1;
            }
            return forward; } }";
        let p = run(src, PacketInfo::tcp(1, 2, 3, 4, 37));
        // The loop body block must have executed exactly payload_len times.
        assert!(p.block_counts.contains(&37), "{:?}", p.block_counts);
        assert_eq!(p.vcall_counts[&VCall::PayloadByte], 37);
    }

    #[test]
    fn state_persists_across_packets() {
        let src = "nf t { state seen: map<u64, u64>[64];
            fn handle(pkt: packet) -> action {
                let k: u64 = hash(pkt.src_ip);
                let v: u64 = seen.lookup(k);
                if (v == 0) { seen.insert(k, 1); return drop; }
                return forward; } }";
        let m = lower(&frontend(src).unwrap()).unwrap();
        let mut state = HashState::new();
        let pkt = PacketInfo::tcp(9, 9, 9, 9, 10);
        let first = execute(&m.handle, &pkt, &mut state, 10_000).unwrap();
        // Callers holding a trait object still compile and share the state.
        let oracle: &mut dyn StateOracle = &mut state;
        let second = execute(&m.handle, &pkt, oracle, 10_000).unwrap();
        assert!(!first.forward);
        assert!(second.forward);
        assert_eq!(state.table_entries(), 1);
    }

    #[test]
    fn header_rewrites_visible_in_packet_out() {
        let src = "nf t { fn handle(pkt: packet) -> action {
            pkt.set_src_ip(12345);
            pkt.decrement_ttl();
            return forward; } }";
        let p = run(src, PacketInfo::tcp(1, 2, 3, 4, 0));
        assert_eq!(p.packet_out.src_ip, 12345);
        assert_eq!(p.packet_out.ttl, 63);
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        let src = "nf t { state routes: lpm[16];
            fn handle(pkt: packet) -> action {
                let nh: u64 = routes.lookup(pkt.dst_ip);
                if (nh == 0) { return drop; }
                return forward; } }";
        let m = lower(&frontend(src).unwrap()).unwrap();
        let sid = m.state_named("routes").unwrap();
        let mut state = HashState::new();
        state.add_lpm_rule(sid, 0x0a000000, 8, 1); // 10.0.0.0/8 -> 1
        state.add_lpm_rule(sid, 0x0a010000, 16, 2); // 10.1.0.0/16 -> 2
        let hit = execute(
            &m.handle,
            &PacketInfo { dst_ip: 0x0a01ff01, ..PacketInfo::tcp(1, 0, 3, 4, 0) },
            &mut state,
            10_000,
        )
        .unwrap();
        assert!(hit.forward);
        // Direct oracle check of longest-prefix semantics.
        assert_eq!(state.lpm_lookup(sid, 0x0a01ff01), 2);
        assert_eq!(state.lpm_lookup(sid, 0x0aff0001), 1);
        assert_eq!(state.lpm_lookup(sid, 0x0b000001), 0);
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let src = "nf t { fn handle(pkt: packet) -> action {
            let i: u64 = 0;
            while (i < 1000000) { i = i + 1; }
            return forward; } }";
        let m = lower(&frontend(src).unwrap()).unwrap();
        let mut state = HashState::new();
        let err = execute(&m.handle, &PacketInfo::tcp(1, 2, 3, 4, 0), &mut state, 100)
            .unwrap_err();
        assert_eq!(err, InterpError::FuelExhausted);
    }

    #[test]
    fn fuel_exhaustion_mid_block_keeps_earlier_side_effects() {
        let src = "nf t { state m: map<u64, u64>[64];
            fn handle(pkt: packet) -> action {
                m.insert(1, 1);
                m.insert(2, 2);
                return forward; } }";
        let m = lower(&frontend(src).unwrap()).unwrap();
        assert_eq!(m.handle.blocks.len(), 1, "both inserts share one block");
        let writes: Vec<usize> = m.handle.blocks[0]
            .instrs
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Instr::VCall { call: VCall::TableWrite(_), .. }))
            .map(|(at, _)| at)
            .collect();
        assert_eq!(writes.len(), 2);
        let pkt = PacketInfo::tcp(1, 2, 3, 4, 0);
        // Fuel that runs the first insert but not the second.
        let mut state = HashState::new();
        let err = execute(&m.handle, &pkt, &mut state, writes[1] as u64).unwrap_err();
        assert_eq!(err, InterpError::FuelExhausted);
        assert_eq!(state.table_entries(), 1);
        // Fuel equal to the full instruction count runs to completion.
        let mut state = HashState::new();
        let full = m.handle.num_instrs() as u64;
        let p = execute(&m.handle, &pkt, &mut state, full).unwrap();
        assert_eq!(p.instrs, full);
        assert_eq!(state.table_entries(), 2);
    }

    #[test]
    fn hash_mixes_every_argument_in_order() {
        let src = "nf t { state out: array<u64>[1];
            fn handle(pkt: packet) -> action {
                out.set(0, hash(pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port));
                return forward; } }";
        let m = lower(&frontend(src).unwrap()).unwrap();
        let sid = m.state_named("out").unwrap();
        let mut state = HashState::new();
        execute(&m.handle, &PacketInfo::tcp(11, 22, 33, 44, 0), &mut state, 10_000).unwrap();
        let want = [11u64, 22, 33, 44].iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, &a| mix(acc ^ a));
        assert_eq!(state.array_read(sid, 0), want);
    }

    #[test]
    fn dpi_loop_vcall_counts() {
        // The corpus DPI scan: parse, then one automaton step per byte.
        let src = "nf dpi { state automaton: array<u64>[65536];
            fn handle(pkt: packet) -> action {
                click.network_header(pkt);
                let st: u64 = 0;
                let i: u64 = 0;
                while (i < pkt.payload_len) {
                    let b: u8 = pkt.payload_byte(i);
                    st = automaton.get((st ^ b) % 65536);
                    i = i + 1;
                }
                if (st == 0xdead) { return drop; }
                return forward; } }";
        let n = 53u64;
        let p = run(src, PacketInfo::tcp(1, 2, 3, 4, n as u16));
        let count = |call: VCall| p.vcall_counts.get(&call).copied().unwrap_or(0);
        assert_eq!(count(VCall::PayloadByte), n);
        assert_eq!(count(VCall::ArrayRead(StateId(0))), n);
        assert_eq!(count(VCall::MetadataRead(PacketField::PayloadLen)), n + 1);
        assert_eq!(count(VCall::ParseHeader), 1);
    }

    #[test]
    fn hash_is_deterministic_and_arg_sensitive() {
        let src = "nf t { fn handle(pkt: packet) -> action {
            let a: u64 = hash(pkt.src_ip, pkt.src_port);
            let b: u64 = hash(pkt.src_ip, pkt.src_port);
            let c: u64 = hash(pkt.dst_ip, pkt.src_port);
            if (a == b && a != c) { return forward; }
            return drop; } }";
        assert!(run(src, PacketInfo::tcp(7, 8, 9, 10, 0)).forward);
    }

    #[test]
    fn counters_accumulate() {
        let src = "nf t { state c: counter[8];
            fn handle(pkt: packet) -> action {
                c.add(pkt.src_ip % 8, 1);
                if (c.read(pkt.src_ip % 8) >= 3) { return drop; }
                return forward; } }";
        let m = lower(&frontend(src).unwrap()).unwrap();
        let mut state = HashState::new();
        let pkt = PacketInfo::tcp(16, 2, 3, 4, 0); // bucket 0
        let verdicts: Vec<bool> = (0..4)
            .map(|_| execute(&m.handle, &pkt, &mut state, 10_000).unwrap().forward)
            .collect();
        assert_eq!(verdicts, vec![true, true, false, false]);
    }
}
