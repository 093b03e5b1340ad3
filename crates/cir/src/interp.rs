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
//! per-byte loops of scanning NFs make this the predictor's hottest loop.
//! A function is therefore decoded once into a [`DecodedFunction`]: one
//! decoded step per IR instruction, operands resolved to register indices
//! or immediates, the shapes the scan loops run specialized, operations on
//! two immediates folded to constants and branches on immediates resolved
//! to jumps. [`DecodedFunction::run`] neither allocates nor hashes: it
//! writes block counts into caller-owned [`RunBuffers`], charges fuel a
//! block at a time, and returns the verdict. [`execute`] decodes, runs,
//! and derives per-vcall counts from the block counts (a block runs all
//! its instructions before its terminator). Both are generic over the
//! oracle, so [`HashState`] calls dispatch statically.
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

/// A straightforward hash-map-backed state store. Two stores compare
/// equal when their contents and their [`HashState::writes`] counts do.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct HashState {
    maps: HashMap<(StateId, u64), u64>,
    counters: HashMap<(StateId, u64), u64>,
    arrays: HashMap<(StateId, u64), u64>,
    lpm_rules: HashMap<StateId, Vec<(u32, u8, u64)>>, // (prefix, len, next hop)
    writes: u64,
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

    /// Table, counter and array writes made through [`StateOracle`] so
    /// far. Every other oracle call only reads, so a run that leaves this
    /// unchanged leaves the state as it found it.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

impl StateOracle for HashState {
    fn table_lookup(&mut self, state: StateId, key: u64) -> u64 {
        self.maps.get(&(state, key)).copied().unwrap_or(0)
    }

    fn table_write(&mut self, state: StateId, key: u64, value: u64) {
        self.writes += 1;
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
        self.writes += 1;
        // Counters wrap like every other CIR integer; a plain add would
        // panic in debug builds on a source-chosen delta.
        let c = self.counters.entry((state, idx)).or_insert(0);
        *c = c.wrapping_add(delta);
    }

    fn counter_read(&mut self, state: StateId, idx: u64) -> u64 {
        self.counters.get(&(state, idx)).copied().unwrap_or(0)
    }

    fn array_read(&mut self, state: StateId, idx: u64) -> u64 {
        self.arrays.get(&(state, idx)).copied().unwrap_or(0)
    }

    fn array_write(&mut self, state: StateId, idx: u64, value: u64) {
        self.writes += 1;
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
///
/// This decodes `f` on every call; a caller running many packets through
/// one function decodes it once with [`DecodedFunction::new`].
pub fn execute<O: StateOracle + ?Sized>(
    f: &CirFunction,
    packet: &PacketInfo,
    oracle: &mut O,
    fuel: u64,
) -> Result<PathProfile, InterpError> {
    let mut buffers = RunBuffers::default();
    let out = DecodedFunction::new(f).run(packet, oracle, fuel, &mut buffers)?;
    let block_counts = buffers.block_counts;
    // A block runs all its instructions before its terminator, so each
    // vcall ran exactly as often as its block.
    let mut vcall_counts = HashMap::new();
    for (b, call) in f.vcalls() {
        let n = block_counts[b.0 as usize];
        if n > 0 {
            *vcall_counts.entry(*call).or_insert(0) += n;
        }
    }
    Ok(PathProfile {
        block_counts,
        vcall_counts,
        forward: out.forward,
        instrs: out.instrs,
        packet_out: out.packet_out,
    })
}

/// A [`CirFunction`] decoded once for repeated execution.
///
/// Each IR instruction becomes exactly one decoded step, so fuel charges
/// the same counts as on the IR. Register operands become register
/// indices; the shapes the per-byte scan loops run (register–immediate
/// add, and and eq; register–register xor and lt; metadata read; payload
/// byte and array read at a register index) get their own steps; an
/// operation on two immediates becomes a constant; and a branch on an
/// immediate becomes a jump.
#[derive(Debug, Clone)]
pub struct DecodedFunction {
    steps: Vec<Step>,
    /// Operands of the vcalls without a specialized step.
    args: Vec<Operand>,
    blocks: Vec<DecodedBlock>,
    num_regs: usize,
}

/// The caller-owned buffers a [`DecodedFunction::run`] writes. Reusing
/// one across runs keeps repeated runs free of allocation.
#[derive(Debug, Clone, Default)]
pub struct RunBuffers {
    regs: Vec<u64>,
    /// Times each basic block executed in the last run.
    pub block_counts: Vec<u64>,
}

/// What a completed [`DecodedFunction::run`] returns besides its block
/// counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Final verdict: true = forward.
    pub forward: bool,
    /// Total instructions executed.
    pub instrs: u64,
    /// Final packet state (header rewrites applied).
    pub packet_out: PacketInfo,
}

#[derive(Debug, Clone)]
struct DecodedBlock {
    /// The block's steps are `steps[start..end]`.
    start: u32,
    end: u32,
    exit: Exit,
}

#[derive(Debug, Clone, Copy)]
enum Exit {
    Jump(u32),
    Branch { cond: u32, then_bb: u32, else_bb: u32 },
    Return(Operand),
}

/// One decoded instruction. Register fields are register indices.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A constant, a copied immediate or an operation on two immediates.
    Const { dst: u32, value: u64 },
    Copy { dst: u32, src: u32 },
    AddRI { dst: u32, lhs: u32, imm: u64 },
    AndRI { dst: u32, lhs: u32, imm: u64 },
    EqRI { dst: u32, lhs: u32, imm: u64 },
    XorRR { dst: u32, lhs: u32, rhs: u32 },
    LtRR { dst: u32, lhs: u32, rhs: u32 },
    BinaryRR { dst: u32, op: Op, lhs: u32, rhs: u32 },
    BinaryRI { dst: u32, op: Op, lhs: u32, imm: u64 },
    BinaryIR { dst: u32, op: Op, imm: u64, rhs: u32 },
    MetadataRead { dst: u32, field: PacketField },
    PayloadByte { dst: u32, index: u32 },
    ArrayRead { dst: u32, state: StateId, index: u32 },
    /// Any other vcall, with its operands at `args[start..end]`.
    VCall { dst: Option<u32>, call: VCall, start: u32, end: u32 },
}

impl DecodedFunction {
    /// Decode `f`.
    pub fn new(f: &CirFunction) -> Self {
        let mut steps = Vec::with_capacity(f.num_instrs());
        let mut args = Vec::new();
        let blocks = f
            .blocks
            .iter()
            .map(|b| {
                let start = steps.len() as u32;
                steps.extend(b.instrs.iter().map(|i| decode(i, &mut args)));
                DecodedBlock { start, end: steps.len() as u32, exit: decode_exit(&b.term) }
            })
            .collect();
        DecodedFunction { steps, args, blocks, num_regs: f.num_regs as usize }
    }

    /// Number of basic blocks, the length of
    /// [`RunBuffers::block_counts`] after a run.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Run one packet, leaving per-block execution counts in
    /// `buffers.block_counts`. Fuel works as in [`execute`]; on
    /// [`InterpError::FuelExhausted`] the counts are partial.
    pub fn run<O: StateOracle + ?Sized>(
        &self,
        packet: &PacketInfo,
        oracle: &mut O,
        fuel: u64,
        buffers: &mut RunBuffers,
    ) -> Result<RunOutcome, InterpError> {
        let RunBuffers { regs, block_counts } = buffers;
        regs.clear();
        regs.resize(self.num_regs, 0);
        block_counts.clear();
        block_counts.resize(self.blocks.len(), 0);
        let mut pkt = *packet;
        let mut instrs = 0u64;
        let mut bb = 0usize;
        loop {
            block_counts[bb] += 1;
            let block = &self.blocks[bb];
            let steps = &self.steps[block.start as usize..block.end as usize];
            // `instrs <= fuel` holds here: only whole, paid-for blocks add to it.
            let paid = (fuel - instrs).min(steps.len() as u64) as usize;
            for &step in &steps[..paid] {
                self.step(step, regs, &mut pkt, oracle);
            }
            if paid < steps.len() {
                return Err(InterpError::FuelExhausted);
            }
            instrs += paid as u64;
            bb = match block.exit {
                Exit::Jump(t) => t as usize,
                Exit::Branch { cond, then_bb, else_bb } => {
                    (if regs[cond as usize] != 0 { then_bb } else { else_bb }) as usize
                }
                Exit::Return(v) => {
                    return Ok(RunOutcome { forward: read(regs, v) != 0, instrs, packet_out: pkt });
                }
            };
        }
    }

    #[inline(always)]
    fn step<O: StateOracle + ?Sized>(
        &self,
        step: Step,
        regs: &mut [u64],
        pkt: &mut PacketInfo,
        oracle: &mut O,
    ) {
        let r = |i: u32| i as usize;
        match step {
            Step::Const { dst, value } => regs[r(dst)] = value,
            Step::Copy { dst, src } => regs[r(dst)] = regs[r(src)],
            Step::AddRI { dst, lhs, imm } => regs[r(dst)] = regs[r(lhs)].wrapping_add(imm),
            Step::AndRI { dst, lhs, imm } => regs[r(dst)] = regs[r(lhs)] & imm,
            Step::EqRI { dst, lhs, imm } => regs[r(dst)] = (regs[r(lhs)] == imm) as u64,
            Step::XorRR { dst, lhs, rhs } => regs[r(dst)] = regs[r(lhs)] ^ regs[r(rhs)],
            Step::LtRR { dst, lhs, rhs } => regs[r(dst)] = (regs[r(lhs)] < regs[r(rhs)]) as u64,
            Step::BinaryRR { dst, op, lhs, rhs } => {
                regs[r(dst)] = op.eval(regs[r(lhs)], regs[r(rhs)]);
            }
            Step::BinaryRI { dst, op, lhs, imm } => regs[r(dst)] = op.eval(regs[r(lhs)], imm),
            Step::BinaryIR { dst, op, imm, rhs } => regs[r(dst)] = op.eval(imm, regs[r(rhs)]),
            Step::MetadataRead { dst, field } => regs[r(dst)] = pkt.field(field),
            Step::PayloadByte { dst, index } => regs[r(dst)] = payload_byte(pkt, regs[r(index)]),
            Step::ArrayRead { dst, state, index } => {
                regs[r(dst)] = oracle.array_read(state, regs[r(index)]);
            }
            Step::VCall { dst, call, start, end } => {
                let args = &self.args[start as usize..end as usize];
                let result = eval_vcall(call, args, regs, pkt, oracle);
                if let Some(d) = dst {
                    regs[r(d)] = result;
                }
            }
        }
    }
}

fn decode(instr: &Instr, args: &mut Vec<Operand>) -> Step {
    use Operand::{Imm, Reg as R};
    match instr {
        &Instr::Const { dst, value } => Step::Const { dst: dst.0, value },
        &Instr::Copy { dst, src: R(src) } => Step::Copy { dst: dst.0, src: src.0 },
        &Instr::Copy { dst, src: Imm(value) } => Step::Const { dst: dst.0, value },
        &Instr::Binary { dst, op, lhs, rhs } => {
            let dst = dst.0;
            match (op, lhs, rhs) {
                (_, Imm(a), Imm(b)) => Step::Const { dst, value: op.eval(a, b) },
                (Op::Add, R(a), Imm(imm)) => Step::AddRI { dst, lhs: a.0, imm },
                (Op::And, R(a), Imm(imm)) => Step::AndRI { dst, lhs: a.0, imm },
                (Op::Eq, R(a), Imm(imm)) => Step::EqRI { dst, lhs: a.0, imm },
                (Op::Xor, R(a), R(b)) => Step::XorRR { dst, lhs: a.0, rhs: b.0 },
                (Op::Lt, R(a), R(b)) => Step::LtRR { dst, lhs: a.0, rhs: b.0 },
                (_, R(a), R(b)) => Step::BinaryRR { dst, op, lhs: a.0, rhs: b.0 },
                (_, R(a), Imm(imm)) => Step::BinaryRI { dst, op, lhs: a.0, imm },
                (_, Imm(imm), R(b)) => Step::BinaryIR { dst, op, imm, rhs: b.0 },
            }
        }
        Instr::VCall { dst, call, args: ops } => match (*dst, *call, ops.first()) {
            (Some(d), VCall::MetadataRead(field), _) => Step::MetadataRead { dst: d.0, field },
            (Some(d), VCall::PayloadByte, Some(&R(i))) => {
                Step::PayloadByte { dst: d.0, index: i.0 }
            }
            (Some(d), VCall::ArrayRead(state), Some(&R(i))) => {
                Step::ArrayRead { dst: d.0, state, index: i.0 }
            }
            (dst, call, _) => {
                let start = args.len() as u32;
                args.extend_from_slice(ops);
                Step::VCall { dst: dst.map(|d| d.0), call, start, end: args.len() as u32 }
            }
        },
    }
}

fn decode_exit(term: &Terminator) -> Exit {
    match *term {
        Terminator::Jump(t) => Exit::Jump(t.0),
        Terminator::Branch { cond: Operand::Reg(c), then_bb, else_bb } => {
            Exit::Branch { cond: c.0, then_bb: then_bb.0, else_bb: else_bb.0 }
        }
        Terminator::Branch { cond: Operand::Imm(v), then_bb, else_bb } => {
            Exit::Jump(if v != 0 { then_bb.0 } else { else_bb.0 })
        }
        Terminator::Return(v) => Exit::Return(v),
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
        VCall::PayloadByte => payload_byte(pkt, arg(0, 0)),
        VCall::Meter => oracle.meter(arg(0, 0), arg(1, 0)) as u64,
        VCall::FloatOp => {
            let a = arg(0, 0);
            let b = arg(1, 0);
            ((a as f64 * 0.875) + (b as f64 * 0.125)) as u64
        }
        VCall::Log => 0,
    }
}

/// Payload byte `i`, or 0 past the end of the payload.
fn payload_byte(pkt: &PacketInfo, i: u64) -> u64 {
    if i < pkt.payload_len as u64 {
        pkt.payload_seed.wrapping_add(i as u8) as u64
    } else {
        0
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
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The IR walk that preceded decoding, kept as the oracle the decoded
    /// interpreter is tested against.
    fn execute_ir<O: StateOracle + ?Sized>(
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

    // Random functions for the differential test. Generated instructions
    // write registers 0..6 only; register 6 counts the iterations of
    // every counted loop and register 7 holds their condition, so each
    // loop ends. Forward jumps and branches cannot loop.
    const FREE_REGS: u32 = 6;
    const LOOP_REG: Reg = Reg(6);
    const COND_REG: Reg = Reg(7);
    const NUM_REGS: u32 = 8;
    /// Return blocks write every register into this array, so a wrong
    /// register value shows in the final state even when nothing reads it.
    const DUMP: StateId = StateId(3);

    const OPS: [Op; 16] = [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::Rem,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Shl,
        Op::Shr,
        Op::Eq,
        Op::Ne,
        Op::Lt,
        Op::Le,
        Op::Gt,
        Op::Ge,
    ];

    const FIELDS: [PacketField; 12] = [
        PacketField::SrcIp,
        PacketField::DstIp,
        PacketField::SrcPort,
        PacketField::DstPort,
        PacketField::Proto,
        PacketField::Ttl,
        PacketField::TcpFlags,
        PacketField::PayloadLen,
        PacketField::TotalLen,
        PacketField::IsTcp,
        PacketField::IsUdp,
        PacketField::IsSyn,
    ];

    /// Small values (table keys that collide, shift amounts, payload
    /// indexes) more often than arbitrary ones.
    fn arb_imm() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..4, 0u64..80, any::<u64>()]
    }

    fn arb_reg() -> impl Strategy<Value = Reg> {
        (0..NUM_REGS).prop_map(Reg)
    }

    fn arb_dst() -> impl Strategy<Value = Reg> {
        (0..FREE_REGS).prop_map(Reg)
    }

    fn arb_operand() -> impl Strategy<Value = Operand> {
        prop_oneof![arb_reg().prop_map(Operand::Reg), arb_imm().prop_map(Operand::Imm)]
    }

    fn arb_vcall() -> impl Strategy<Value = VCall> {
        (0usize..19, 0u32..4, 0usize..FIELDS.len()).prop_map(|(kind, s, f)| {
            let s = StateId(s);
            match kind {
                0 => VCall::ParseHeader,
                1 => VCall::ChecksumFull,
                2 => VCall::ChecksumIncr,
                3 => VCall::Crypto,
                4 => VCall::PayloadScan,
                5 => VCall::Hash,
                6 => VCall::TableLookup(s),
                7 => VCall::TableWrite(s),
                8 => VCall::LpmLookup(s),
                9 => VCall::CounterAdd(s),
                10 => VCall::CounterRead(s),
                11 => VCall::ArrayRead(s),
                12 => VCall::ArrayWrite(s),
                13 => VCall::MetadataRead(FIELDS[f]),
                14 => VCall::MetadataWrite(FIELDS[f]),
                15 => VCall::PayloadByte,
                16 => VCall::Meter,
                17 => VCall::FloatOp,
                _ => VCall::Log,
            }
        })
    }

    fn arb_instr() -> impl Strategy<Value = Instr> {
        prop_oneof![
            (arb_dst(), arb_imm()).prop_map(|(dst, value)| Instr::Const { dst, value }),
            (arb_dst(), arb_operand()).prop_map(|(dst, src)| Instr::Copy { dst, src }),
            // Every operation with every operand shape.
            (arb_dst(), 0..OPS.len(), arb_operand(), arb_operand())
                .prop_map(|(dst, op, lhs, rhs)| Instr::Binary { dst, op: OPS[op], lhs, rhs }),
            // The specialized shapes of the scan loops, drawn often.
            (arb_dst(), 0usize..5, arb_reg(), arb_reg(), arb_imm()).prop_map(
                |(dst, shape, lhs, rhs, imm)| {
                    let (op, rhs) = [
                        (Op::Add, Operand::Imm(imm)),
                        (Op::And, Operand::Imm(imm)),
                        (Op::Eq, Operand::Imm(imm)),
                        (Op::Xor, Operand::Reg(rhs)),
                        (Op::Lt, Operand::Reg(rhs)),
                    ][shape];
                    Instr::Binary { dst, op, lhs: Operand::Reg(lhs), rhs }
                }
            ),
            (arb_dst(), 0usize..3, arb_reg(), 0u32..4, 0..FIELDS.len()).prop_map(
                |(dst, shape, index, s, f)| {
                    let call = [
                        VCall::PayloadByte,
                        VCall::ArrayRead(StateId(s)),
                        VCall::MetadataRead(FIELDS[f]),
                    ][shape];
                    Instr::VCall { dst: Some(dst), call, args: vec![Operand::Reg(index)] }
                }
            ),
            // Any vcall, with or without a result, over 0..=4 operands.
            (any::<bool>(), arb_dst(), arb_vcall(), vec(arb_operand(), 0..=4)).prop_map(
                |(keep, dst, call, args)| Instr::VCall { dst: keep.then_some(dst), call, args }
            ),
        ]
    }

    /// A block's raw parts: instructions, how it ends (0 return, 1 jump,
    /// 2 branch on a register, 3 branch on an immediate, 4 counted loop),
    /// a condition register, an immediate, two target picks and a loop
    /// bound.
    type RawBlock = (Vec<Instr>, u8, Reg, u64, u32, u32, u64);

    fn arb_function() -> impl Strategy<Value = CirFunction> {
        let block = (
            vec(arb_instr(), 0..=6),
            0u8..5,
            arb_reg(),
            arb_imm(),
            any::<u32>(),
            any::<u32>(),
            1u64..6,
        );
        (vec(block, 1..=6), arb_operand(), arb_operand()).prop_map(build_function)
    }

    fn build_function(
        (raw, write_key, write_value): (Vec<RawBlock>, Operand, Operand),
    ) -> CirFunction {
        let n = raw.len() as u32;
        let mut blocks: Vec<BasicBlock> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (mut instrs, kind, cond, imm, t, e, bound))| {
                let i = i as u32;
                let forward = |pick: u32| BlockId(i + 1 + pick % (n - i - 1));
                let term = match kind {
                    _ if i + 1 == n => None,
                    1 => Some(Terminator::Jump(forward(t))),
                    2 => Some(Terminator::Branch {
                        cond: Operand::Reg(cond),
                        then_bb: forward(t),
                        else_bb: forward(e),
                    }),
                    3 => Some(Terminator::Branch {
                        cond: Operand::Imm(imm),
                        then_bb: forward(t),
                        else_bb: forward(e),
                    }),
                    4 => {
                        instrs.push(Instr::Binary {
                            dst: LOOP_REG,
                            op: Op::Add,
                            lhs: Operand::Reg(LOOP_REG),
                            rhs: Operand::Imm(1),
                        });
                        instrs.push(Instr::Binary {
                            dst: COND_REG,
                            op: Op::Lt,
                            lhs: Operand::Reg(LOOP_REG),
                            rhs: Operand::Imm(bound),
                        });
                        Some(Terminator::Branch {
                            cond: Operand::Reg(COND_REG),
                            then_bb: BlockId(t % (i + 1)),
                            else_bb: forward(e),
                        })
                    }
                    _ => None,
                };
                let term = term.unwrap_or_else(|| {
                    for r in 0..NUM_REGS {
                        instrs.push(Instr::VCall {
                            dst: None,
                            call: VCall::ArrayWrite(DUMP),
                            args: vec![Operand::Imm(r as u64), Operand::Reg(Reg(r))],
                        });
                    }
                    let verdict = if e % 2 == 0 { Operand::Reg(cond) } else { Operand::Imm(imm) };
                    Terminator::Return(verdict)
                });
                BasicBlock { instrs, term }
            })
            .collect();
        // The entry block opens with a state write and one more
        // instruction, so a fuel of 1 runs out mid-block after the write.
        blocks[0].instrs.splice(
            0..0,
            [
                Instr::VCall {
                    dst: None,
                    call: VCall::TableWrite(StateId(0)),
                    args: vec![write_key, write_value],
                },
                Instr::Const { dst: Reg(0), value: 7 },
            ],
        );
        CirFunction { blocks, num_regs: NUM_REGS }
    }

    fn arb_packet() -> impl Strategy<Value = PacketInfo> {
        let proto = prop_oneof![Just(6u8), Just(17u8), any::<u8>()];
        (
            (any::<u32>(), 0u32..4, any::<u16>(), 0u16..3),
            (proto, any::<u8>(), any::<u8>(), 0u16..80, any::<u8>()),
        )
            .prop_map(
                |((src_ip, dst_ip, src_port, dst_port), (proto, ttl, flags, len, seed))| {
                    PacketInfo {
                        src_ip,
                        dst_ip,
                        src_port,
                        dst_port,
                        proto,
                        ttl,
                        tcp_flags: flags,
                        payload_len: len,
                        payload_seed: seed,
                    }
                },
            )
    }

    /// State every generated function starts from: routes, table entries
    /// and array cells at the small keys generated operands favour.
    fn seeded_state() -> HashState {
        let mut state = HashState::new();
        for s in 0..4 {
            let sid = StateId(s);
            state.add_lpm_rule(sid, 0, 0, 1);
            state.add_lpm_rule(sid, 2, 31, 5 + s as u64);
            state.table_write(sid, 1, 10 + s as u64);
            state.array_write(sid, 2, 20 + s as u64);
            state.counter_add(sid, 3, 1);
        }
        state
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// `execute` and the lean `DecodedFunction::run` agree with the
        /// IR walk on every profile, error and final state, for packets
        /// run in sequence through one decoded function and one set of
        /// buffers, under fuels that run out mid-block, run out later, and
        /// suffice.
        #[test]
        fn decoded_interpreter_matches_the_ir_walk(
            f in arb_function(),
            packets in vec(arb_packet(), 1..=3),
            fuel in 0u64..120,
        ) {
            let decoded = DecodedFunction::new(&f);
            let mut buffers = RunBuffers::default();
            let mut walked = seeded_state();
            let mut executed = seeded_state();
            let mut ran = seeded_state();
            for pkt in &packets {
                for fuel in [1, fuel, 1_000_000] {
                    let want = execute_ir(&f, pkt, &mut walked, fuel);
                    let got = execute(&f, pkt, &mut executed, fuel);
                    prop_assert_eq!(&got, &want, "execute, fuel {fuel}: {got:?}\n{want:?}\n{f:?}");
                    prop_assert_eq!(&executed, &walked, "execute state, fuel {fuel}\n{f:?}");
                    let lean = decoded.run(pkt, &mut ran, fuel, &mut buffers);
                    let want_lean = want.as_ref().map(|p| RunOutcome {
                        forward: p.forward,
                        instrs: p.instrs,
                        packet_out: p.packet_out,
                    });
                    let want_lean = want_lean.map_err(Clone::clone);
                    prop_assert_eq!(&lean, &want_lean, "run, fuel {fuel}\n{f:?}");
                    if let Ok(p) = &want {
                        let counts = &buffers.block_counts;
                        prop_assert_eq!(counts, &p.block_counts, "run counts, fuel {fuel}");
                    }
                    prop_assert_eq!(&ran, &walked, "run state, fuel {fuel}\n{f:?}");
                }
            }
        }
    }

    #[test]
    fn decoding_folds_immediates_and_specializes_scan_shapes() {
        let f = CirFunction {
            blocks: vec![
                BasicBlock {
                    instrs: vec![
                        Instr::Binary {
                            dst: Reg(0),
                            op: Op::Mul,
                            lhs: Operand::Imm(6),
                            rhs: Operand::Imm(7),
                        },
                        Instr::Binary {
                            dst: Reg(1),
                            op: Op::Add,
                            lhs: Operand::Reg(Reg(0)),
                            rhs: Operand::Imm(1),
                        },
                        Instr::Copy { dst: Reg(2), src: Operand::Imm(9) },
                    ],
                    term: Terminator::Branch {
                        cond: Operand::Imm(0),
                        then_bb: BlockId(0),
                        else_bb: BlockId(1),
                    },
                },
                BasicBlock { instrs: vec![], term: Terminator::Return(Operand::Reg(Reg(1))) },
            ],
            num_regs: 3,
        };
        let d = DecodedFunction::new(&f);
        assert!(matches!(d.steps[0], Step::Const { dst: 0, value: 42 }));
        assert!(matches!(d.steps[1], Step::AddRI { dst: 1, lhs: 0, imm: 1 }));
        assert!(matches!(d.steps[2], Step::Const { dst: 2, value: 9 }));
        assert!(matches!(d.blocks[0].exit, Exit::Jump(1)));
        let p = execute(&f, &PacketInfo::tcp(1, 2, 3, 4, 0), &mut HashState::new(), 100).unwrap();
        assert_eq!(p.block_counts, vec![1, 1]);
        assert_eq!(p.instrs, 3);
        assert!(p.forward);
    }

    #[test]
    fn hash_state_counts_only_writes() {
        let mut state = HashState::new();
        state.add_lpm_rule(StateId(0), 0, 0, 1);
        state.table_lookup(StateId(0), 1);
        state.lpm_lookup(StateId(0), 1);
        state.counter_read(StateId(0), 1);
        state.array_read(StateId(0), 1);
        state.meter(1, 1);
        assert_eq!(state.writes(), 0);
        state.table_write(StateId(0), 1, 1);
        state.counter_add(StateId(0), 1, 0);
        state.array_write(StateId(0), 1, 1);
        assert_eq!(state.writes(), 3);
    }

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
