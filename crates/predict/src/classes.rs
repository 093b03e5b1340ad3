//! Packet-class enumeration and per-class path profiling.
//!
//! "Different network packets may exercise different parts of the NF"
//! (§3.5). We split the workload into classes, build representative
//! packets for each, and execute them through the CIR interpreter to
//! learn each class's path — per-block execution counts that become
//! dataflow-node weights.

use clara_cir::{
    CirFunction, CirModule, DecodedFunction, HashState, PacketInfo, RunBuffers, StateId, VCall,
};
use clara_lang::StateKind;
use clara_workload::WorkloadProfile;

/// Interpreter fuel per packet (bounds runaway loops).
const FUEL: u64 = 50_000_000;

/// Representative packets per class.
const REPS: usize = 32;

/// One packet class of the workload.
#[derive(Debug, Clone)]
pub struct PacketClass {
    /// Human-readable name (`"tcp-syn"`, `"tcp"`, `"udp"`).
    pub name: String,
    /// Fraction of packets in this class.
    pub share: f64,
    /// Payload size for this class, bytes.
    pub payload: f64,
    /// Mean executions of each basic block per packet of this class.
    pub block_weights: Vec<f64>,
    /// Fraction of this class's packets the NF forwards.
    pub forward_share: f64,
}

/// Decompose `workload` into classes and profile each through the
/// interpreter.
///
/// State is seeded realistically: LPM tables get a default route plus a
/// rule spread, and for non-SYN classes each representative packet is run
/// twice with profile taken from the second run (steady state: the flow's
/// entries exist). SYN packets profile the first (setup) run.
///
/// The handler is decoded once per call, and every run reuses one set of
/// interpreter buffers. A warm run that wrote nothing the handler reads
/// leaves the steady-state run the same function, packet, fuel and state
/// reads, so that run is skipped and the warm run's profile taken: the
/// result is the same bit for bit.
pub fn enumerate_classes(module: &CirModule, workload: &WorkloadProfile) -> Vec<PacketClass> {
    let syn_share = workload.syn_share.clamp(0.0, 1.0) * workload.tcp_share;
    let tcp_share = (workload.tcp_share - syn_share).max(0.0);
    let udp_share = (1.0 - workload.tcp_share).max(0.0);

    let mut profiler = Profiler {
        module,
        handle: DecodedFunction::new(&module.handle),
        buffers: RunBuffers::default(),
        workload,
        reads_own_writes: reads_own_writes(&module.handle),
    };
    let mut classes = Vec::new();
    if syn_share > 0.0 {
        classes.push(profiler.profile_class("tcp-syn", syn_share, 0.0, true));
    }
    if tcp_share > 0.0 {
        classes.push(profiler.profile_class("tcp", tcp_share, workload.avg_payload, false));
    }
    if udp_share > 0.0 {
        classes.push(profiler.profile_class("udp", udp_share, workload.avg_payload, false));
    }
    // Renormalize shares in case of clamping.
    let total: f64 = classes.iter().map(|c| c.share).sum();
    if total > 0.0 {
        for c in &mut classes {
            c.share /= total;
        }
    }
    classes
}

/// What the classes of one [`enumerate_classes`] call share: the decoded
/// handler and the interpreter's buffers.
struct Profiler<'a> {
    module: &'a CirModule,
    handle: DecodedFunction,
    buffers: RunBuffers,
    workload: &'a WorkloadProfile,
    /// Whether a write can reach a later read (see [`reads_own_writes`]).
    reads_own_writes: bool,
}

impl Profiler<'_> {
    fn profile_class(&mut self, name: &str, share: f64, payload: f64, is_syn: bool) -> PacketClass {
        let mut totals = vec![0.0f64; self.handle.num_blocks()];
        let mut forwards = 0usize;
        let mut state = HashState::new();
        seed_state(self.module, &mut state);

        let udp = name == "udp";
        for i in 0..REPS {
            let pkt = representative_packet(i, payload as u16, udp, is_syn, self.workload);
            // SYN: the setup path of a fresh flow. Otherwise warm the flow,
            // then profile the steady-state run. That run repeats the warm
            // run exactly, and no later packet can read what it writes,
            // unless the warm run wrote state the handler reads.
            let writes = state.writes();
            let mut run = self.handle.run(&pkt, &mut state, FUEL, &mut self.buffers);
            if !is_syn && self.reads_own_writes && state.writes() != writes {
                run = self.handle.run(&pkt, &mut state, FUEL, &mut self.buffers);
            }
            let run = run.expect("profiling within fuel");
            add(&mut totals, &self.buffers.block_counts);
            forwards += run.forward as usize;
        }
        for t in &mut totals {
            *t /= REPS as f64;
        }
        PacketClass {
            name: name.into(),
            share,
            payload,
            block_weights: totals,
            forward_share: forwards as f64 / REPS as f64,
        }
    }
}

/// Whether `f` reads some state it also writes. Only then can one run's
/// writes change what a later run reads: every other vcall is a pure
/// function of the packet and its operands (`HashState` meters keep no
/// state).
fn reads_own_writes(f: &CirFunction) -> bool {
    let written: Vec<StateId> = f
        .vcalls()
        .filter_map(|(_, call)| match *call {
            VCall::TableWrite(s) | VCall::CounterAdd(s) | VCall::ArrayWrite(s) => Some(s),
            _ => None,
        })
        .collect();
    f.vcalls().any(|(_, call)| match *call {
        VCall::TableLookup(s)
        | VCall::LpmLookup(s)
        | VCall::CounterRead(s)
        | VCall::ArrayRead(s) => written.contains(&s),
        _ => false,
    })
}

fn add(acc: &mut [f64], counts: &[u64]) {
    for (a, &c) in acc.iter_mut().zip(counts) {
        *a += c as f64;
    }
}

fn representative_packet(
    i: usize,
    payload: u16,
    udp: bool,
    syn: bool,
    workload: &WorkloadProfile,
) -> PacketInfo {
    // Spread representatives across the workload's flow space.
    let flow = (i * workload.flows.max(1) / REPS.max(1)) as u32;
    let src_ip = 0x0a00_0000 | flow;
    let dst_ip = 0xc0a8_0001;
    let src_port = 1024 + (flow % 60_000) as u16;
    let dst_port = if udp { 53 } else { 443 };
    let mut pkt = if udp {
        PacketInfo::udp(src_ip, dst_ip, src_port, dst_port, payload)
    } else {
        PacketInfo::tcp(src_ip, dst_ip, src_port, dst_port, payload)
    };
    if syn {
        pkt = pkt.with_syn();
    }
    pkt.payload_seed = (flow & 0xff) as u8;
    pkt
}

/// Seed NF state so profiling exercises realistic paths: LPM tables get a
/// default route plus a spread of more-specific rules.
pub fn seed_state(module: &CirModule, state: &mut HashState) {
    for (i, s) in module.states.iter().enumerate() {
        if s.kind == StateKind::Lpm {
            let sid = StateId(i as u32);
            state.add_lpm_rule(sid, 0, 0, 1); // default route
            let rules = s.capacity.min(256);
            for r in 0..rules {
                state.add_lpm_rule(sid, 0x0a00_0000 | ((r as u32) << 12), 24, r + 2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_cir::lower;
    use clara_lang::frontend;

    fn module(src: &str) -> CirModule {
        lower(&frontend(src).unwrap()).unwrap()
    }

    fn wl(tcp: f64, syn: f64, payload: f64) -> WorkloadProfile {
        WorkloadProfile {
            flows: 1000,
            tcp_share: tcp,
            syn_share: syn,
            avg_payload: payload,
            max_payload: payload as usize,
            rate_pps: 60_000.0,
            zipf_alpha: 0.0,
        }
    }

    #[test]
    fn class_shares_sum_to_one() {
        let m = module(
            "nf t { fn handle(pkt: packet) -> action { return forward; } }",
        );
        let classes = enumerate_classes(&m, &wl(0.8, 0.1, 300.0));
        assert_eq!(classes.len(), 3);
        let total: f64 = classes.iter().map(|c| c.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn all_tcp_no_syn_yields_single_class() {
        let m = module(
            "nf t { fn handle(pkt: packet) -> action { return forward; } }",
        );
        let classes = enumerate_classes(&m, &wl(1.0, 0.0, 300.0));
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].name, "tcp");
    }

    #[test]
    fn classes_take_different_paths() {
        // UDP packets take the cheap branch; TCP pays a checksum.
        let m = module(
            "nf t { fn handle(pkt: packet) -> action {
                if (pkt.is_tcp) {
                    let c: u16 = checksum(pkt);
                }
                return forward; } }",
        );
        let classes = enumerate_classes(&m, &wl(0.5, 0.0, 300.0));
        let tcp = classes.iter().find(|c| c.name == "tcp").unwrap();
        let udp = classes.iter().find(|c| c.name == "udp").unwrap();
        // The block holding the checksum vcall runs for TCP only.
        let ck_block = m
            .handle
            .vcalls()
            .find(|(_, c)| matches!(c, clara_cir::VCall::ChecksumFull))
            .map(|(b, _)| b.0 as usize)
            .unwrap();
        assert!((tcp.block_weights[ck_block] - 1.0).abs() < 1e-9);
        assert_eq!(udp.block_weights[ck_block], 0.0);
    }

    #[test]
    fn syn_class_takes_setup_path() {
        // First packet of a flow inserts; established flows hit.
        let m = module(
            "nf t { state flows: map<u64, u64>[1024];
              fn handle(pkt: packet) -> action {
                let k: u64 = hash(pkt.src_ip, pkt.src_port);
                let v: u64 = flows.lookup(k);
                if (v == 0) { flows.insert(k, 1); }
                return forward; } }",
        );
        let classes = enumerate_classes(&m, &wl(1.0, 0.2, 300.0));
        let syn = classes.iter().find(|c| c.name == "tcp-syn").unwrap();
        let est = classes.iter().find(|c| c.name == "tcp").unwrap();
        // SYN executes the insert arm; established packets do not.
        let insert_block = m
            .handle
            .vcalls()
            .find(|(_, c)| matches!(c, clara_cir::VCall::TableWrite(_)))
            .map(|(b, _)| b.0 as usize)
            .unwrap();
        assert!(
            syn.block_weights[insert_block] > 0.9,
            "syn insert weight {}",
            syn.block_weights[insert_block]
        );
        assert_eq!(est.block_weights[insert_block], 0.0);
        assert_eq!(syn.payload, 0.0);
    }

    #[test]
    fn only_state_read_back_needs_a_steady_state_run() {
        // A counter the handler only adds to (vnf's statistics) cannot
        // change a later run; a table it also looks up (nat's flows) can.
        let write_only = module(
            "nf t { state c: counter[8]; state a: array<u64>[8];
              fn handle(pkt: packet) -> action {
                c.add(pkt.src_ip % 8, 1);
                if (a.get(pkt.src_ip % 8) == 0) { return forward; }
                return drop; } }",
        );
        assert!(!reads_own_writes(&write_only.handle));
        let read_back = module(
            "nf t { state flows: map<u64, u64>[64];
              fn handle(pkt: packet) -> action {
                let k: u64 = hash(pkt.src_ip);
                if (flows.lookup(k) == 0) { flows.insert(k, 1); }
                return forward; } }",
        );
        assert!(reads_own_writes(&read_back.handle));
    }

    #[test]
    fn steady_state_runs_read_back_the_warm_runs_writes() {
        // The warm run writes a counter or an array cell the steady-state
        // run reads, so only the second run forwards.
        for body in [
            "c.add(pkt.src_ip % 64, 1);
             if (c.read(pkt.src_ip % 64) >= 2) { return forward; }",
            "let v: u64 = a.get(pkt.src_ip % 64);
             a.set(pkt.src_ip % 64, 1);
             if (v == 1) { return forward; }",
        ] {
            let m = module(&format!(
                "nf t {{ state c: counter[64]; state a: array<u64>[64];
                  fn handle(pkt: packet) -> action {{ {body} return drop; }} }}"
            ));
            let classes = enumerate_classes(&m, &wl(1.0, 0.0, 300.0));
            assert_eq!(classes[0].forward_share, 1.0, "{body}");
        }
    }

    #[test]
    fn payload_loops_show_in_weights() {
        let m = module(
            "nf t { fn handle(pkt: packet) -> action {
                let i: u64 = 0;
                let acc: u64 = 0;
                while (i < pkt.payload_len) {
                    acc = acc + pkt.payload_byte(i);
                    i = i + 1;
                }
                return forward; } }",
        );
        let classes = enumerate_classes(&m, &wl(1.0, 0.0, 500.0));
        let max_weight = classes[0]
            .block_weights
            .iter()
            .fold(0.0f64, |a, &b| a.max(b));
        assert!((max_weight - 500.0).abs() <= 2.0, "loop weight {max_weight}");
    }

    #[test]
    fn lpm_seeding_allows_forwarding() {
        let m = module(
            "nf t { state routes: lpm[1000];
              fn handle(pkt: packet) -> action {
                let nh: u64 = routes.lookup(pkt.dst_ip);
                if (nh == 0) { return drop; }
                return forward; } }",
        );
        let classes = enumerate_classes(&m, &wl(1.0, 0.0, 300.0));
        assert!(classes[0].forward_share > 0.9, "{}", classes[0].forward_share);
    }
}
