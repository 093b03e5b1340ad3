//! Sweep checkpoint files: completed-cell results keyed by scenario
//! hash, persisted as JSON so an interrupted sweep can resume without
//! re-solving finished cells.
//!
//! The format is deliberately tiny and hand-rolled (the workspace takes
//! no serde dependency): a versioned header and one flat JSON object per
//! cell, one per line. Writing is atomic (temp file + rename), and the
//! reader is a *salvaging* scanner — a checkpoint truncated mid-write by
//! a crash or Ctrl-C yields every complete cell it contains, and
//! unparseable garbage degrades to an empty checkpoint rather than an
//! error. Losing checkpoint state can only cost re-computation, never
//! correctness, so the reader prefers salvage over strictness.

use crate::predictor::Prediction;
use crate::sweep::SweepScenario;
use clara_telemetry::json_escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Format version written to (and required in spirit from) the header.
/// Unknown versions still parse — cells a future format renames simply
/// fail the per-cell field check and are dropped.
const VERSION: u32 = 1;

/// The checkpointed numbers of one completed cell: enough to print the
/// sweep table without re-solving, keyed by [`scenario_hash`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// [`scenario_hash`] of the cell this summarizes.
    pub hash: u64,
    /// The cell's human-readable label (informational; the hash is the
    /// key).
    pub label: String,
    /// Expected per-packet latency in cycles.
    pub avg_latency_cycles: f64,
    /// Same in nanoseconds.
    pub avg_latency_ns: f64,
    /// Idealized sustainable throughput, packets per second.
    pub throughput_pps: f64,
    /// Estimated energy per packet, nanojoules.
    pub energy_nj_per_packet: f64,
    /// The resource limiting throughput.
    pub bottleneck: String,
    /// Mapping quality tag (display form of
    /// [`clara_map::MappingQuality`]).
    pub quality: String,
}

impl CellSummary {
    /// Summarize a fresh prediction for checkpointing.
    pub fn of(hash: u64, label: &str, p: &Prediction) -> Self {
        CellSummary {
            hash,
            label: label.to_string(),
            avg_latency_cycles: p.avg_latency_cycles,
            avg_latency_ns: p.avg_latency_ns,
            throughput_pps: p.throughput_pps,
            energy_nj_per_packet: p.energy_nj_per_packet,
            bottleneck: p.bottleneck.clone(),
            quality: p.mapping.quality.to_string(),
        }
    }
}

/// A set of completed cells keyed by scenario hash.
#[derive(Debug, Clone, Default)]
pub struct Checkpoint {
    cells: BTreeMap<u64, CellSummary>,
}

impl Checkpoint {
    /// An empty checkpoint.
    pub fn new() -> Self {
        Checkpoint::default()
    }

    /// Number of completed cells recorded.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are recorded.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Record a completed cell (replacing any previous entry for the
    /// same hash).
    pub fn insert(&mut self, cell: CellSummary) {
        self.cells.insert(cell.hash, cell);
    }

    /// Look up a completed cell by scenario hash.
    pub fn get(&self, hash: u64) -> Option<&CellSummary> {
        self.cells.get(&hash)
    }

    /// Load a checkpoint from `path`. A missing file is an *empty*
    /// checkpoint (first run of a `--resume` invocation); a truncated or
    /// corrupted file salvages every complete cell object it contains.
    ///
    /// Loading is byte-safe: a crash can clip the file at *any* byte,
    /// including the middle of a multi-byte UTF-8 sequence in a label
    /// (labels are caller-controlled free text). Reading bytes and
    /// decoding lossily turns such a tail into replacement characters
    /// inside the clipped (already unusable) trailing object, instead of
    /// failing the whole read and silently dropping every salvageable
    /// cell the way a strict `read_to_string` would.
    pub fn load(path: &Path) -> Checkpoint {
        match fs::read(path) {
            Ok(bytes) => Checkpoint::parse(&String::from_utf8_lossy(&bytes)),
            Err(_) => Checkpoint::new(),
        }
    }

    /// Serialize and write atomically: the new content lands in a
    /// sibling temp file first and is renamed over `path`, so a crash
    /// mid-write leaves the previous checkpoint intact.
    pub fn save_atomic(&self, path: &Path) -> Result<(), String> {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.to_json()).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        fs::rename(&tmp, path)
            .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
    }

    /// The JSON form: a header line, then one cell object per line. The
    /// one-object-per-line layout is what makes truncation salvage
    /// effective: a partial write clips at most the last line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"version\":{VERSION},\"cells\":[");
        for (i, cell) in self.cells.values().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "{{\"hash\":\"{:016x}\",\"label\":\"{}\",\"avg_latency_cycles\":{:?},\
                 \"avg_latency_ns\":{:?},\"throughput_pps\":{:?},\
                 \"energy_nj_per_packet\":{:?},\"bottleneck\":\"{}\",\"quality\":\"{}\"}}",
                cell.hash,
                json_escape(&cell.label),
                cell.avg_latency_cycles,
                cell.avg_latency_ns,
                cell.throughput_pps,
                cell.energy_nj_per_packet,
                json_escape(&cell.bottleneck),
                json_escape(&cell.quality),
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Salvaging parser: scan for the `"cells"` array and collect every
    /// *complete* `{...}` object inside it that carries a valid hash.
    /// Anything else — a clipped trailing object, garbage, a missing
    /// array — contributes nothing. Never errors.
    pub fn parse(text: &str) -> Checkpoint {
        let mut ck = Checkpoint::new();
        let Some(start) = text.find("\"cells\"") else { return ck };
        let bytes = text.as_bytes();
        let mut i = start;
        while i < bytes.len() {
            if bytes[i] == b'{' {
                // Cell objects are flat (no nested braces outside
                // strings), so the matching close is the next unquoted
                // '}'. No close before EOF = truncated object: stop.
                match find_object_end(text, i) {
                    Some(end) => {
                        if let Some(cell) = parse_cell(&text[i..=end]) {
                            ck.insert(cell);
                        }
                        i = end + 1;
                    }
                    None => break,
                }
            } else {
                i += 1;
            }
        }
        ck
    }
}

/// Index of the `}` closing the object that opens at `open` (a `{`),
/// honoring strings and escapes. `None` if the object never closes.
fn find_object_end(text: &str, open: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut in_str = false;
    let mut escaped = false;
    for (off, &b) in bytes[open + 1..].iter().enumerate() {
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
        } else if b == b'"' {
            in_str = true;
        } else if b == b'}' {
            return Some(open + 1 + off);
        }
    }
    None
}

/// Parse one flat cell object; `None` when any required field is
/// missing or malformed.
fn parse_cell(obj: &str) -> Option<CellSummary> {
    let hash = u64::from_str_radix(&field_str(obj, "hash")?, 16).ok()?;
    Some(CellSummary {
        hash,
        label: field_str(obj, "label")?,
        avg_latency_cycles: field_f64(obj, "avg_latency_cycles")?,
        avg_latency_ns: field_f64(obj, "avg_latency_ns")?,
        throughput_pps: field_f64(obj, "throughput_pps")?,
        energy_nj_per_packet: field_f64(obj, "energy_nj_per_packet")?,
        bottleneck: field_str(obj, "bottleneck")?,
        quality: field_str(obj, "quality")?,
    })
}

/// Value of `"key":"..."` in a flat object, unescaped.
fn field_str(obj: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = obj.find(&needle)? + needle.len();
    let rest = obj.get(at..)?;
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let code: String = chars.by_ref().take(4).collect();
                    let v = u32::from_str_radix(&code, 16).ok()?;
                    out.push(char::from_u32(v)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None // unterminated string
}

/// Value of `"key":<number>` in a flat object. `{:?}`-formatted floats
/// (including `inf` and `NaN`) round-trip through `str::parse`.
fn field_f64(obj: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = obj.find(&needle)? + needle.len();
    let rest = obj.get(at..)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Content hash identifying a scenario across processes: FNV-1a over the
/// module identity, NIC identity, label, the *full* workload (including
/// `rate_pps` — unlike the sweep's in-process sharing key, a checkpoint
/// entry stands for one complete result), and every option that changes
/// the result. Supervision policy (`deadline_ms`) and test hooks
/// (`inject_panic`) are deliberately excluded: they decide whether a
/// cell *finishes*, never what its numbers are.
pub fn scenario_hash(sc: &SweepScenario<'_>) -> u64 {
    let mut h = Fnv::new();
    h.str(&sc.module.name);
    h.u64(sc.module.states.len() as u64);
    for s in &sc.module.states {
        h.str(&s.name);
        h.u64(s.size_bytes as u64);
    }
    h.str(&sc.params.nic_name);
    h.u64(sc.params.mems.len() as u64);
    h.str(&sc.label);

    let wl = &sc.workload;
    h.u64(wl.flows as u64);
    h.u64(wl.tcp_share.to_bits());
    h.u64(wl.syn_share.to_bits());
    h.u64(wl.avg_payload.to_bits());
    h.u64(wl.max_payload as u64);
    h.u64(wl.rate_pps.to_bits());
    h.u64(wl.zipf_alpha.to_bits());

    let opt = &sc.options;
    h.u64(opt.software_only as u64);
    h.u64(opt.pin_state.len() as u64);
    for (state, region) in &opt.pin_state {
        h.str(state);
        h.str(region);
    }
    h.u64(opt.budget.max_nodes as u64);
    h.u64(opt.solver.warm_start as u64);
    h.u64(opt.solver.memoize as u64);
    h.u64(opt.solver.reference_lp as u64);
    h.finish()
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    fn str(&mut self, s: &str) {
        // Length prefix keeps ("ab","c") distinct from ("a","bc").
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(hash: u64, label: &str) -> CellSummary {
        CellSummary {
            hash,
            label: label.to_string(),
            avg_latency_cycles: 1234.5,
            avg_latency_ns: 1543.125,
            throughput_pps: 2.5e6,
            energy_nj_per_packet: 98.75,
            bottleneck: "npu-threads".to_string(),
            quality: "optimal".to_string(),
        }
    }

    #[test]
    fn roundtrip_preserves_cells() {
        let mut ck = Checkpoint::new();
        ck.insert(cell(0xdead_beef, "rate=600k payload=1400"));
        ck.insert(cell(42, "weird \"label\"\twith\nescapes\\"));
        let parsed = Checkpoint::parse(&ck.to_json());
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.get(42).unwrap(), ck.get(42).unwrap());
        assert_eq!(parsed.get(0xdead_beef).unwrap(), ck.get(0xdead_beef).unwrap());
    }

    #[test]
    fn roundtrip_preserves_infinity() {
        let mut c = cell(7, "unloaded");
        c.throughput_pps = f64::INFINITY;
        let mut ck = Checkpoint::new();
        ck.insert(c);
        let parsed = Checkpoint::parse(&ck.to_json());
        assert_eq!(parsed.get(7).unwrap().throughput_pps, f64::INFINITY);
    }

    #[test]
    fn truncation_salvages_complete_cells() {
        let mut ck = Checkpoint::new();
        for i in 0..6u64 {
            ck.insert(cell(i, &format!("cell-{i}")));
        }
        let full = ck.to_json();
        // Clip mid-way: complete leading objects must survive, the
        // clipped trailing one must not corrupt anything.
        for clip in [full.len() / 3, full.len() / 2, full.len() - 5] {
            let parsed = Checkpoint::parse(&full[..clip]);
            assert!(parsed.len() < 6 || clip >= full.len() - 5);
            for i in 0..6u64 {
                if let Some(got) = parsed.get(i) {
                    assert_eq!(got, ck.get(i).unwrap(), "salvaged cell differs");
                }
            }
        }
    }

    #[test]
    fn truncation_mid_multibyte_sequence_salvages_byte_safely() {
        // Labels are free text: multi-byte UTF-8 is legal in them, and a
        // crash mid-write can clip the file at any *byte*, not any char.
        let mut ck = Checkpoint::new();
        for i in 0..4u64 {
            ck.insert(cell(i, &format!("λ-NIC sweep · 東京 №{i} μs")));
        }
        let full = ck.to_json().into_bytes();
        // Clip exactly inside a multi-byte sequence of the *last* cell's
        // label, so everything before it is intact but the file is no
        // longer valid UTF-8.
        let last_multibyte = (0..full.len())
            .rev()
            .find(|&i| full[i] >= 0x80 && (full[i] & 0xc0) == 0x80)
            .expect("labels contain multi-byte chars");
        let clipped = &full[..last_multibyte];
        assert!(
            String::from_utf8(clipped.to_vec()).is_err(),
            "clip point must split a multi-byte sequence"
        );

        let path = std::env::temp_dir()
            .join(format!("clara-ck-multibyte-{}.json", std::process::id()));
        std::fs::write(&path, clipped).unwrap();
        let salvaged = Checkpoint::load(&path);
        let _ = std::fs::remove_file(&path);

        // Every *complete* leading cell survives, bit-for-bit — the old
        // `read_to_string` loader returned an empty checkpoint here and
        // silently recomputed the whole grid.
        assert!(!salvaged.is_empty(), "complete leading cells must be salvaged");
        for i in 0..4u64 {
            if let Some(got) = salvaged.get(i) {
                assert_eq!(got, ck.get(i).unwrap(), "salvaged cell differs");
            }
        }
        // The clipped trailing cell must not have been resurrected from
        // a half-written label.
        assert!(salvaged.len() < 4);
    }

    #[test]
    fn garbage_parses_to_empty() {
        assert!(Checkpoint::parse("").is_empty());
        assert!(Checkpoint::parse("not json at all").is_empty());
        assert!(Checkpoint::parse("{\"version\":1}").is_empty());
        assert!(Checkpoint::parse("{\"cells\":[{\"hash\":\"xyz\"}]}").is_empty());
    }

    #[test]
    fn missing_file_loads_empty() {
        let p = std::env::temp_dir().join("clara-ck-definitely-missing.json");
        assert!(Checkpoint::load(&p).is_empty());
    }

    #[test]
    fn save_is_atomic_and_reloadable() {
        let p = std::env::temp_dir().join("clara-ck-roundtrip-test.json");
        let mut ck = Checkpoint::new();
        ck.insert(cell(1, "one"));
        ck.save_atomic(&p).unwrap();
        ck.insert(cell(2, "two"));
        ck.save_atomic(&p).unwrap();
        let back = Checkpoint::load(&p);
        assert_eq!(back.len(), 2);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn fnv_length_prefix_disambiguates() {
        let mut a = Fnv::new();
        a.str("ab");
        a.str("c");
        let mut b = Fnv::new();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
