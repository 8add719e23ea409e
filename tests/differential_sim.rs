//! Differential testing: the PU simulator versus an independent reference
//! interpreter on randomized straight-line programs.
//!
//! The reference interpreter below is deliberately minimal — no timing,
//! no pipelines, no stream buffer — just the architectural semantics of
//! Table II, written independently of `ssam_core::sim`. Property tests
//! generate random (control-flow-free) programs and assert both engines
//! land in identical architectural state. This is the software analogue
//! of the paper's RTL-vs-model validation.

use std::sync::Arc;

use proptest::prelude::*;

use ssam::core::analysis::{verify_program, Severity, VerifyConfig};
use ssam::core::isa::inst::{AluOp, Instruction, UnaryOp};
use ssam::core::isa::reg::{SReg, VReg};
use ssam::core::isa::{DRAM_BASE, SCRATCHPAD_BYTES};
use ssam::core::sim::pu::ProcessingUnit;

const VL: usize = 4;
const DRAM_WORDS: usize = 64;

/// Minimal architectural reference model.
struct RefMachine {
    s: [i32; 32],
    v: [[i32; VL]; 8],
    spad: Vec<i32>,
    dram: Vec<i32>,
    pq: Vec<(i32, i32)>, // (value, id) sorted ascending
    stack: Vec<i32>,
}

impl RefMachine {
    fn new(dram: Vec<i32>) -> Self {
        Self {
            s: [0; 32],
            v: [[0; VL]; 8],
            spad: vec![0; SCRATCHPAD_BYTES / 4],
            dram,
            pq: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn write_s(&mut self, r: usize, val: i32) {
        if r != 0 {
            self.s[r] = val;
        }
    }

    fn load_word(&self, addr: u32) -> i32 {
        if addr < DRAM_BASE {
            self.spad[(addr / 4) as usize]
        } else {
            self.dram[((addr - DRAM_BASE) / 4) as usize]
        }
    }

    fn exec(&mut self, program: &[Instruction]) {
        use Instruction::*;
        for inst in program {
            match *inst {
                SAlu { op, rd, rs1, rs2 } => {
                    let val = op.eval(self.s[rs1.index()], self.s[rs2.index()]);
                    self.write_s(rd.index(), val);
                }
                SAluImm { op, rd, rs1, imm } => {
                    let val = op.eval(self.s[rs1.index()], imm);
                    self.write_s(rd.index(), val);
                }
                SUnary { op, rd, rs1 } => {
                    let val = op.eval(self.s[rs1.index()]);
                    self.write_s(rd.index(), val);
                }
                Push { rs1 } => self.stack.push(self.s[rs1.index()]),
                Pop { rd } => {
                    let val = self.stack.pop().expect("generator balances stack ops");
                    self.write_s(rd.index(), val);
                }
                PqueueInsert { rs_id, rs_val } => {
                    let e = (self.s[rs_val.index()], self.s[rs_id.index()]);
                    let pos = self.pq.partition_point(|&x| x <= e);
                    self.pq.insert(pos, e);
                    self.pq.truncate(16);
                }
                PqueueLoad { rd, rs_idx, field } => {
                    use ssam::core::isa::inst::PqField;
                    let idx = self.s[rs_idx.index()].max(0) as usize;
                    let val = match field {
                        PqField::Id => self.pq.get(idx).map_or(-1, |e| e.1),
                        PqField::Value => self.pq.get(idx).map_or(i32::MAX, |e| e.0),
                        PqField::Size => self.pq.len() as i32,
                    };
                    self.write_s(rd.index(), val);
                }
                PqueueReset => self.pq.clear(),
                Sfxp { rd, rs1, rs2 } => {
                    let x = self.s[rs1.index()] ^ self.s[rs2.index()];
                    let val = self.s[rd.index()].wrapping_add(x.count_ones() as i32);
                    self.write_s(rd.index(), val);
                }
                Load {
                    rd,
                    rs_base,
                    offset,
                } => {
                    let addr = self.s[rs_base.index()].wrapping_add(offset) as u32;
                    let val = self.load_word(addr);
                    self.write_s(rd.index(), val);
                }
                Store {
                    rs_val,
                    rs_base,
                    offset,
                } => {
                    let addr = self.s[rs_base.index()].wrapping_add(offset) as u32;
                    self.spad[(addr / 4) as usize] = self.s[rs_val.index()];
                }
                MemFetch { .. } => {} // performance hint only
                SvMove { vd, rs1, lane } => {
                    let val = self.s[rs1.index()];
                    if lane < 0 {
                        self.v[vd.index()] = [val; VL];
                    } else {
                        self.v[vd.index()][lane as usize] = val;
                    }
                }
                VsMove { rd, vs1, lane } => {
                    let val = self.v[vs1.index()][lane as usize];
                    self.write_s(rd.index(), val);
                }
                VAlu { op, vd, vs1, vs2 } => {
                    for l in 0..VL {
                        self.v[vd.index()][l] =
                            op.eval(self.v[vs1.index()][l], self.v[vs2.index()][l]);
                    }
                }
                VAluImm { op, vd, vs1, imm } => {
                    for l in 0..VL {
                        self.v[vd.index()][l] = op.eval(self.v[vs1.index()][l], imm);
                    }
                }
                VUnary { op, vd, vs1 } => {
                    for l in 0..VL {
                        self.v[vd.index()][l] = op.eval(self.v[vs1.index()][l]);
                    }
                }
                Vfxp { vd, vs1, vs2 } => {
                    for l in 0..VL {
                        let x = self.v[vs1.index()][l] ^ self.v[vs2.index()][l];
                        self.v[vd.index()][l] =
                            self.v[vd.index()][l].wrapping_add(x.count_ones() as i32);
                    }
                }
                VLoad {
                    vd,
                    rs_base,
                    offset,
                } => {
                    let addr = self.s[rs_base.index()].wrapping_add(offset) as u32;
                    for l in 0..VL {
                        self.v[vd.index()][l] = self.load_word(addr + 4 * l as u32);
                    }
                }
                VStore {
                    vs,
                    rs_base,
                    offset,
                } => {
                    let addr = self.s[rs_base.index()].wrapping_add(offset) as u32;
                    for l in 0..VL {
                        self.spad[((addr + 4 * l as u32) / 4) as usize] = self.v[vs.index()][l];
                    }
                }
                Branch { .. } | Jump { .. } | Halt => unreachable!("straight-line only"),
            }
        }
    }
}

// ---- random straight-line program generation ----

/// Safe word-aligned scratchpad offsets (keep well inside bounds and away
/// from vector-load overruns).
fn arb_spad_offset() -> impl Strategy<Value = i32> {
    (0..(SCRATCHPAD_BYTES as i32 / 4 - VL as i32)).prop_map(|w| w * 4)
}

fn arb_dram_offset() -> impl Strategy<Value = i32> {
    (0..(DRAM_WORDS as i32 - VL as i32)).prop_map(|w| w * 4)
}

fn arb_sreg() -> impl Strategy<Value = SReg> {
    (0u8..32).prop_map(SReg)
}
fn arb_vreg() -> impl Strategy<Value = VReg> {
    (0u8..8).prop_map(VReg)
}
fn arb_alu() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Mult),
        Just(AluOp::Or),
        Just(AluOp::And),
        Just(AluOp::Xor),
        Just(AluOp::Sl),
        Just(AluOp::Sr),
        Just(AluOp::Sra),
    ]
}
fn arb_unary() -> impl Strategy<Value = UnaryOp> {
    prop_oneof![Just(UnaryOp::Not), Just(UnaryOp::Popcount)]
}

/// One safe straight-line instruction. Loads/stores use `s0` (zero) as
/// the base with a bounded positive offset; DRAM loads add `s31`, which
/// the harness pins to `DRAM_BASE` and the generator never overwrites
/// (rd is drawn from s0–s30).
fn arb_safe_inst() -> impl Strategy<Value = Instruction> {
    let rd = || (0u8..31).prop_map(SReg);
    prop_oneof![
        (arb_alu(), rd(), arb_sreg(), arb_sreg())
            .prop_map(|(op, rd, rs1, rs2)| Instruction::SAlu { op, rd, rs1, rs2 }),
        (arb_alu(), rd(), arb_sreg(), -1000i32..1000)
            .prop_map(|(op, rd, rs1, imm)| Instruction::SAluImm { op, rd, rs1, imm }),
        (arb_unary(), rd(), arb_sreg()).prop_map(|(op, rd, rs1)| Instruction::SUnary {
            op,
            rd,
            rs1
        }),
        (rd(), arb_sreg()).prop_map(|(rs_id, rs_val)| Instruction::PqueueInsert { rs_id, rs_val }),
        (rd(), arb_sreg()).prop_map(|(rd, rs_idx)| Instruction::PqueueLoad {
            rd,
            rs_idx,
            field: ssam::core::isa::inst::PqField::Value
        }),
        (rd(), arb_sreg(), arb_sreg()).prop_map(|(rd, rs1, rs2)| Instruction::Sfxp {
            rd,
            rs1,
            rs2
        }),
        (rd(), arb_spad_offset()).prop_map(|(rd, offset)| Instruction::Load {
            rd,
            rs_base: SReg(0),
            offset
        }),
        (arb_sreg(), arb_spad_offset()).prop_map(|(rs_val, offset)| Instruction::Store {
            rs_val,
            rs_base: SReg(0),
            offset
        }),
        (rd(), arb_dram_offset()).prop_map(|(rd, offset)| Instruction::Load {
            rd,
            rs_base: SReg(31),
            offset
        }),
        (arb_vreg(), arb_sreg(), (-1i8..VL as i8))
            .prop_map(|(vd, rs1, lane)| Instruction::SvMove { vd, rs1, lane }),
        (rd(), arb_vreg(), (0u8..VL as u8)).prop_map(|(rd, vs1, lane)| Instruction::VsMove {
            rd,
            vs1,
            lane
        }),
        (arb_alu(), arb_vreg(), arb_vreg(), arb_vreg())
            .prop_map(|(op, vd, vs1, vs2)| Instruction::VAlu { op, vd, vs1, vs2 }),
        (arb_alu(), arb_vreg(), arb_vreg(), -1000i32..1000)
            .prop_map(|(op, vd, vs1, imm)| Instruction::VAluImm { op, vd, vs1, imm }),
        (arb_unary(), arb_vreg(), arb_vreg()).prop_map(|(op, vd, vs1)| Instruction::VUnary {
            op,
            vd,
            vs1
        }),
        (arb_vreg(), arb_vreg(), arb_vreg()).prop_map(|(vd, vs1, vs2)| Instruction::Vfxp {
            vd,
            vs1,
            vs2
        }),
        (arb_vreg(), arb_spad_offset()).prop_map(|(vd, offset)| Instruction::VLoad {
            vd,
            rs_base: SReg(0),
            offset
        }),
        (arb_vreg(), arb_dram_offset()).prop_map(|(vd, offset)| Instruction::VLoad {
            vd,
            rs_base: SReg(31),
            offset
        }),
        (arb_vreg(), arb_spad_offset()).prop_map(|(vs, offset)| Instruction::VStore {
            vs,
            rs_base: SReg(0),
            offset
        }),
    ]
}

/// Balanced push/pop pairs are appended so the stack never underflows.
fn arb_program() -> impl Strategy<Value = Vec<Instruction>> {
    (
        prop::collection::vec(arb_safe_inst(), 1..60),
        prop::collection::vec((0u8..31, 0u8..32), 0..8),
    )
        .prop_map(|(mut body, pairs)| {
            for (rd, rs) in pairs {
                body.push(Instruction::Push { rs1: SReg(rs) });
                body.push(Instruction::Pop { rd: SReg(rd) });
            }
            body.push(Instruction::Halt);
            body
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn simulator_matches_reference_interpreter(
        program in arb_program(),
        dram in prop::collection::vec(any::<i32>(), DRAM_WORDS),
        seeds in prop::collection::vec(any::<i32>(), 8),
    ) {
        // The generator's safety contract, checked by the static
        // verifier: straight-line, balanced, in-bounds programs carry no
        // error-severity diagnostics (warnings such as a constant
        // PQUEUE_LOAD index past the queue depth are architecturally
        // defined and modeled by the reference interpreter).
        let diags = verify_program(&program, &VerifyConfig::permissive(VL));
        prop_assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "generated program should verify error-free: {:?}",
            diags
        );

        // Simulator under test.
        let mut pu = ProcessingUnit::new(VL, Arc::new(dram.clone()));
        // Straight-line body (reference executes everything except Halt).
        let body: Vec<Instruction> =
            program.iter().copied().filter(|i| !matches!(i, Instruction::Halt)).collect();
        pu.load_program(program.clone());
        for (i, &v) in seeds.iter().enumerate() {
            pu.set_sreg(1 + i, v);
        }
        pu.set_sreg(31, DRAM_BASE as i32);
        pu.run(10_000).expect("straight-line programs cannot fault");

        // Independent reference.
        let mut m = RefMachine::new(dram);
        for (i, &v) in seeds.iter().enumerate() {
            m.write_s(1 + i, v);
        }
        m.write_s(31, DRAM_BASE as i32);
        m.exec(&body);

        // Architectural state must agree.
        for r in 0..32 {
            prop_assert_eq!(pu.sreg(r), m.s[r], "scalar register s{}", r);
        }
        let pq_sim: Vec<(i32, i32)> =
            pu.pqueue().entries().iter().map(|e| (e.value, e.id)).collect();
        prop_assert_eq!(pq_sim, m.pq, "priority queue");
        // Spot-check scratchpad words the programs may have touched.
        for w in (0..SCRATCHPAD_BYTES / 4).step_by(257) {
            prop_assert_eq!(
                pu.scratchpad().read_block((w * 4) as u32, 1).expect("in range")[0],
                m.spad[w],
                "scratchpad word {}", w
            );
        }
    }
}

/// Unit-consistency: the device engine reports distances in the same
/// float units as the CPU reference (`Fix32::to_f32` on the raw Q16.16
/// queue words, not a raw integer cast — the raw cast was 65536× off).
#[test]
fn device_distances_agree_with_cpu_reference_units() {
    use ssam::core::device::{DeviceQuery, SsamConfig, SsamDevice};
    use ssam::knn::linear::knn_exact;
    use ssam::knn::{Metric, VectorStore};

    let dims = 12usize;
    let mut store = VectorStore::with_capacity(dims, 150);
    for i in 0..150 {
        let v: Vec<f32> = (0..dims)
            .map(|j| ((i * 29 + j * 11) as f32 * 0.09).sin())
            .collect();
        store.push(&v);
    }
    let q: Vec<f32> = (0..dims).map(|j| (j as f32 * 0.23).cos()).collect();

    for use_hw_queue in [true, false] {
        let mut dev = SsamDevice::new(SsamConfig {
            use_hw_queue,
            fast_path: false,
            ..SsamConfig::default()
        });
        dev.load_vectors(&store);
        for (query, metric) in [
            (DeviceQuery::Euclidean(&q), Metric::Euclidean),
            (DeviceQuery::Manhattan(&q), Metric::Manhattan),
        ] {
            let r = dev.query(&query, 6).expect("device runs");
            let reference = knn_exact(&store, &q, 6, metric);
            assert_eq!(r.neighbors.len(), reference.len());
            for (got, want) in r.neighbors.iter().zip(&reference) {
                assert!(
                    (got.dist - want.dist).abs() < 1e-2,
                    "{metric:?} hw_queue={use_hw_queue}: device {} vs reference {} (id {})",
                    got.dist,
                    want.dist,
                    want.id
                );
            }
        }
    }
}
