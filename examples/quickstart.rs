//! Quickstart: the paper's Fig. 1 scenario.
//!
//! Several cores repeatedly add to one shared counter; one core then reads it.
//! Under a conventional MESI protocol every add fetches the line exclusively
//! and invalidates the other copies (the line "ping-pongs"); under COUP
//! (MEUSI) every core buffers its additions locally in update-only state and a
//! single reduction produces the final value when the counter is read.
//!
//! The scenario is a ten-line [`Workload`]; `compare_protocols` — the one
//! MESI-vs-MEUSI runner every figure and test goes through — runs and
//! verifies it under both protocols.
//!
//! Run with: `cargo run --release --example quickstart`

use coup_protocol::ops::CommutativeOp;
use coup_protocol::state::ProtocolKind;
use coup_sim::config::SystemConfig;
use coup_sim::memsys::MemorySystem;
use coup_sim::op::{BoxedProgram, ScriptedProgram, ThreadOp};
use coup_workloads::runner::{compare_protocols, Workload};

const COUNTER: u64 = 0x1000;
const OP: CommutativeOp = CommutativeOp::AddU64;

/// Every core applies `updates_per_core` additions to one shared counter,
/// then core 0 reads it.
struct SharedCounter {
    updates_per_core: usize,
}

impl Workload for SharedCounter {
    fn name(&self) -> &'static str {
        "shared-counter"
    }

    fn commutative_op(&self) -> CommutativeOp {
        OP
    }

    fn init(&self, _mem: &mut MemorySystem) {
        // The counter starts at zero, which simulated memory already is.
    }

    fn programs(&self, threads: usize) -> Vec<BoxedProgram<'_>> {
        (0..threads)
            .map(|core| {
                let mut ops = Vec::new();
                for _ in 0..self.updates_per_core {
                    ops.push(ThreadOp::CommutativeUpdate {
                        addr: COUNTER,
                        op: OP,
                        value: 1,
                    });
                    ops.push(ThreadOp::Compute(2));
                }
                ops.push(ThreadOp::Barrier);
                if core == 0 {
                    ops.push(ThreadOp::Load { addr: COUNTER });
                }
                ops.push(ThreadOp::Done);
                Box::new(ScriptedProgram::new(ops)) as BoxedProgram<'_>
            })
            .collect()
    }

    fn verify(&self, mem: &MemorySystem, threads: usize) -> Result<(), String> {
        let (got, want) = (mem.peek(COUNTER), (threads * self.updates_per_core) as u64);
        if got == want {
            Ok(())
        } else {
            Err(format!("counter is {got}, expected {want}: lost updates"))
        }
    }
}

fn main() {
    let cores = 16;
    let updates_per_core = 2_000;

    println!(
        "COUP quickstart: {cores} cores, {updates_per_core} additions each, one shared counter"
    );
    println!("(simulating the system of Table 1 at a reduced cache scale)\n");

    let cfg = SystemConfig::test_system(cores, ProtocolKind::Mesi);
    let (mesi, meusi) = compare_protocols(cfg, &SharedCounter { updates_per_core })
        .expect("no update may be lost under either protocol");

    println!("MESI  (atomic fetch-and-add): {:>12} cycles", mesi.cycles);
    println!("MEUSI (COUP commutative add): {:>12} cycles", meusi.cycles);
    println!();
    println!("speedup:               {:>6.2}x", meusi.speedup_over(&mesi));
    println!(
        "off-chip traffic:      {:>6.2}x less",
        mesi.traffic.offchip_bytes as f64 / meusi.traffic.offchip_bytes.max(1) as f64
    );
    println!(
        "avg mem access time:   {:>6.2}x lower",
        mesi.amat() / meusi.amat()
    );
    println!();
    println!(
        "MESI coherence events:  {} invalidating grants, {} owner interventions",
        mesi.protocol.invalidating_grants, mesi.protocol.owner_interventions
    );
    println!(
        "MEUSI coherence events: {} update-only grants, {} full reductions, {} local buffered updates",
        meusi.protocol.update_only_grants,
        meusi.protocol.full_reductions,
        meusi.protocol.local_commutative_hits
    );
}
