//! Walk the full substrate pipeline by hand: write a Mini program, compile
//! it at two optimization levels, inspect the generated assembly, assemble,
//! execute, and compare the value traces the predictors would see.
//!
//! Run with: `cargo run --release --example compiler_pipeline`

use dvp_asm::assemble;
use dvp_core::{Interned, StridePredictor};
use dvp_lang::{compile, OptLevel};
use dvp_sim::Machine;
use dvp_trace::TraceSummary;

const PROGRAM: &str = "
// Sum of squares with a strength-reducible multiply and a global.
int total = 0;
int square_scaled(int x) { return x * x * 8; }
int main() {
    for (int i = 1; i <= 200; i = i + 1) {
        total = total + square_scaled(i);
    }
    print_int(total);
    return 0;
}
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for opt in [OptLevel::O0, OptLevel::O2] {
        println!("=== {opt} ===");
        let asm = compile(PROGRAM, opt)?;
        let mul_count = asm.lines().filter(|l| l.trim().starts_with("mul")).count();
        let sll_count = asm.lines().filter(|l| l.trim().starts_with("sll")).count();
        println!("assembly: {} lines, {mul_count} mul, {sll_count} sll", asm.lines().count());

        let image = assemble(&asm)?;
        let mut machine = Machine::load(&image);
        let trace = machine.collect_trace(10_000_000)?;
        println!("output: {}", machine.output_string());
        println!("retired: {} instructions, {} predicted", machine.retired(), trace.len());

        let summary: TraceSummary = trace.iter().copied().collect();
        print!("mix:");
        for (cat, count) in summary.dynamic_mix().iter() {
            if count > 0 {
                print!(" {}={:.1}%", cat.code(), 100.0 * summary.dynamic_fraction(cat));
            }
        }
        println!();

        // The loop induction variable and accumulator are stride sequences:
        // a stride predictor should do very well on this program.
        let mut stride = Interned::new(StridePredictor::two_delta());
        let (correct, total) = dvp_core::run_trace(&mut stride, trace.iter());
        println!("s2 stride accuracy: {:.1}%\n", 100.0 * correct as f64 / total as f64);
    }
    Ok(())
}
