//! The `gc_marking` bench programs measure what their names say: GOLF
//! reports nothing on the correct heap and the daisy chain, and exactly one
//! deadlock per leaked goroutine on the leaky heap.

use golf_bench::marking::{correct_program, daisy_chain, leaky_program, prepared_vm};
use golf_core::GcEngine;
use golf_runtime::ProgramSet;

fn golf_reports(p: ProgramSet) -> usize {
    let mut vm = prepared_vm(p);
    let mut gc = GcEngine::golf();
    gc.collect(&mut vm);
    gc.reports().len()
}

#[test]
fn golf_reports_match_each_program_shape() {
    for n in [64i64, 256, 1024] {
        assert_eq!(golf_reports(correct_program(n)), 0, "correct program leaks at n={n}");
        assert_eq!(golf_reports(daisy_chain(n)), 0, "daisy chain leaks at n={n}");
        assert_eq!(golf_reports(leaky_program(n)), n as usize, "leaky program at n={n}");
    }
}
