//! Crash-input minimization (libFuzzer's `-minimize_crash`).
//!
//! Once the fuzzer finds a crashing input, the analyst wants the smallest
//! input with the same behaviour — both for debugging and because
//! TaintClass runs converge faster on small corpus entries. The minimizer
//! performs greedy chunked deletion (ddmin-style) followed by byte
//! normalization (replacing bytes with zero where the predicate still
//! holds).

use polar_ir::interp::{run, ExecError, ExecLimits};
use polar_ir::trace::NopTracer;
use polar_ir::Module;
use polar_runtime::{ObjectRuntime, RandomizeMode, RuntimeConfig};

/// Statistics from one minimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MinimizeStats {
    /// Predicate evaluations performed.
    pub execs: u64,
    /// Bytes removed from the input.
    pub bytes_removed: usize,
    /// Bytes normalized to zero.
    pub bytes_normalized: usize,
}

/// Minimize `input` while `predicate` keeps holding. The predicate
/// receives each candidate and must be deterministic.
pub fn minimize_with(
    mut input: Vec<u8>,
    mut predicate: impl FnMut(&[u8]) -> bool,
) -> (Vec<u8>, MinimizeStats) {
    let mut stats = MinimizeStats::default();
    let original_len = input.len();
    debug_assert!(predicate(&input), "input must satisfy the predicate initially");

    // Phase 1: chunked deletion with shrinking chunk sizes.
    let mut chunk = (input.len() / 2).max(1);
    while chunk >= 1 {
        let mut pos = 0;
        while pos < input.len() {
            let end = (pos + chunk).min(input.len());
            let mut candidate = Vec::with_capacity(input.len() - (end - pos));
            candidate.extend_from_slice(&input[..pos]);
            candidate.extend_from_slice(&input[end..]);
            stats.execs += 1;
            if !candidate.is_empty() && predicate(&candidate) {
                input = candidate;
                // Same position now holds the next chunk.
            } else {
                pos = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }

    // Phase 2: byte normalization.
    for i in 0..input.len() {
        if input[i] == 0 {
            continue;
        }
        let saved = input[i];
        input[i] = 0;
        stats.execs += 1;
        if !predicate(&input) {
            input[i] = saved;
        } else {
            stats.bytes_normalized += 1;
        }
    }

    stats.bytes_removed = original_len - input.len();
    (input, stats)
}

/// Minimize a crashing input for `module`: the predicate is "execution
/// ends with the same [`ExecError`] discriminant as the original run".
///
/// Returns `None` when the input does not crash in the first place.
pub fn minimize_crash(
    module: &Module,
    input: Vec<u8>,
    limits: ExecLimits,
) -> Option<(Vec<u8>, MinimizeStats)> {
    let original = crash_signature(module, &input, limits)?;
    Some(minimize_with(input, |candidate| {
        crash_signature(module, candidate, limits).as_ref() == Some(&original)
    }))
}

fn crash_signature(module: &Module, input: &[u8], limits: ExecLimits) -> Option<String> {
    let mut rt = ObjectRuntime::new(RandomizeMode::Native, RuntimeConfig::default());
    let report = run(module, &mut rt, input, limits, &mut NopTracer);
    match report.result {
        Ok(_) => None,
        // Hangs are not crashes; treat them as non-reproducing.
        Err(ExecError::StepLimit) | Err(ExecError::CallDepth) => None,
        Err(e) => Some(signature_of(&e)),
    }
}

fn signature_of(e: &ExecError) -> String {
    match e {
        ExecError::Abort(code) => format!("abort:{code}"),
        ExecError::DivByZero => "div0".to_owned(),
        ExecError::Fault(_) => "fault".to_owned(),
        ExecError::Detection(_) => "detection".to_owned(),
        ExecError::StepLimit | ExecError::CallDepth => "hang".to_owned(),
        ExecError::Invalid(_) => "invalid".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polar_ir::builder::ModuleBuilder;
    use polar_ir::CmpOp;

    /// Crashes iff the input contains the byte 0xBD anywhere after index 0
    /// AND starts with 'M'.
    fn picky_module() -> Module {
        let mut mb = ModuleBuilder::new("picky");
        let mut f = mb.function("main", 0);
        let bb = f.entry_block();
        let scan = f.block();
        let step = f.block();
        let boom = f.block();
        let safe = f.block();
        let zero = f.const_(bb, 0);
        let b0 = f.input_byte(bb, zero);
        let is_m = f.cmpi(bb, CmpOp::Eq, b0, b'M' as u64);
        let i = f.const_(bb, 1);
        f.br(bb, is_m, scan, safe);
        let len = f.input_len(scan);
        let more = f.cmp(scan, CmpOp::Lt, i, len);
        f.br(scan, more, step, safe);
        let b = f.input_byte(step, i);
        let hit = f.cmpi(step, CmpOp::Eq, b, 0xBD);
        let i2 = f.bini(step, polar_ir::BinOp::Add, i, 1);
        f.mov_to(step, i, i2);
        f.br(step, hit, boom, scan);
        f.abort(boom, 9);
        f.ret(boom, None);
        f.ret(safe, None);
        mb.finish_function(f);
        mb.build().unwrap()
    }

    #[test]
    fn minimizes_to_the_essential_bytes() {
        let module = picky_module();
        let mut input = vec![b'M'];
        input.extend([7u8; 40]);
        input.push(0xBD);
        input.extend([9u8; 20]);
        let (min, stats) =
            minimize_crash(&module, input, ExecLimits::default()).expect("crashes");
        assert_eq!(min.len(), 2, "minimal crash is `M` + 0xBD: {min:?}");
        assert_eq!(min[0], b'M');
        assert_eq!(min[1], 0xBD);
        assert!(stats.bytes_removed >= 58);
        assert!(stats.execs > 0);
    }

    #[test]
    fn non_crashing_inputs_are_rejected() {
        let module = picky_module();
        assert!(minimize_crash(&module, vec![1, 2, 3], ExecLimits::default()).is_none());
    }

    #[test]
    fn predicate_minimizer_normalizes_bytes() {
        // Predicate: byte at position 0 must be exactly 0x55; the rest is
        // irrelevant and should be removed or zeroed.
        let (min, stats) = minimize_with(vec![0x55, 1, 2, 3, 4], |c| c.first() == Some(&0x55));
        assert_eq!(min, vec![0x55]);
        assert_eq!(stats.bytes_removed, 4);
    }

    #[test]
    fn signature_distinguishes_crash_kinds() {
        assert_ne!(signature_of(&ExecError::DivByZero), signature_of(&ExecError::Abort(1)));
        assert_eq!(signature_of(&ExecError::Abort(1)), "abort:1");
    }
}
