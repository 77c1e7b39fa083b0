//! Records of each run's deterministic outputs, kept in the build
//! directory so that every later run of the same build with the same
//! seed and amount of work must reproduce them exactly: repeats of one
//! workload, and the sequential and sharded expander workloads, which
//! make the same calls.

use crate::pass::Pass;
use std::path::Path;

/// FNV-1a over the pass's engine rounds and every output record.
pub fn digest(pass: &Pass) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(pass.engine_rounds);
    for out in &pass.outputs {
        eat(out.len() as u64);
        out.iter().copied().for_each(&mut eat);
    }
    h
}

/// The record line a run with `digest` writes.
fn line(digest: u64, workload: &str) -> String {
    format!("{digest:016x} {workload}\n")
}

/// Compares `digest` with an earlier record, if any: `Err` describes a
/// mismatch.
pub fn verify(earlier: Option<&str>, digest: u64) -> Result<(), String> {
    let Some(earlier) = earlier else {
        return Ok(());
    };
    let mut fields = earlier.split_whitespace();
    let theirs = fields.next().unwrap_or("");
    if theirs == format!("{digest:016x}") {
        return Ok(());
    }
    Err(format!(
        "outputs (digest {digest:016x}) differ from an earlier run of {} with the same \
         seed and work (digest {theirs})",
        fields.next().unwrap_or("?")
    ))
}

/// Checks `pass` against the record `key` in `dir`, creating the record
/// when it does not exist yet.
pub fn check(dir: &Path, key: &str, workload: &str, pass: &Pass) -> Result<(), String> {
    let d = digest(pass);
    let path = dir.join(key);
    match std::fs::read_to_string(&path) {
        Ok(earlier) => verify(Some(&earlier), d),
        Err(_) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let tmp = dir.join(format!("{key}.{}.tmp", std::process::id()));
            std::fs::write(&tmp, line(d, workload))
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(rounds: u64, outputs: Vec<Vec<u64>>) -> Pass {
        Pass {
            engine_rounds: rounds,
            outputs,
            ..Pass::default()
        }
    }

    #[test]
    fn digest_sees_every_output_and_its_framing() {
        let a = digest(&pass(10, vec![vec![1, 2], vec![3]]));
        assert_eq!(a, digest(&pass(10, vec![vec![1, 2], vec![3]])));
        assert_ne!(a, digest(&pass(11, vec![vec![1, 2], vec![3]])));
        assert_ne!(a, digest(&pass(10, vec![vec![1], vec![2, 3]])));
        assert_ne!(a, digest(&pass(10, vec![vec![1, 2], vec![4]])));
    }

    #[test]
    fn verify_accepts_the_same_digest_only() {
        let earlier = line(0xabc, "expander_cold_walks");
        assert!(verify(None, 0xabc).is_ok());
        assert!(verify(Some(&earlier), 0xabc).is_ok());
        let err = verify(Some(&earlier), 0xabd).unwrap_err();
        assert!(err.contains("expander_cold_walks "), "{err}");
    }
}
