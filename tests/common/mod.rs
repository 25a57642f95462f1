//! Helpers shared by the golden-snapshot test targets.

use std::path::Path;

/// Compares `actual` with `tests/golden/<name>` byte for byte, or writes it
/// there when `UPDATE_GOLDEN` is set (bless only after reviewing the diff).
pub fn compare_or_bless(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1"));
    if expected != actual {
        let diff: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .filter(|(_, (e, a))| e != a)
            .take(12)
            .map(|(i, (e, a))| format!("line {}:\n  golden: {e}\n  actual: {a}", i + 1))
            .collect();
        panic!(
            "{name} diverged from the golden snapshot ({} vs {} lines).\n{}\n\
             If the change is intentional, re-bless by re-running this test \
             with `UPDATE_GOLDEN=1`.",
            expected.lines().count(),
            actual.lines().count(),
            diff.join("\n")
        );
    }
}

/// 64-bit FNV-1a over a byte stream: the digest the golden lines carry.
#[allow(dead_code)] // not every golden target digests
pub struct Fnv(pub u64);

#[allow(dead_code)]
impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
