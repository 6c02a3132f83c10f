//! The wall-clock nodes read one clock. In the product part of every
//! `crates/cluster/src/*.rs` file — its lines before the first
//! `#[cfg(test)]` or `#![cfg(test)]`, the ledger's rule — time is read
//! through `Transport::now_ns` (or `Ports::now`, which calls it), never off
//! an `Instant`. An `Instant` is taken only where a run's epoch starts,
//! and those lines are named here. A seeded virtual carrier can drive the
//! nodes only while this holds.

use std::path::Path;

/// The one line that starts a run's epoch, and how often each file holds
/// it: `TcpCluster`'s loopback and external runs, `ThreadedCluster`'s run.
const EPOCH_START: &str = "let epoch = Instant::now();";
const EPOCH_STARTS: [(&str, usize); 2] = [("tcp.rs", 2), ("threaded.rs", 1)];

/// Every product line of `text` that reads the OS clock, as
/// `(line number, trimmed line)`.
fn clock_reads(text: &str) -> Vec<(usize, &str)> {
    text.lines()
        .enumerate()
        .take_while(|(_, line)| !line.contains("#[cfg(test)]") && !line.contains("#![cfg(test)]"))
        .filter(|(_, line)| line.contains("Instant::now") || line.contains(".elapsed()"))
        .map(|(n, line)| (n + 1, line.trim()))
        .collect()
}

#[test]
fn cluster_code_reads_time_only_through_the_transport() {
    // The scan itself: both forms are seen, and test code is not scanned.
    let sample =
        "let a = Instant::now();\nlet b = t.elapsed();\n#[cfg(test)]\nlet c = Instant::now();";
    assert_eq!(
        clock_reads(sample),
        [(1, "let a = Instant::now();"), (2, "let b = t.elapsed();")]
    );

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/cluster/src");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("crates/cluster/src")
        .map(|e| e.expect("a directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 10,
        "cx-cluster's sources not found in {dir:?}"
    );
    let (mut starts, mut stray) = (Vec::new(), Vec::new());
    for path in &files {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("a file name");
        let text = std::fs::read_to_string(path).expect("read a source file");
        let reads = clock_reads(&text);
        let epochs = reads
            .iter()
            .filter(|(_, line)| *line == EPOCH_START)
            .count();
        if epochs > 0 {
            starts.push((name, epochs));
        }
        let other = reads.iter().filter(|(_, line)| *line != EPOCH_START);
        stray.extend(other.map(|(n, line)| format!("{name}:{n}: {line}")));
    }
    assert!(
        stray.is_empty(),
        "cx-cluster reads the OS clock outside its epoch starts; read \
         `Transport::now_ns` instead:\n{}",
        stray.join("\n")
    );
    assert_eq!(starts, EPOCH_STARTS, "the epoch starts moved");
}
