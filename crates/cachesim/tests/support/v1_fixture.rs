// Test support, `include!`d by every suite that needs a format-v1 input: this
// crate's `persist` unit tests and `tests/persist_properties.rs`,
// `grasp-core`'s `trace_store` tests and the workspace's
// `tests/trace_store.rs`. No writer emits v1 any more, but stores written
// before v2 hold it, so the readers (and `recompress`) keep a v1 input to
// run against. Expects `LlcTrace` and `Fnv64` in scope at the include site.

/// `trace` as a format-v1 file: the header and context block `write_to`
/// emits with the version set to 1 and the codec word back to reserved-zero,
/// then each chunk's raw column pages (`n × u64` addresses, `n × u32`
/// metadata words — 12 B/record), under a recomputed checksum.
fn v1_trace_bytes(trace: &LlcTrace) -> Vec<u8> {
    let mut v2 = Vec::new();
    trace.write_to(&mut v2).expect("in-memory write succeeds");
    let context_len = u32::from_le_bytes(v2[32..36].try_into().expect("4 bytes")) as usize;
    let mut bytes = v2[..48 + context_len].to_vec();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    bytes[36..48].fill(0); // the reserved word, and the checksum while hashing
    for chunk in trace.chunks() {
        let (addrs, meta) = chunk.columns();
        bytes.extend(addrs.iter().flat_map(|addr| addr.to_le_bytes()));
        bytes.extend(meta.iter().flat_map(|word| word.to_le_bytes()));
    }
    let checksum = Fnv64::digest(&bytes);
    bytes[40..48].copy_from_slice(&checksum.to_le_bytes());
    bytes
}
