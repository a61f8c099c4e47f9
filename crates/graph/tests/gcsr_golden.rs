//! Golden pins for the `.gcsr` v1 format and the content hash.
//!
//! Captured on commit `27de693` (before the ingest path was rebuilt for
//! speed): the 192 header bytes, the content hash and the six column
//! `(byte_len, checksum)` pairs `ingest_edge_list` produced for three graphs.
//! They must not move — the content hash is the `g<hash>-` prefix of every
//! trace-store entry recorded from an ingested graph, so a change here
//! silently orphans every warm store — and they must not depend on the
//! ingest thread count.

use grasp_graph::generators::{GraphGenerator, Rmat, Uniform};
use grasp_graph::ingest::{self, ColumnMeta};
use grasp_graph::EdgeList;

struct Golden {
    name: &'static str,
    header_hex: &'static str,
    content_hash: u64,
    columns: [(u64, u64); 6],
}

/// The clean-up `GraphGenerator::generate` and the `pipeline` harness apply.
fn cleaned(mut edges: EdgeList) -> EdgeList {
    edges.remove_self_loops();
    edges.sort_and_dedup();
    edges
}

/// Self-loops, weighted parallel edges in both list orders and two isolated
/// tail vertices: the explicit-weight columns and the parallel-edge order.
fn multigraph() -> EdgeList {
    let mut el = EdgeList::new(12);
    for (s, d, w) in [
        (3, 1, 5),
        (0, 1, 2),
        (3, 1, 4),
        (3, 1, 5),
        (9, 9, 1),
        (0, 1, 7),
        (2, 0, 3),
        (9, 9, 6),
        (1, 3, 2),
        (7, 3, 9),
        (3, 7, 1),
        (0, 1, 2),
        (4, 4, 4),
        (8, 0, 1),
        (5, 6, 2),
        (6, 5, 2),
        (3, 1, 1),
        (9, 0, 3),
    ] {
        el.push_weighted(s, d, w).unwrap();
    }
    el
}

const RMAT: Golden = Golden {
    name: "rmat",
    header_hex: "4752535043535200010000000100000000040000000000002a1a0000000000000100000000000000\
                 42105e9e582a6a7ced00000000000000ed0000000000000000000000002a1a40c83ac36ebb7ce83f\
                 73e94a7c8ed8e33f08200000000000009d3725db4c5b2580a86800000000000052d6718bf062a8ed\
                 0000000000000000000000000000000008200000000000002b38add245c733e7a868000000000000\
                 7b044c9367a38d5d00000000000000000000000000000000e275643895b7c537",
    content_hash: 0x7c6a2a589e5e1042,
    columns: [
        (8200, 0x80255b4cdb25379d),
        (26792, 0xeda862f08b71d652),
        (0, 0),
        (8200, 0xe733c745d2ad382b),
        (26792, 0x5d8da367934c047b),
        (0, 0),
    ],
};

const UNIFORM: Golden = Golden {
    name: "uniform",
    header_hex: "475253504353520001000000010000000004000000000000d01f0000000000000100000000000000\
                 8097a4de94b8d756120000000000000012000000000000000000000000d01f4070f34c332208c93f\
                 26196699bb27c53f08200000000000001241067d6bfd9b08407f000000000000ab86fad7c54e865b\
                 0000000000000000000000000000000008200000000000003db82332dba242a7407f000000000000\
                 96cc48b456e816e200000000000000000000000000000000151f159f9a902a77",
    content_hash: 0x56d7b894dea49780,
    columns: [
        (8200, 0x089bfd6b7d064112),
        (32576, 0x5b864ec5d7fa86ab),
        (0, 0),
        (8200, 0xa742a2db3223b83d),
        (32576, 0xe216e856b448cc96),
        (0, 0),
    ],
};

const MULTIGRAPH: Golden = Golden {
    name: "multigraph",
    header_hex: "475253504353520001000000000000000c0000000000000012000000000000000000000000000000\
                 41cf8775c6cf007d05000000000000000700000000000000000000000000f83f1cc7711cc771dc3f\
                 1cc7711cc771dc3f6800000000000000d4ef2a1323c67136480000000000000094697d501c8875d3\
                 48000000000000006f693ef4c3565375680000000000000014727512160e28f84800000000000000\
                 74925ca30d9cf54348000000000000000f790d2bb22413d64a9e45a5337cb0bf",
    content_hash: 0x7d00cfc67587cf41,
    columns: [
        (104, 0x3671c623132aefd4),
        (72, 0xd375881c507d6994),
        (72, 0x755356c3f43e696f),
        (104, 0xf8280e1612757214),
        (72, 0x43f59c0da35c9274),
        (72, 0xd61324b22b0d790f),
    ],
};

fn assert_matches_golden(edges: &EdgeList, golden: &Golden) {
    for threads in [1, 2, 3, 8] {
        let dir = std::env::temp_dir().join(format!(
            "grasp-gcsr-golden-{}-{threads}-{}",
            golden.name,
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let report = ingest::ingest_edge_list(edges, &dir, threads).unwrap();
        let header: String = std::fs::read(dir.join(ingest::HEADER_FILE))
            .unwrap()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            header, golden.header_hex,
            "{}: header bytes moved at {threads} thread(s)",
            golden.name
        );
        assert_eq!(report.content_hash, golden.content_hash, "{}", golden.name);
        let decoded = ingest::read_header(&dir).unwrap();
        assert_eq!(
            decoded.columns,
            golden
                .columns
                .map(|(byte_len, checksum)| ColumnMeta { byte_len, checksum }),
            "{}: column table moved at {threads} thread(s)",
            golden.name
        );
        // The stored checksums describe the files actually written.
        ingest::verify_disk_csr(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn rmat_header_and_hash_are_pinned() {
    assert_matches_golden(&cleaned(Rmat::new(10, 8).edge_list(7)), &RMAT);
}

#[test]
fn uniform_header_and_hash_are_pinned() {
    assert_matches_golden(&cleaned(Uniform::new(1 << 10, 8).edge_list(7)), &UNIFORM);
}

#[test]
fn weighted_multigraph_header_and_hash_are_pinned() {
    assert_matches_golden(&multigraph(), &MULTIGRAPH);
}
