//! Property tests of the chunking math and the parallel/serial equivalence
//! guarantee, using the in-repo `lttf-testkit` harness.

use crate::{chunk_bounds, chunk_count, par_chunks_mut, Overrides};
use lttf_testkit::prop;
use lttf_testkit::{prop_assert, prop_assert_eq, properties};

properties! {
    cases = 64;

    /// Chunks tile [0, len) exactly: contiguous, disjoint, in order.
    fn chunks_tile_the_range(len in prop::usizes(0..200), chunk_len in prop::usizes(1..40)) {
        let n = chunk_count(len, chunk_len);
        prop_assert_eq!(n, len.div_ceil(chunk_len));
        let mut cursor = 0usize;
        for i in 0..n {
            let (s, e) = chunk_bounds(len, chunk_len, i);
            prop_assert_eq!(s, cursor);
            prop_assert!(e > s, "chunks are never empty");
            prop_assert!(e - s <= chunk_len);
            cursor = e;
        }
        prop_assert_eq!(cursor, len);
    }

    /// Requesting more chunks than elements (chunk_len = 1 on short data,
    /// or chunk_len > len) stays well-formed.
    fn degenerate_chunk_sizes(len in prop::usizes(0..8)) {
        // chunk_len far above len → one chunk (or zero for empty input)
        let n = chunk_count(len, 1000);
        prop_assert_eq!(n, usize::from(len > 0));
        // chunk_len 1 → one chunk per element
        prop_assert_eq!(chunk_count(len, 1), len);
    }

    /// Parallel execution is bit-identical to the serial reference for
    /// arbitrary sizes, chunk lengths, and thread counts — including sizes
    /// below any parallel threshold and empty input.
    fn parallel_matches_serial(
        len in prop::usizes(0..300),
        chunk_len in prop::usizes(1..50),
        threads in prop::usizes(1..6)
    ) {
        let src: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
        let fill = |ci: usize, chunk: &mut [f32], src: &[f32]| {
            let base = ci * chunk_len;
            // a per-chunk running product: order-sensitive on purpose
            let mut acc = 1.0f32;
            for (j, slot) in chunk.iter_mut().enumerate() {
                acc = acc * 0.9 + src[base + j];
                *slot = acc;
            }
        };
        let run = |threads| {
            let _t = Overrides::threads(threads).scope();
            let mut out = vec![0.0f32; len];
            par_chunks_mut(&mut out, chunk_len, |ci, c| fill(ci, c, &src));
            out
        };
        let (serial, parallel) = (run(1), run(threads));
        for i in 0..len {
            prop_assert_eq!(serial[i].to_bits(), parallel[i].to_bits());
        }
    }

    /// Every chunk index is visited exactly once regardless of thread count.
    fn each_chunk_visited_once(
        len in prop::usizes(1..300),
        chunk_len in prop::usizes(1..50),
        threads in prop::usizes(2..6)
    ) {
        let mut visits = vec![0u32; len];
        let _t = Overrides::threads(threads).scope();
        par_chunks_mut(&mut visits, chunk_len, |_, chunk| {
            for v in chunk.iter_mut() {
                *v += 1;
            }
        });
        prop_assert!(visits.iter().all(|&v| v == 1));
    }
}
