//! §4.2: analysis of *valid* TP0 traces is linear in trace length.
//!
//! "Taking any sequence of transitions (T13 through T16) which consume
//! input when available … would eventually consume all inputs and verify
//! all outputs … there are an exponential number of solutions … finding
//! one of them requires no backtracking. Therefore, the search time would
//! be linear with respect to the length of the trace."
//!
//! Expected shape: TE ≈ trace length, RE ≈ 0, time linear — under every
//! checking mode, since any greedy interleaving works. The sweep runs to
//! 1250+1250 data so that the CPUT column, not only TE, shows the shape;
//! each CPUT is the best of three runs.
//!
//! ```sh
//! cargo run -p bench --bin tp0_valid_scaling --release
//! ```

use bench::{analyze_row, order_presets, print_table, Row};
use protocols::tp0;

fn main() {
    let analyzer = tp0::analyzer();
    for (order, label) in order_presets() {
        let rows: Vec<Row> = [5usize, 10, 20, 40, 80, 160, 250, 500, 750, 1000, 1250]
            .iter()
            .map(|&n| {
                let trace = tp0::valid_trace(n, n, n as u64);
                let run =
                    || analyze_row(&analyzer, &trace, order, format!("{}+{}", n, n), 50_000_000);
                let mut row = run();
                for _ in 0..2 {
                    row.cpu_seconds = row.cpu_seconds.min(run().cpu_seconds);
                }
                row
            })
            .collect();
        print_table(
            &format!(
                "TP0 valid traces, mode {} (expect linear TE and CPUT, tiny RE)",
                label
            ),
            "data",
            &rows,
        );
    }
}
