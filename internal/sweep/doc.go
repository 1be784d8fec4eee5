// Package sweep runs embarrassingly parallel parameter studies across a
// worker pool — the batch-mode counterpart of the paper's interactive
// MATLAB exploration, generalized over every model family behind the
// scenario registry. Two batch modes trade memory for retention:
//
//   - RunReduce streams: point i's parameter comes from a generator,
//     each completed result is handed to a serialized reducer, and
//     nothing else is retained — live memory is O(workers), which is
//     what makes million-point studies with per-point streaming
//     summaries (sim.RunSummary) feasible. A small grid whose outputs
//     fit in memory collects them with a reducer that stores result i
//     at index i.
//   - RunArchive persists: every point's full output — sample rows
//     included — streams into a sharded disk archive (package archive).
//     Each worker owns one shard, so record writes are lock-free, and
//     the sweep is resumable: completed shards are scanned and their
//     points skipped, so re-running after a crash or cancel archives
//     exactly the missing work. Record payloads depend only on
//     (index, params, fn) — never on worker count or interruption
//     history — so a resumed archive is bitwise-identical
//     record-for-record to an uninterrupted one (pinned by tests for
//     the POM, Kuramoto, torus2d, linstab, and cluster families).
//
// Both modes share the same failure discipline: workers are
// panic-guarded (a panicking point becomes a per-point error instead of
// a deadlock), the first genuine error cancels outstanding work
// deterministically (cancellation echoes never win the race), and an
// externally canceled sweep returns plain ctx.Err(). Grid1 builds
// the usual 1-D parameter grid. PERFORMANCE.md quantifies the memory
// and throughput trade-offs of the modes.
package sweep
