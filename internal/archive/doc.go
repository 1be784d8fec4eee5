// Package archive is a sharded, disk-backed record store for sweep
// output — the persistence layer of the simulation stack. Where
// sweep.RunReduce reduces every point to an online summary, an archive
// keeps the full per-point output (parameter vector, sample rows,
// summary metrics, and optionally a trace.Trace) on disk for post-hoc
// analysis, the role ITAC trace files play in the paper's workflow.
//
// # Model
//
// An archive is a directory of shard files. Each shard is written by
// exactly one goroutine (writes are lock-free), carries a CRC per
// record and a footer index, and becomes visible under its final name
// only via an atomic rename on Close — a crashed run leaves only
// complete shards plus ignorable *.tmp litter, which is what makes
// sweeps resumable: sweep.RunArchive scans the completed shards and
// skips their points. Corruption (torn writes, bit rot) surfaces as
// ErrCorrupt from the readers, never as a panic.
//
// A RecordWriter implements the streaming sim.Sink contract, so solver
// rows flow straight from the integrator's reused buffers to disk; any
// model family behind the scenario registry archives through the same
// path. Floats are stored as their IEEE-754 bits, so a round trip is
// bitwise-exact and resumed archives compare bitwise-identical to
// uninterrupted ones (pinned by tests in internal/sweep).
//
// # Shard layout and format versioning
//
// The format is versioned by the header magic. Writers produce the
// current generation, POMARC2; readers (OpenShard, OpenDir) accept
// both generations, and one directory may mix them — resume, merge,
// and comparison all work across the mix.
//
// All integers are little-endian:
//
//	header   "POMARC2\n"  (legacy shards: "POMARC1\n")      (8 bytes)
//	record   [magic u32][payloadLen u32][payload][crc32c u32]  (×N)
//	footer   [magic u32][count u32][entries][crc32c u32]
//	entry    [index u64][offset u64][payloadLen u32]           (×count)
//	trailer  [footerOffset u64][magic u32]                   (12 bytes)
//
// A POMARC2 record payload leads with one codec byte (0 = raw,
// 1 = delta; see codec.go), making every record self-describing; a
// POMARC1 payload is the raw encoding with no codec byte. The raw
// payload encoding — also the canonical form ReadCanonical returns for
// any record, used for codec-independent equality:
//
//	index u64 · nParams u32 · params f64×nParams
//	width u32 · nSamples u32 · rows (t f64 · y f64×width)×nSamples
//	nMetrics u32 · metrics f64×nMetrics
//	traceLen u32 · trace bytes (trace.AppendBinary; 0 = none)
//
// The delta codec replaces only the rows section: row 0 is raw, later
// values are uvarint-packed XORs against a second-order per-column
// prediction (see the codec.go package comment for the design and
// PERFORMANCE.md "Archive compression" for measured ratios).
//
// The row section sits in the middle so a sink can stream solver rows
// straight into the shard: dimensions are known at Sink.Begin time,
// metrics and trace only after the run, and just the payload length is
// patched in afterwards. PERFORMANCE.md ("Disk-backed archive sinks")
// discusses the cost model; cmd/pomread inspects archives from the
// command line.
package archive
