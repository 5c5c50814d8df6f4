// Package core implements the paper's contribution: the lossy packet-trace
// compressor based on TCP flow clustering (Sections 3 and 4).
//
// The compressor assembles bidirectional TCP flows, maps each to its
// characterization vector F_f (package flow), clusters short flows against a
// template store (package cluster) and emits four datasets:
//
//	short-flows-template — F vectors for flows of 2..ShortMax packets
//	long-flows-template  — F vectors plus inter-packet gaps for longer flows
//	address              — unique destination (server) IP addresses
//	time-seq             — per flow: first timestamp, S/L tag, template
//	                       index, RTT (short flows), address index
//
// Decompression regenerates a synthetic trace from the four datasets that
// preserves the statistical properties the paper validates: flag sequences,
// payload-size classes, acknowledgment-dependence timing and destination
// address locality.
//
// # One engine, one archive
//
// The codec has a reference path and one engine, and they produce
// byte-for-byte identical archives:
//
//   - Compress walks an in-memory trace serially — the reference
//     implementation of the paper's algorithm.
//   - Pipeline.Compress pulls batches from a PacketSource through one reader
//     loop that checks timestamp order, numbers packets and partitions them
//     by the 5-tuple hash (flow.Partition). From two workers up it copies
//     packets into pooled chunks, feeds one shard worker per partition
//     through bounded channels with backpressure (resident packets capped by
//     PipelineConfig.MaxResident) and deterministically merges the shard
//     results in serial finalize order; at one worker it feeds the serial
//     Compressor directly. Pipeline.CompressTrace, CompressParallel and
//     CompressStream are wrappers over it, and CompressShardSource runs the
//     same reader loop for one partition of a distributed run.
//
// The equivalence rests on two facts: every flow is assembled by exactly one
// shard (hash partitioning covers both directions of a conversation), and
// the merge replays flow finalization in the order the serial compressor
// would have used — closing-packet global index, then the flush ordering —
// against a template store with serial first-fit semantics. Template
// numbers, address numbers and the time-seq dataset therefore come out
// identical, whichever mode ran.
//
// PipelineConfig.SharedTemplates attaches a run-global cluster.SharedStore
// to the shard workers (from two workers up; one worker has no shards):
// exact short-flow vectors the published snapshot resolves are recorded as
// global ids instead of per-shard template copies, so shard state shrinks
// to overflow-only vectors and the merge re-clusters only overflow flows
// plus each shared vector's first occurrence. Snapshot hits are exact
// duplicates, so the archive bytes stay identical; ParallelStats reports
// the merge Match calls saved.
package core
