package core

import (
	"sync"
	"sync/atomic"

	"flowzip/internal/pkt"
)

// PacketSource is a pull-based stream of packets in timestamp order — the
// seam that lets the compressor run over inputs larger than memory. A source
// yields packets in batches; the pipeline never needs the whole input
// resident at once.
//
// Implementations exist for in-memory traces (trace.Batches), capture files
// (pcap.Open, trace.OpenStream) and the synthetic generators
// (flowgen.NewWebSource).
type PacketSource interface {
	// Next returns the next batch of packets, which must be non-empty
	// unless the source chooses to return an empty batch to yield (both are
	// accepted). At end of stream Next returns io.EOF. The returned slice
	// is only valid until the following Next call, so sources may reuse
	// their batch buffer; any other error aborts the stream and packets
	// returned alongside it are discarded.
	Next() ([]pkt.Packet, error)
}

// DefaultMaxResident is the streaming pipeline's default bound on packets
// resident in the shard channels (about 14 MB of packet records).
const DefaultMaxResident = 1 << 18

// chanDepth is the per-shard channel capacity in chunks. Two chunks queued
// plus one in flight per worker keeps slow shards from stalling the reader
// while bounding residency.
const chanDepth = 2

// chunkCap is the packet capacity of one reader-to-shard chunk. Every chunk
// has it whatever the run's residency window (a small window only fills
// chunks partway), so pooled chunks are interchangeable between runs.
const chunkCap = 4096

// chunkPool recycles chunks across runs: a worker returns each chunk it has
// drained, so a steady-state run, and every run after the first, allocates
// no packet buffers. The pool holds array pointers, so Put boxes nothing.
var chunkPool = sync.Pool{New: func() any { return new([chunkCap]idxPacket) }}

// leaseChunk takes an empty chunk from the pool.
func leaseChunk() []idxPacket { return chunkPool.Get().(*[chunkCap]idxPacket)[:0] }

// releaseChunk returns a leased chunk to the pool; the caller must not touch
// it afterwards.
func releaseChunk(ck []idxPacket) { chunkPool.Put((*[chunkCap]idxPacket)(ck[:chunkCap])) }

// StreamConfig tunes CompressStreamConfig beyond the plain
// CompressStream(src, opts, workers) entry point.
type StreamConfig struct {
	// Workers is the shard count: 0 = one per CPU, 1 = the serial
	// compressor fed straight from the source, capped at flow.MaxShards.
	Workers int
	// MaxResident bounds the packets resident inside the pipeline (shard
	// channels plus per-shard pending chunks); 0 means DefaultMaxResident.
	// The source's own current batch is not counted — a source reading N
	// packets per Next adds at most N on top. Very small values are
	// rounded up to a few packets per worker so chunks stay non-empty.
	MaxResident int
	// Progress, when non-nil, is called synchronously from the reader loop
	// with the cumulative packet count — once per source batch, and once
	// more after the final packet.
	Progress func(packets int64)
	// SharedTemplates shares one global template snapshot across the shard
	// workers, exactly as in ParallelConfig: workers consult it before
	// their private overflow store and the merge replay re-clusters only
	// overflow flows plus each shared vector's first occurrence. Archive
	// bytes are identical either way. It engages from 2 workers up; one
	// worker is the serial compressor, which has no shards to share between.
	SharedTemplates bool
	// Stats, when non-nil, receives the run's pipeline counters.
	Stats *ParallelStats

	// residentPeak, when set by tests, records the high-water mark of
	// packets resident in the shard channels.
	residentPeak *atomic.Int64
}

// idxPacket is one packet tagged with its global timestamp-order index, the
// currency of the reader→shard channels.
type idxPacket struct {
	idx int64
	p   pkt.Packet
}

// CompressStream compresses the packets of src across workers shards without
// materializing the input: it is Pipeline.Compress, so resident packets stay
// bounded by the window (DefaultMaxResident here), not the stream length,
// and the archive is byte-for-byte identical to the serial Compress over the
// same packets.
//
// Packets must arrive in timestamp order; out-of-order input is an error
// (an in-memory trace can be Sorted first — a stream cannot).
func CompressStream(src PacketSource, opts Options, workers int) (*Archive, error) {
	return CompressStreamConfig(src, opts, StreamConfig{Workers: workers})
}

// CompressStreamConfig is CompressStream with an explicit residency window
// and progress reporting. It is a compatibility wrapper over the unified
// Pipeline entry point: the forgiving legacy semantics (negative or oversized
// worker counts and windows are normalized, never rejected) are applied here,
// then the run is Pipeline.Compress.
func CompressStreamConfig(src PacketSource, opts Options, cfg StreamConfig) (*Archive, error) {
	maxResident := cfg.MaxResident
	if maxResident < 0 {
		maxResident = 0
	}
	p, err := NewPipeline(opts, PipelineConfig{
		Workers:         clampWorkers(cfg.Workers),
		SharedTemplates: cfg.SharedTemplates,
		MaxResident:     maxResident,
		Progress:        cfg.Progress,
		Stats:           cfg.Stats,
		residentPeak:    cfg.residentPeak,
	})
	if err != nil {
		return nil, err
	}
	return p.Compress(src)
}
