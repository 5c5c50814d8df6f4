package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"flowzip/internal/cluster"
	"flowzip/internal/flow"
	"flowzip/internal/obs"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// PipelineConfig is the single knob set of the unified compression pipeline.
// It subsumes what used to be spread over the CompressParallel /
// CompressStream argument lists plus ParallelConfig and StreamConfig: one
// worker count, one residency window, one shared-template switch, one stats
// sink — interpreted the same way by every entry point.
type PipelineConfig struct {
	// Workers is the shard count, in [0, flow.MaxShards]; 0 selects
	// DefaultWorkers (one per CPU). NewPipeline rejects counts outside the
	// range — the legacy entry points clamp instead, documented there.
	Workers int
	// SharedTemplates shares one global template snapshot across the shard
	// workers (see cluster.SharedStore): workers consult it before their
	// private overflow store, shard state shrinks to overflow-only vectors,
	// and the merge replay re-clusters only overflow flows plus each shared
	// vector's first occurrence. Archive bytes are identical either way. It
	// engages from 2 workers up: one worker is the serial compressor, which
	// has no shards to share between.
	SharedTemplates bool
	// MaxResident bounds the packets resident inside the pipeline (shard
	// channels plus per-shard pending chunks); 0 means DefaultMaxResident.
	// The source's own current batch is not counted — a source reading N
	// packets per Next adds at most N on top, and CompressTrace's single
	// batch is the trace itself, which the pipeline never copies whole.
	// Very small values are rounded up to a few packets per worker so chunks
	// stay non-empty.
	MaxResident int
	// Index selects the v2 container for the produced archive: Encode
	// writes the footer index, enabling the OpenReader/ExtractFlows read
	// path. The archive body — and therefore Decode — is identical either
	// way.
	Index IndexConfig
	// Progress, when non-nil, is called synchronously from the reader loop
	// with the cumulative packet count — once per source batch, and once
	// more after the final packet.
	Progress func(packets int64)
	// Stats, when non-nil, receives the run's pipeline counters.
	Stats *ParallelStats
	// Metrics, when non-nil, receives cumulative pipeline counters into an
	// obs registry (see NewPipelineMetrics) and attaches the template-store
	// sampler to every store the run creates. Nil disables all of it at the
	// cost of one branch per observation site.
	Metrics *PipelineMetrics
	// Trace, when non-nil, records compress / shard-compress / finalize /
	// merge spans for each run. Nil disables tracing (nil-check-only
	// overhead). Like Progress and Stats, the tracer is a per-run sink:
	// share a Pipeline across concurrent runs only when it is nil.
	Trace *obs.Tracer

	// residentPeak, when set by tests, records the high-water mark of
	// packets resident in the shard channels.
	residentPeak *atomic.Int64
}

// Pipeline is the unified compression front end: codec options plus pipeline
// configuration validated once, then applied to any input shape. Compress
// streams a PacketSource through bounded shard channels; CompressTrace is
// the same run over a materialized trace handed over as one zero-copy batch.
// Both produce archives byte-for-byte identical to the serial Compress over
// the same packets — the pipeline only changes how the work is scheduled,
// never the bytes.
//
// A Pipeline is immutable after New and safe for concurrent use by multiple
// goroutines, except for the Progress/Stats/residentPeak sinks, which are
// per-run: share a Pipeline across concurrent runs only when those are nil.
type Pipeline struct {
	opts Options
	cfg  PipelineConfig
}

// NewPipeline validates opts and cfg and returns a ready Pipeline. Unlike the
// legacy entry points it is strict: a negative worker count, a count beyond
// flow.MaxShards, or a negative residency window is an error rather than a
// silent clamp.
func NewPipeline(opts Options, cfg PipelineConfig) (*Pipeline, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers < 0 || cfg.Workers > flow.MaxShards {
		return nil, fmt.Errorf("core: pipeline workers %d outside [0,%d]", cfg.Workers, flow.MaxShards)
	}
	if cfg.MaxResident < 0 {
		return nil, fmt.Errorf("core: pipeline max resident %d must be >= 0", cfg.MaxResident)
	}
	if err := cfg.Index.Validate(); err != nil {
		return nil, err
	}
	return &Pipeline{opts: opts, cfg: cfg}, nil
}

// stamp applies pipeline-level archive settings to a produced archive.
func (p *Pipeline) stamp(a *Archive, err error) (*Archive, error) {
	if err != nil {
		return nil, err
	}
	a.Index = p.cfg.Index
	return a, nil
}

// Options returns the codec options the pipeline compresses with.
func (p *Pipeline) Options() Options { return p.opts }

// Workers returns the effective shard count: the configured count, or
// DefaultWorkers when the configuration left it 0.
func (p *Pipeline) Workers() int {
	if p.cfg.Workers <= 0 {
		return DefaultWorkers()
	}
	return p.cfg.Workers
}

// Compress runs the packets of src through the pipeline without
// materializing the input. One reader loop (readSource) checks timestamp
// order, numbers every packet with its global index and partitions each
// batch by the 5-tuple hash (flow.Partition); the batches are copied into
// pooled chunks and fed to one shard worker per partition through bounded
// channels, so the reader blocks when a shard falls behind (backpressure)
// and resident packets stay bounded by MaxResident, not the stream length.
// The deterministic merge replay then makes the archive byte-for-byte
// identical to the serial Compress over the same packets. With one worker
// the reader feeds the serial Compressor directly: no partition, no copies,
// no merge.
//
// Packets must arrive in timestamp order; out-of-order input is an error (an
// in-memory trace can be Sorted first — a stream cannot).
func (p *Pipeline) Compress(src PacketSource) (*Archive, error) {
	return p.compress(src, 0)
}

// CompressTrace compresses a materialized trace: after a sortedness check it
// is Compress over the whole trace as one zero-copy batch. The archive is
// byte-for-byte identical to Compress(tr, opts).
func (p *Pipeline) CompressTrace(tr *trace.Trace) (*Archive, error) {
	if !tr.IsSorted() {
		return nil, notSortedError(tr)
	}
	return p.compress(trace.Batches(tr, tr.Len()), tr.Len())
}

// compress is the engine behind both entry points. sizeHint, when positive,
// is the known packet count, used only to presize the serial time sequence.
func (p *Pipeline) compress(src PacketSource, sizeHint int) (*Archive, error) {
	workers := p.Workers()
	stats := p.cfg.Stats
	if stats == nil && p.cfg.Metrics != nil {
		stats = new(ParallelStats)
	}
	if stats != nil {
		*stats = ParallelStats{Workers: workers}
	}
	tc := p.cfg.Trace
	runSpan := tc.Span(0, "compress").ArgInt("workers", int64(workers))
	defer runSpan.End()
	if tc != nil {
		tc.NameThread(0, "pipeline")
	}
	var (
		arch *Archive
		err  error
	)
	if workers == 1 {
		arch, err = p.compressOne(src, sizeHint)
	} else {
		arch, err = p.compressShards(src, workers, stats)
	}
	p.cfg.Metrics.addStats(stats)
	return p.stamp(arch, err)
}

// compressOne is the one-worker engine: the reader loop feeds the serial
// Compressor straight from the source batches.
func (p *Pipeline) compressOne(src PacketSource, sizeHint int) (*Archive, error) {
	c, err := NewCompressor(p.opts)
	if err != nil {
		return nil, err
	}
	c.Observe(p.cfg.Metrics.storeObserver())
	c.presize(sizeHint)
	_, err = readSource(src, 1, 1, p.cfg.Metrics, p.cfg.Progress, func(batch []pkt.Packet, _ []uint8, _ int64) {
		for i := range batch {
			c.Add(&batch[i])
		}
	})
	if err != nil {
		return nil, err
	}
	fsp := p.cfg.Trace.Span(0, "finalize")
	defer fsp.End()
	return c.Finish(), nil
}

// compressShards is the sharded engine: the reader loop copies every packet,
// tagged with its global index, into its shard's pending chunk; full chunks
// travel to the shard workers, which hand them back to chunkPool once
// drained.
func (p *Pipeline) compressShards(src PacketSource, workers int, stats *ParallelStats) (*Archive, error) {
	m := p.cfg.Metrics
	tc := p.cfg.Trace
	so := m.storeObserver()
	if tc != nil {
		for w := 0; w < workers; w++ {
			tc.NameThread(int64(w)+1, fmt.Sprintf("shard %d", w))
		}
	}
	maxResident := p.cfg.MaxResident
	if maxResident <= 0 {
		maxResident = DefaultMaxResident
	}
	// Packets in flight per shard: up to chanDepth chunks queued, one being
	// processed and one pending in the reader — (chanDepth+2) chunks.
	// Sizing chunks so workers*(chanDepth+2)*chunk <= maxResident keeps the
	// pipeline within the window.
	chunk := min(chunkCap, max(1, maxResident/(workers*(chanDepth+2))))

	var shared *cluster.SharedStore
	if p.cfg.SharedTemplates {
		shared = cluster.NewSharedStore()
	}
	chans := make([]chan []idxPacket, workers)
	scs := make([]*shardCompressor, workers)
	shards := make([]*shardState, workers)
	var resident atomic.Int64
	var wg sync.WaitGroup
	for w := range chans {
		chans[w] = make(chan []idxPacket, chanDepth)
		scs[w] = newShardCompressor(p.opts, uint16(w), shared).observe(so)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := scs[w]
			ssp := tc.Span(int64(w)+1, "shard-compress")
			for ck := range chans[w] {
				for i := range ck {
					sc.add(ck[i].idx, &ck[i].p)
				}
				now := resident.Add(-int64(len(ck)))
				if m != nil {
					m.Resident.Set(now)
				}
				releaseChunk(ck)
			}
			ssp.End()
			fsp := tc.Span(int64(w)+1, "finalize")
			shards[w] = sc.finish()
			fsp.End()
		}(w)
	}

	pend := make([][]idxPacket, workers)
	send := func(w int) {
		now := resident.Add(int64(len(pend[w])))
		m.observeResident(now)
		if p.cfg.residentPeak != nil {
			for {
				peak := p.cfg.residentPeak.Load()
				if now <= peak || p.cfg.residentPeak.CompareAndSwap(peak, now) {
					break
				}
			}
		}
		chans[w] <- pend[w]
		pend[w] = nil
	}
	packets, err := readSource(src, workers, workers, m, p.cfg.Progress, func(batch []pkt.Packet, ids []uint8, base int64) {
		for i := range batch {
			w := ids[i]
			if pend[w] == nil {
				pend[w] = leaseChunk()
			}
			pend[w] = append(pend[w], idxPacket{idx: base + int64(i), p: batch[i]})
			if len(pend[w]) >= chunk {
				send(int(w))
			}
		}
	})
	// Flush the partial chunks — or, when the source failed, just return
	// them — then close the channels: every worker drains and exits either
	// way, so no goroutine outlives a failed run.
	for w := range chans {
		switch {
		case pend[w] == nil:
		case err == nil:
			send(w)
		default:
			releaseChunk(pend[w])
		}
		close(chans[w])
	}
	wg.Wait()
	for _, sc := range scs {
		sc.release()
	}
	if err != nil {
		return nil, err
	}
	msp := tc.Span(0, "merge").ArgInt("packets", packets)
	defer msp.End()
	return mergeShards(packets, p.opts, shards, shared, stats, so)
}

// readSource is the one reader loop every compression mode runs: it pulls
// src to exhaustion, rejects out-of-order timestamps, numbers packets with
// their int64 global (timestamp-order) index and, for shards > 1, assigns
// each its 5-tuple partition, hashed across parallelism goroutines. add
// receives every non-empty batch with its partition ids (nil for one shard)
// and the global index of its first packet; it must be done with the batch
// when it returns, because sources may reuse their batch buffer. m (may be
// nil) observes each batch's partition-and-add latency; progress (may be
// nil) sees the cumulative count after every batch and once more at the
// end. It returns the stream length.
func readSource(src PacketSource, shards, parallelism int, m *PipelineMetrics, progress func(int64), add func(batch []pkt.Packet, ids []uint8, base int64)) (int64, error) {
	var (
		packets int64
		lastTS  time.Duration
	)
	for {
		batch, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return packets, fmt.Errorf("core: packet source: %w", err)
		}
		if len(batch) == 0 {
			continue
		}
		for i := range batch {
			if batch[i].Timestamp < lastTS {
				return packets, fmt.Errorf("core: packet source is not timestamp sorted at packet %d", packets+int64(i))
			}
			lastTS = batch[i].Timestamp
		}
		var start time.Time
		if m != nil {
			start = time.Now()
		}
		var ids []uint8
		if shards > 1 {
			ids = flow.Partition(batch, shards, parallelism)
		}
		add(batch, ids, packets)
		packets += int64(len(batch))
		m.observeBatch(start, len(batch))
		if progress != nil {
			progress(packets)
		}
	}
	if progress != nil {
		progress(packets)
	}
	return packets, nil
}

// clampWorkers maps a legacy worker count onto the strict PipelineConfig
// range: non-positive selects the default, counts beyond flow.MaxShards are
// clamped. The legacy Compress* entry points documented this forgiving
// behavior, so their wrappers normalize here before handing over to the
// strict NewPipeline.
func clampWorkers(workers int) int {
	if workers <= 0 {
		return 0
	}
	if workers > flow.MaxShards {
		return flow.MaxShards
	}
	return workers
}
