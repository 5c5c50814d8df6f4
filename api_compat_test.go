package flowzip_test

import (
	"bytes"
	"testing"
	"time"

	"flowzip"
)

// TestLegacyEntryPointsCompatible pins the pre-Pipeline public surface: every
// historical Compress* entry point must keep compiling with its original
// signature and produce bytes identical to the unified Pipeline. A failure
// here means the API redesign broke source compatibility.
func TestLegacyEntryPointsCompatible(t *testing.T) {
	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = 71
	cfg.Flows = 120
	cfg.Duration = 3 * time.Second
	tr := flowzip.GenerateWeb(cfg)
	opts := flowzip.DefaultOptions()

	encode := func(a *flowzip.Archive, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := a.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	want := encode(flowzip.Compress(tr, opts))

	// The unified entry point.
	p, err := flowzip.New(opts, flowzip.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := encode(p.CompressTrace(tr)); !bytes.Equal(got, want) {
		t.Error("Pipeline.CompressTrace diverges from serial Compress")
	}
	if got := encode(p.Compress(flowzip.TraceSource(tr, 0))); !bytes.Equal(got, want) {
		t.Error("Pipeline.Compress diverges from serial Compress")
	}

	// Every legacy wrapper, with its original signature.
	if got := encode(flowzip.CompressParallel(tr, opts, 3)); !bytes.Equal(got, want) {
		t.Error("CompressParallel diverges")
	}
	var stats flowzip.ParallelStats
	if got := encode(flowzip.CompressParallelConfig(tr, opts,
		flowzip.ParallelConfig{Workers: 3, SharedTemplates: true, Stats: &stats})); !bytes.Equal(got, want) {
		t.Error("CompressParallelConfig diverges")
	}
	if stats.Workers != 3 {
		t.Errorf("ParallelStats.Workers = %d, want 3", stats.Workers)
	}
	if got := encode(flowzip.CompressStream(flowzip.TraceSource(tr, 0), opts, 3)); !bytes.Equal(got, want) {
		t.Error("CompressStream diverges")
	}
	if got := encode(flowzip.CompressStreamConfig(flowzip.TraceSource(tr, 0), opts,
		flowzip.StreamConfig{Workers: 3, MaxResident: 4096})); !bytes.Equal(got, want) {
		t.Error("CompressStreamConfig diverges")
	}

	// The distributed seam: shard results merged locally, and the loopback
	// coordinator plus workers.
	shards := make([]*flowzip.ShardResult, 3)
	for i := range shards {
		r, err := flowzip.CompressShard(flowzip.TraceSource(tr, 0), opts, i, len(shards))
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = r
	}
	if got := encode(flowzip.MergeShards(shards)); !bytes.Equal(got, want) {
		t.Error("CompressShard + MergeShards diverges")
	}
	newSource := func() (flowzip.PacketSource, error) { return flowzip.TraceSource(tr, 0), nil }
	if got := encode(flowzip.CompressDistributed(newSource, opts, 3, 2)); !bytes.Equal(got, want) {
		t.Error("CompressDistributed diverges")
	}
}
