package dist

import (
	"bytes"
	"testing"

	"flowzip/internal/core"
	"flowzip/internal/trace"
)

// BenchmarkDistributedLoopback measures the full network pipeline — an
// in-process coordinator and 3 TCP workers over loopback — and reports the
// shard throughput the perf trajectory tracks (BENCH_dist.json in CI).
func BenchmarkDistributedLoopback(b *testing.B) {
	tr := webTrace(1, 800)
	const shards = 4
	src := func() (core.PacketSource, error) { return trace.Batches(tr, 0), nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arch, err := CompressDistributed(src, core.DefaultOptions(), shards, 3)
		if err != nil {
			b.Fatal(err)
		}
		if arch.Flows() == 0 {
			b.Fatal("empty archive")
		}
	}
	b.ReportMetric(float64(shards)*float64(b.N)/b.Elapsed().Seconds(), "shards/sec")
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
}

// BenchmarkMergeShardResults isolates the coordinator's merge replay from
// compression and transport.
func BenchmarkMergeShardResults(b *testing.B) {
	tr := webTrace(2, 1500)
	const shards = 8
	base := make([]*core.ShardResult, shards)
	for i := range base {
		r, err := core.CompressShardSource(trace.Batches(tr, 0), core.DefaultOptions(), i, shards, nil)
		if err != nil {
			b.Fatal(err)
		}
		base[i] = r
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MergeShardResults(base, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "merges/sec")
}

// BenchmarkShardStateCodec measures the wire format round trip for one
// shard of an 8-way partition.
func BenchmarkShardStateCodec(b *testing.B) {
	tr := webTrace(3, 1500)
	r, err := core.CompressShardSource(trace.Batches(tr, 0), core.DefaultOptions(), 0, 8, nil)
	if err != nil {
		b.Fatal(err)
	}
	var size int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := EncodeShardState(&buf, r); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
		if _, err := DecodeShardState(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size), "blob_bytes")
}
