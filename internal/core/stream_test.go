package core

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"flowzip/internal/flowgen"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// sliceSource yields pre-cut batches, then an optional terminal error
// (io.EOF when err is nil).
type sliceSource struct {
	batches [][]pkt.Packet
	err     error
}

func (s *sliceSource) Next() ([]pkt.Packet, error) {
	if len(s.batches) == 0 {
		if s.err != nil {
			return nil, s.err
		}
		return nil, io.EOF
	}
	b := s.batches[0]
	s.batches = s.batches[1:]
	return b, nil
}

// chunked cuts a trace into batches of the given size.
func chunked(tr *trace.Trace, size int) *sliceSource {
	s := &sliceSource{}
	for lo := 0; lo < len(tr.Packets); lo += size {
		hi := lo + size
		if hi > len(tr.Packets) {
			hi = len(tr.Packets)
		}
		s.batches = append(s.batches, tr.Packets[lo:hi])
	}
	return s
}

func streamTestTrace(t testing.TB, flows int) *trace.Trace {
	t.Helper()
	cfg := flowgen.DefaultWebConfig()
	cfg.Seed = 7
	cfg.Flows = flows
	cfg.Duration = 5 * time.Second
	return flowgen.Web(cfg)
}

func encodeArchive(t *testing.T, a *Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCompressStreamEmptySource(t *testing.T) {
	arch, err := CompressStream(&sliceSource{}, DefaultOptions(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Packets() != 0 || arch.Flows() != 0 {
		t.Fatalf("empty stream: %d packets, %d flows", arch.Packets(), arch.Flows())
	}
	serial, err := Compress(trace.New("empty"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeArchive(t, arch), encodeArchive(t, serial)) {
		t.Error("empty stream archive differs from serial empty archive")
	}
}

func TestCompressStreamSingleBatch(t *testing.T) {
	tr := streamTestTrace(t, 300)
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// One batch holding the whole trace, plus interleaved empty batches
	// (sources are allowed to yield).
	src := &sliceSource{batches: [][]pkt.Packet{nil, tr.Packets, {}}}
	arch, err := CompressStream(src, DefaultOptions(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeArchive(t, arch), encodeArchive(t, serial)) {
		t.Error("single-batch stream archive differs from serial")
	}
}

func TestCompressStreamSourceError(t *testing.T) {
	tr := streamTestTrace(t, 300)
	before := runtime.NumGoroutine()
	sentinel := errors.New("disk on fire")
	for _, workers := range []int{1, 4} {
		src := chunked(tr, 128)
		src.batches = src.batches[:len(src.batches)/2]
		src.err = sentinel
		if _, err := CompressStream(src, DefaultOptions(), workers); !errors.Is(err, sentinel) {
			t.Fatalf("workers %d: error %v, want wrapped %v", workers, err, sentinel)
		}
	}
	// The shard workers must have exited: poll briefly for the goroutine
	// count to settle back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, now)
	}
}

func TestCompressStreamUnsorted(t *testing.T) {
	p := func(ts time.Duration) pkt.Packet {
		return pkt.Packet{Timestamp: ts, Proto: pkt.ProtoTCP, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80}
	}
	src := &sliceSource{batches: [][]pkt.Packet{{p(time.Second), p(time.Millisecond)}}}
	if _, err := CompressStream(src, DefaultOptions(), 2); err == nil {
		t.Fatal("out-of-order stream compressed without error")
	}
}

func TestCompressStreamInvalidOptions(t *testing.T) {
	opts := DefaultOptions()
	opts.ShortMax = 0
	if _, err := CompressStream(&sliceSource{}, opts, 2); err == nil {
		t.Fatal("invalid options accepted")
	}
}

// TestCompressStreamResidencyBounded is the bounded-memory acceptance
// property: the packets resident in the shard channels never exceed the
// configured window, however long the stream is.
func TestCompressStreamResidencyBounded(t *testing.T) {
	tr := streamTestTrace(t, 1500)
	const maxResident = 512
	var peak atomic.Int64
	cfg := StreamConfig{Workers: 4, MaxResident: maxResident, residentPeak: &peak}
	arch, err := CompressStreamConfig(chunked(tr, 100), DefaultOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Packets() != tr.Len() {
		t.Fatalf("packets %d, want %d", arch.Packets(), tr.Len())
	}
	if got := peak.Load(); got > maxResident {
		t.Errorf("resident peak %d exceeds window %d", got, maxResident)
	}
	if peak.Load() == 0 {
		t.Error("resident peak never recorded")
	}
}

// TestCompressStreamProgress checks the progress callback reports a
// monotone cumulative count ending at the stream length.
func TestCompressStreamProgress(t *testing.T) {
	tr := streamTestTrace(t, 200)
	var last int64
	calls := 0
	cfg := StreamConfig{Workers: 2, Progress: func(n int64) {
		if n < last {
			t.Errorf("progress went backwards: %d after %d", n, last)
		}
		last = n
		calls++
	}}
	if _, err := CompressStreamConfig(chunked(tr, 64), DefaultOptions(), cfg); err != nil {
		t.Fatal(err)
	}
	if last != int64(tr.Len()) {
		t.Errorf("final progress %d, want %d", last, tr.Len())
	}
	if calls < 2 {
		t.Errorf("progress called %d times, want at least one per batch", calls)
	}
}

// reusingSource serves a trace through one buffer that it scribbles over on
// every Next, the way pkt.BatchReader reuses its batch buffer. An engine that
// holds on to a batch past the following Next — instead of copying what it
// needs first — sees the garbage and produces a different archive.
type reusingSource struct {
	packets []pkt.Packet
	buf     []pkt.Packet
	off     int
	calls   uint32
}

func newReusingSource(tr *trace.Trace, batch int) *reusingSource {
	return &reusingSource{packets: tr.Packets, buf: make([]pkt.Packet, batch)}
}

func (s *reusingSource) Next() ([]pkt.Packet, error) {
	s.calls++
	for i := range s.buf {
		g := s.calls*2654435761 + uint32(i)
		s.buf[i] = pkt.Packet{
			Timestamp: time.Duration(g), Proto: pkt.ProtoTCP,
			SrcIP: pkt.IPv4(g), DstIP: pkt.IPv4(^g), SrcPort: uint16(g), DstPort: uint16(g >> 16),
			Flags: pkt.TCPFlags(g), PayloadLen: uint16(g >> 8),
		}
	}
	if s.off >= len(s.packets) {
		return nil, io.EOF
	}
	n := copy(s.buf, s.packets[s.off:])
	s.off += n
	return s.buf[:n], nil
}

// TestEngineCopiesReusedBatches pins the engine's batch-ownership contract:
// pooled chunks copy every packet before the next Next, and a chunk goes
// back to the pool only once its worker has drained it. A small residency
// window keeps chunks small, so they cycle through the pool many times per
// run.
func TestEngineCopiesReusedBatches(t *testing.T) {
	tr := webTrace(17, 300)
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := encodeArchive(t, serial)
	for _, batch := range []int{1, 64, 4096} {
		for _, workers := range []int{1, 2, 4} {
			p, err := NewPipeline(DefaultOptions(), PipelineConfig{Workers: workers, MaxResident: 1024})
			if err != nil {
				t.Fatal(err)
			}
			arch, err := p.Compress(newReusingSource(tr, batch))
			if err != nil {
				t.Fatalf("batch %d workers %d: %v", batch, workers, err)
			}
			if !bytes.Equal(encodeArchive(t, arch), want) {
				t.Errorf("batch %d workers %d: archive differs from serial", batch, workers)
			}
		}
		for _, count := range []int{1, 2, 4} {
			results := make([]*ShardResult, count)
			for i := range results {
				if results[i], err = CompressShardSource(newReusingSource(tr, batch), DefaultOptions(), i, count, nil); err != nil {
					t.Fatalf("batch %d shard %d/%d: %v", batch, i, count, err)
				}
			}
			arch, err := MergeShardResults(results, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeArchive(t, arch), want) {
				t.Errorf("batch %d shards %d: merged archive differs from serial", batch, count)
			}
		}
	}
}
