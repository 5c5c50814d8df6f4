package dist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/flow"
	"flowzip/internal/flowgen"
	"flowzip/internal/trace"
)

func webTrace(seed uint64, flows int) *trace.Trace {
	cfg := flowgen.DefaultWebConfig()
	cfg.Seed = seed
	cfg.Flows = flows
	cfg.Duration = 10 * time.Second
	return flowgen.Web(cfg)
}

// shardBlob compresses one partition and serializes it.
func shardBlob(t testing.TB, tr *trace.Trace, opts core.Options, index, count int) []byte {
	t.Helper()
	r, err := core.CompressShardSource(trace.Batches(tr, 0), opts, index, count, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeShardState(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardStateRoundTrip checks encode→decode→encode is a fixed point and
// the decoded result carries the source's identity.
func TestShardStateRoundTrip(t *testing.T) {
	tr := webTrace(1, 200)
	opts := core.DefaultOptions()
	opts.Seed = 42 // non-default, so the options serialization is exercised
	for _, count := range []int{1, 3} {
		for index := 0; index < count; index++ {
			blob := shardBlob(t, tr, opts, index, count)
			r, err := DecodeShardState(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("decode shard %d/%d: %v", index, count, err)
			}
			if r.Index != index || r.Count != count {
				t.Fatalf("decoded identity %d/%d, want %d/%d", r.Index, r.Count, index, count)
			}
			if r.Packets != int64(tr.Len()) {
				t.Errorf("decoded packets %d, want %d", r.Packets, tr.Len())
			}
			if r.Opts != opts {
				t.Errorf("decoded options %+v, want %+v", r.Opts, opts)
			}
			var again bytes.Buffer
			if err := EncodeShardState(&again, r); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, again.Bytes()) {
				t.Errorf("shard %d/%d: re-encode is not a fixed point (%d vs %d bytes)",
					index, count, len(blob), again.Len())
			}
		}
	}
}

// TestReadShardHeader checks the header-only read used by inspect.
func TestReadShardHeader(t *testing.T) {
	tr := webTrace(2, 150)
	opts := core.DefaultOptions()
	blob := shardBlob(t, tr, opts, 1, 4)
	h, err := ReadShardHeader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if h.Index != 1 || h.Count != 4 {
		t.Errorf("header identity %d/%d, want 1/4", h.Index, h.Count)
	}
	if h.Fingerprint != opts.Fingerprint() {
		t.Errorf("header fingerprint %016x, want %016x", h.Fingerprint, opts.Fingerprint())
	}
	if h.Packets != int64(tr.Len()) {
		t.Errorf("header packets %d, want %d", h.Packets, tr.Len())
	}
	r, err := DecodeShardState(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if h.Flows != len(r.Flows) || h.Templates != len(r.Templates) {
		t.Errorf("header counts flows=%d templates=%d, payload has %d/%d",
			h.Flows, h.Templates, len(r.Flows), len(r.Templates))
	}
}

// TestDecodeShardStateTruncated feeds every proper prefix of a valid blob
// to the decoder: all must error, none may panic.
func TestDecodeShardStateTruncated(t *testing.T) {
	blob := shardBlob(t, webTrace(3, 40), core.DefaultOptions(), 0, 2)
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeShardState(bytes.NewReader(blob[:n])); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", n, len(blob))
		}
	}
	if _, err := ReadShardHeader(bytes.NewReader(blob[:3])); err == nil {
		t.Error("truncated header read without error")
	}
}

// TestDecodeShardStateCorrupt flips every byte of a valid blob in turn: the
// trailing CRC (or an earlier structural check) must reject each mutant.
func TestDecodeShardStateCorrupt(t *testing.T) {
	blob := shardBlob(t, webTrace(4, 40), core.DefaultOptions(), 1, 2)
	mutant := make([]byte, len(blob))
	for i := range blob {
		copy(mutant, blob)
		mutant[i] ^= 0xFF
		if _, err := DecodeShardState(bytes.NewReader(mutant)); err == nil {
			t.Fatalf("corruption at byte %d/%d decoded without error", i, len(blob))
		}
	}
}

// TestDecodeShardStateBadMagicVersion covers the explicit header rejections
// with their messages.
func TestDecodeShardStateBadMagicVersion(t *testing.T) {
	blob := shardBlob(t, webTrace(5, 30), core.DefaultOptions(), 0, 1)

	notShard := append([]byte("FZT1"), blob[4:]...)
	if _, err := DecodeShardState(bytes.NewReader(notShard)); err == nil {
		t.Error("archive magic accepted as shard state")
	}

	future := append([]byte(nil), blob...)
	future[4] = Version + 1
	_, err := DecodeShardState(bytes.NewReader(future))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: error %v, want a version message", err)
	}

	// Header layout through the partition seed is fixed one-byte varints
	// for small indices: magic(4) version(1) hdrLen(1) index(1) count(1)
	// seed(1). A wrong seed must be named in the error, before the CRC
	// check fires.
	seeded := append([]byte(nil), blob...)
	seeded[8] = 99
	_, err = DecodeShardState(bytes.NewReader(seeded))
	if err == nil || !strings.Contains(err.Error(), "partition") {
		t.Errorf("foreign partition seed: error %v, want a partition-seed message", err)
	}

	// Bytes 9..16 are the options fingerprint; a mismatch against the
	// serialized options must be called out.
	fp := append([]byte(nil), blob...)
	fp[9] ^= 0xFF
	_, err = DecodeShardState(bytes.NewReader(fp))
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("fingerprint mismatch: error %v, want a fingerprint message", err)
	}
}

// craftShardBlob builds a structurally valid blob (correct magic, header,
// CRC) with the given header counts and empty template/flow sections —
// the shape a malicious worker would send to drive huge allocations.
func craftShardBlob(flowCount, tplCount uint64) []byte {
	opts := core.DefaultOptions()
	var hdr uvarintWriter
	hdr.uvarint(0) // index
	hdr.uvarint(1) // count
	hdr.uvarint(flow.PartitionSeed)
	hdr.u64le(opts.Fingerprint())
	hdr.uvarint(0) // packets
	hdr.uvarint(flowCount)
	hdr.uvarint(tplCount)
	hdr.encodeOptions(opts)
	hdr.u64le(0) // no shared store
	var out uvarintWriter
	out.buf.WriteString(Magic)
	out.buf.WriteByte(Version)
	for _, s := range [][]byte{hdr.buf.Bytes(), nil, nil} {
		out.uvarint(uint64(len(s)))
		out.buf.Write(s)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(out.buf.Bytes()))
	out.buf.Write(sum[:])
	return out.buf.Bytes()
}

// TestDecodeShardStateInflatedCounts pins the allocation bound: header
// counts far beyond the actual section sizes must be rejected before any
// count-sized allocation happens, CRC or no CRC.
func TestDecodeShardStateInflatedCounts(t *testing.T) {
	if _, err := DecodeShardState(bytes.NewReader(craftShardBlob(0, 0))); err != nil {
		t.Fatalf("empty crafted blob rejected: %v", err)
	}
	_, err := DecodeShardState(bytes.NewReader(craftShardBlob(0, 1<<27)))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("inflated template count: error %v, want a bound message", err)
	}
	_, err = DecodeShardState(bytes.NewReader(craftShardBlob(1<<27, 0)))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("inflated flow count: error %v, want a bound message", err)
	}
}

// TestEncodeShardStateValidation covers the encoder's argument checks.
func TestEncodeShardStateValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeShardState(&buf, &core.ShardResult{Index: 0, Count: 0}); err == nil {
		t.Error("zero shard count encoded")
	}
	if err := EncodeShardState(&buf, &core.ShardResult{Index: 2, Count: 2}); err == nil {
		t.Error("out-of-range shard index encoded")
	}
	bad := &core.ShardResult{
		Index: 0, Count: 1, Opts: core.DefaultOptions(),
		Flows: []core.ShardFlow{{Template: 3}},
	}
	if err := EncodeShardState(&buf, bad); err == nil {
		t.Error("dangling template reference encoded")
	}
	// The decoder reads len(F)-1 gaps with no count prefix; an encoder
	// that let this invariant slip would misalign the stream under a
	// valid CRC.
	badGaps := &core.ShardResult{
		Index: 0, Count: 1, Opts: core.DefaultOptions(),
		Flows: []core.ShardFlow{{Long: true, LongF: []byte{1, 2, 3}, Gaps: make([]time.Duration, 5)}},
	}
	if err := EncodeShardState(&buf, badGaps); err == nil {
		t.Error("long flow with mismatched gap count encoded")
	}
	empty := &core.ShardResult{
		Index: 0, Count: 1, Opts: core.DefaultOptions(),
		Flows: []core.ShardFlow{{Long: true}},
	}
	if err := EncodeShardState(&buf, empty); err == nil {
		t.Error("long flow with empty vector encoded")
	}
}
