package dist

import (
	"bytes"
	"strings"
	"testing"

	"flowzip/internal/cluster"
	"flowzip/internal/core"
	"flowzip/internal/trace"
)

// sharedShardBlob compresses one partition against a shared store and
// serializes it.
func sharedShardBlob(t testing.TB, tr *trace.Trace, opts core.Options, index, count int, s *cluster.SharedStore) []byte {
	t.Helper()
	r, err := core.CompressShardSource(trace.Batches(tr, 0), opts, index, count, s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeShardState(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardStateSharedRoundTrip pins the version-2 encoding of shared short
// flows: encode→decode→encode is a fixed point, the generation stamp
// survives, and the decoded set still merges to the serial bytes when
// handed the store.
func TestShardStateSharedRoundTrip(t *testing.T) {
	tr := webTrace(6, 400)
	opts := core.DefaultOptions()
	// Epoch size 1 makes every proposed vector immediately visible, so the
	// second shard's blob is guaranteed to contain shared-flagged flows.
	s := cluster.NewSharedStoreEpoch(1)
	const count = 2
	results := make([]*core.ShardResult, count)
	for index := 0; index < count; index++ {
		blob := sharedShardBlob(t, tr, opts, index, count, s)
		h, err := ReadShardHeader(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		if h.SharedGen != s.Gen() {
			t.Fatalf("shard %d header generation %016x, want %016x", index, h.SharedGen, s.Gen())
		}
		r, err := DecodeShardState(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("decode shard %d: %v", index, err)
		}
		if r.SharedGen != s.Gen() {
			t.Fatalf("shard %d decoded generation %016x, want %016x", index, r.SharedGen, s.Gen())
		}
		var again bytes.Buffer
		if err := EncodeShardState(&again, r); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, again.Bytes()) {
			t.Errorf("shard %d: re-encode is not a fixed point", index)
		}
		results[index] = r
	}
	sharedFlows := 0
	for _, r := range results {
		for i := range r.Flows {
			if r.Flows[i].Shared {
				sharedFlows++
			}
		}
	}
	if sharedFlows == 0 {
		t.Fatal("no shared-flagged flows crossed the wire; the round trip proves nothing")
	}

	serial, err := core.Compress(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := core.MergeShardResults(results, s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeArchive(t, serial), encodeArchive(t, merged)) {
		t.Error("decoded shared shards do not merge to the serial bytes")
	}
	// Without the store the same blobs must refuse to merge.
	if _, err := core.MergeShardResults(results, nil); err == nil {
		t.Error("shared blobs merged without the store")
	}
}

// TestCompressDistributedShared runs the full loopback pipeline with a
// shared store: TCP transport, concurrent workers, byte-identical output.
func TestCompressDistributedShared(t *testing.T) {
	tr := webTrace(8, 600)
	opts := core.DefaultOptions()
	serial, err := core.Compress(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeArchive(t, serial)
	newSource := func() (core.PacketSource, error) { return trace.Batches(tr, 512), nil }
	for _, shards := range []int{1, 2, 4, 8} {
		arch, err := compressDistributed(newSource, opts, shards, 3, cluster.NewSharedStore())
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		if !bytes.Equal(want, encodeArchive(t, arch)) {
			t.Errorf("shards %d: shared distributed archive differs from serial", shards)
		}
	}
}

// TestCoordinatorRejectsForeignSharedResult: a result stamped with a
// different store generation (or none) must be rejected at acceptance time
// with a message naming the mismatch.
func TestCoordinatorRejectsForeignSharedResult(t *testing.T) {
	tr := webTrace(10, 200)
	opts := core.DefaultOptions()
	runStore := cluster.NewSharedStore()
	coord, err := NewCoordinator(CoordinatorConfig{Shards: 1, Opts: opts, Shared: runStore})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// A worker that never got the store: its plain result must be rejected.
	r, err := core.CompressShardSource(trace.Batches(tr, 0), opts, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := EncodeShardState(&blob, r); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.acceptResult(0, blob.Bytes()); err == nil ||
		!strings.Contains(err.Error(), "shared template store") {
		t.Errorf("plain result accepted by a shared coordinator: %v", err)
	}

	// A worker that consulted a different store instance.
	foreign, err := core.CompressShardSource(trace.Batches(tr, 0), opts, 0, 1, cluster.NewSharedStoreEpoch(1))
	if err != nil {
		t.Fatal(err)
	}
	blob.Reset()
	if err := EncodeShardState(&blob, foreign); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.acceptResult(0, blob.Bytes()); err == nil ||
		!strings.Contains(err.Error(), "shared template store") {
		t.Errorf("foreign-store result accepted: %v", err)
	}
}

// TestEncodeSharedValidation covers the encoder's shared-flow argument
// checks and the decoder's rejection of shared flows without a generation.
func TestEncodeSharedValidation(t *testing.T) {
	var buf bytes.Buffer
	noGen := &core.ShardResult{
		Index: 0, Count: 1, Opts: core.DefaultOptions(),
		Flows: []core.ShardFlow{{Shared: true, Template: 0}},
	}
	if err := EncodeShardState(&buf, noGen); err == nil {
		t.Error("shared flow without a store generation encoded")
	}
	negative := &core.ShardResult{
		Index: 0, Count: 1, Opts: core.DefaultOptions(), SharedGen: 7,
		Flows: []core.ShardFlow{{Shared: true, Template: -1}},
	}
	if err := EncodeShardState(&buf, negative); err == nil {
		t.Error("negative shared template id encoded")
	}
}
