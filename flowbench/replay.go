package main

import (
	"errors"
	"time"

	"flowzip/internal/cluster"
	"flowzip/internal/flow"
)

// replayResult holds the traced run's layer replays: the benchmark calls one
// layer's public functions directly over the workload's packets, so that
// layer's time and counters are measured where its work happens.
type replayResult struct {
	flows      int64
	activePeak int
	shortPkts  int64

	vectors    int
	matched    int64
	created    int64
	templates  int
	arenaBytes int64

	blockedS []float64 // per wire session
}

// replayReps is how many times each replay runs; its times are medians.
const replayReps = 3

// replayFlows feeds the trace through a pooled flow table
// (flow.AcquireTable, Add, Flush), as the serial compressor does, and counts
// what it finalizes. Its flow count must equal the compressor's.
func (b *bench) replayFlows() error {
	r := &b.replay
	pk := b.tr.Packets
	r.flows, r.shortPkts, r.activePeak = 0, 0, 0
	var t *flow.Table
	t = flow.AcquireTable(func(f *flow.Flow) {
		r.flows++
		if f.Len() <= b.opts.ShortMax {
			r.shortPkts += int64(f.Len())
		}
		t.Recycle(f)
	})
	sp := b.rec.start(tidMain, "flow", "table")
	for i := range pk {
		t.Add(&pk[i])
		if n := t.ActiveCount(); n > r.activePeak {
			r.activePeak = n
		}
	}
	t.Flush()
	sp.end()
	t.Release()
	if r.flows != b.ref.stats.Flows {
		return gateErr("flow replay finalized %d flows, serial Compress %d", r.flows, b.ref.stats.Flows)
	}
	return nil
}

// shortVectors returns the characterization vectors of the trace's short
// flows in the order the compressor finalizes them (an untimed pass).
func (b *bench) shortVectors() []flow.Vector {
	var arena []byte
	var ends []int
	var t *flow.Table
	t = flow.AcquireTable(func(f *flow.Flow) {
		if f.Len() <= b.opts.ShortMax {
			arena = f.AppendVector(arena, b.opts.Weights)
			ends = append(ends, len(arena))
		}
		t.Recycle(f)
	})
	for i := range b.tr.Packets {
		t.Add(&b.tr.Packets[i])
	}
	t.Flush()
	t.Release()
	vs := make([]flow.Vector, len(ends))
	start := 0
	for i, end := range ends {
		vs[i] = flow.Vector(arena[start:end:end])
		start = end
	}
	return vs
}

// matchBatch is the batch size the compressor resolves short flows in.
const matchBatch = 64

// replayStore resolves the short-flow vectors through a memo-enabled
// template store in batches of 64 (Store.MatchBatch), as the serial
// compressor does. Its template count must equal the archive's.
func (b *bench) replayStore() error {
	r := &b.replay
	if b.vectors == nil {
		b.vectors = b.shortVectors()
	}
	vs := b.vectors
	pct := b.opts.LimitPct
	s := cluster.NewStoreLimit(func(n int) int { return flow.DistanceLimitPct(n, pct) }).EnableMemo()
	tpls := make([]*cluster.Template, matchBatch)
	created := make([]bool, matchBatch)
	sp := b.rec.start(tidMain, "cluster", "match")
	for off := 0; off < len(vs); off += matchBatch {
		batch := vs[off:min(off+matchBatch, len(vs))]
		s.MatchBatch(batch, tpls, created)
	}
	sp.end()
	st := s.Stats()
	r.vectors, r.matched, r.created = len(vs), st.Matched, st.Created
	r.templates, r.arenaBytes = s.Len(), s.ArenaBytes()
	if want := len(b.ref.arch.ShortTemplates); r.templates != want {
		return gateErr("store replay built %d templates, the archive holds %d", r.templates, want)
	}
	if int64(r.vectors) != b.ref.stats.ShortFlows {
		return gateErr("store replay matched %d short flows, serial Compress %d", r.vectors, b.ref.stats.ShortFlows)
	}
	return nil
}

// replayWire drives one closed-loop session over the raw wire protocol to
// time how long sending waits for credit, which is daemon backpressure. Its
// loop is server.Client.Send's: push the batch, then read cumulative acks
// while the window is full. The public client hides that wait inside Send,
// so the replay repeats the loop, and must end with the ack watermark the
// public client reported after phase A's last Send.
func (b *bench) replayWire() error {
	r := &b.replay
	sc, _, id, window, err := b.openSession()
	if err != nil {
		return err
	}
	defer sc.Close()
	var sent, acked int64
	var blocked time.Duration
	for _, batch := range b.batches() {
		if err := sc.PushAsync(batch); err != nil {
			return err
		}
		sent++
		for sent-acked >= int64(window) {
			bs := b.rec.start(tidMain, "server", "send_blocked")
			seq, _, drained, err := sc.ReadAck()
			blocked += bs.end()
			if err == nil && drained != nil {
				err = errors.New("session drained")
			}
			if err != nil {
				return err
			}
			acked = max(acked, seq)
		}
	}
	if got, want := (clientState{window: window, sent: sent, acked: acked}), b.client; got != want {
		return gateErr("wire replay ended with window %d, %d of %d batches acked; the public client with %d, %d of %d",
			got.window, got.acked, got.sent, want.window, want.acked, want.sent)
	}
	summary, err := sc.Finish()
	if err != nil {
		return err
	}
	r.blockedS = append(r.blockedS, blocked.Seconds())
	return checkSegment(b.tenantPath(), id, summary, int64(b.tr.Len()), b.ref.encoded)
}
