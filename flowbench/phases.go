package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync/atomic"
	"time"

	"flowzip"
	"flowzip/internal/core"
	"flowzip/internal/dist"
	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/tsh"
)

// Minimum work per timed phase, whatever --seconds allows: the p99 query
// latency needs at least ten samples beyond it.
const (
	minReps     = 3
	minOpenReps = 2
	minQueries  = 1000
	warmQueries = 20
	queryChunk  = 32 // queries per unit of the query phase
	checkEvery  = 50 // every checkEvery-th query of each kind has its answer verified
	maxChecks   = 12 // per kind
	tenant      = "bench"
	queryWindow = 2 * time.Second
)

// bench is one run of one workload.
type bench struct {
	cfg  config
	w    workload
	opts flowzip.Options
	rec  *recorder // nil in the untraced run

	in        inputs
	tr        *flowzip.Trace // the trace file's packets: what every phase compresses
	ref       reference
	archPath  string
	outPath   string
	tenantDir string

	attempted, failed int64

	decoded  []uint64 // digest of every measured DecompressParallel output, checked by the gate
	checks   []queryCheck
	sizes    core.SectionSizes
	pstats   flowzip.ParallelStats
	sessions []flowzip.SessionSummary

	phases  []*phase
	reader  *flowzip.Reader
	rfile   *os.File             // the file the query Reader reads
	cycle   []query              // one cycle of the query mix
	next    int                  // position in cycle of the next timed query
	queryMS map[string][]float64 // query latency by kind
	qStats  queryStats
	ackMS   []float64 // phase B: due time to covering ack
	lateMS  []float64 // phase B: send time minus due time
	pushS   []float64 // phase B: seconds in PushAsync, per session
	wire    wireCount
	client  clientState // the public client's credit state after phase A's last Send
	replay  replayResult
	vectors []flow.Vector // short-flow vectors in finalize order, for the store replay
}

// sample is one timed unit of work: its duration, the passes it made (one
// pass over the trace, or the queries of a batch) and the runtime activity
// (allocation, GC) inside it.
type sample struct {
	d      time.Duration
	passes int
	rt     runtimeSample
}

type stopwatch struct {
	rt runtimeSample
	t0 time.Time
}

func startWatch() stopwatch {
	rt := readRuntime()
	return stopwatch{rt: rt, t0: time.Now()}
}

func (w stopwatch) stop(passes int) sample {
	d := time.Since(w.t0)
	return sample{d: d, passes: passes, rt: readRuntime().sub(w.rt)}
}

// phase is one timed phase of a run. run performs one unit of its work —
// one full pass over the trace, or a batch of queries — and checks the
// output outside the timed part.
type phase struct {
	name    string
	share   float64 // of --seconds
	min     int     // passes (queries, for the query phase) needed in any case
	whole   int     // if set, the phase ends only after a multiple of this many passes
	packets int     // input packets per pass; 0 for the query phase
	warm    func() error
	run     func() (sample, error)

	passes int       // timed passes so far
	durs   []float64 // seconds per timed pass over the trace
	rss    []float64 // MiB, the process's RSS high-water during each unit
	rt     runtimeSample
	spent  time.Duration
}

// measure warms every phase up once, then interleaves their units until
// --seconds have passed and every phase has its minimum: the next unit
// always goes to the phase furthest behind its share of the time. Spreading
// each phase over the whole run keeps a slow stretch of the machine from
// landing on one metric alone. A failing unit is counted and skipped; a
// wrong output ends the run.
func (b *bench) measure(phases []*phase) error {
	for _, p := range phases {
		if p.warm == nil {
			continue
		}
		if err := p.warm(); err != nil {
			return fmt.Errorf("%s warm-up: %w", p.name, err)
		}
	}
	budget := time.Duration(b.cfg.seconds * float64(time.Second))
	start := time.Now()
	for {
		over := time.Since(start) >= budget
		var next *phase
		for _, p := range phases {
			if over && p.passes >= p.min && (p.whole == 0 || p.passes%p.whole == 0) {
				continue
			}
			if next == nil || p.spent.Seconds()/p.share < next.spent.Seconds()/next.share {
				next = p
			}
		}
		if next == nil {
			return nil
		}
		t0 := time.Now()
		// Every unit starts from a collected heap with its free memory
		// returned to the OS, as a fresh `flowzip` process would, so neither
		// a GC cycle nor the footprint left by the previous unit lands on
		// this one.
		debug.FreeOSMemory()
		rssReset := resetPeakRSS()
		s, err := next.run()
		next.spent += time.Since(t0)
		if errors.Is(err, errGate) {
			return err
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "flowbench: %s: %v\n", next.name, err)
			if b.failed > b.attempted/2+3 {
				return fmt.Errorf("%s: too many failures: %w", next.name, err)
			}
			continue
		}
		next.passes += s.passes
		next.rt = next.rt.add(s.rt)
		if mb, ok := peakRSSMB(); ok && rssReset {
			next.rss = append(next.rss, mb)
		}
		if next.packets > 0 {
			next.durs = append(next.durs, s.d.Seconds())
		}
	}
}

// counted wraps a unit of work so that it counts as one attempted call, and
// as failed when it errs without a wrong output.
func (b *bench) counted(fn func() (sample, error)) func() (sample, error) {
	return func() (sample, error) {
		b.attempted++
		s, err := fn()
		if err != nil && !errors.Is(err, errGate) {
			b.failed++
		}
		return s, err
	}
}

// warmOnce runs one untimed unit of fn.
func warmOnce(fn func() (sample, error)) func() error {
	return func() error {
		_, err := fn()
		return err
	}
}

// compressOnce is `flowzip compress -index`: TSH file to indexed archive file
// through the public pipeline API.
func (b *bench) compressOnce() (sample, error) {
	sp := b.rec.start(tidMain, "bench", "compress")
	w := startWatch()
	ls := b.rec.start(tidMain, "trace", "load")
	tr, err := flowzip.LoadTrace(b.in.tracePath)
	ls.end()
	if err != nil {
		sp.end()
		return sample{}, err
	}
	if !tr.IsSorted() {
		tr.Sort()
	}
	var ps flowzip.ParallelStats
	p, err := flowzip.New(b.opts, flowzip.Config{Index: indexed, Stats: &ps})
	if err != nil {
		sp.end()
		return sample{}, err
	}
	cs := b.rec.start(tidMain, "core", "pipeline")
	arch, err := p.CompressTrace(tr)
	cs.end()
	if err != nil {
		sp.end()
		return sample{}, err
	}
	f, err := os.Create(b.archPath)
	if err != nil {
		sp.end()
		return sample{}, err
	}
	es := b.rec.start(tidMain, "core", "encode")
	sizes, err := arch.Encode(f)
	es.end()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	s := w.stop(1)
	sp.end()
	if err != nil {
		return sample{}, err
	}
	b.sizes, b.pstats = sizes, ps
	got, err := os.ReadFile(b.archPath)
	if err != nil {
		return sample{}, err
	}
	return s, checkArchiveBytes(b.archPath, got, b.ref.encoded)
}

// decompressOnce is `flowzip decompress`: archive file to TSH file.
func (b *bench) decompressOnce() (sample, error) {
	sp := b.rec.start(tidMain, "bench", "decompress")
	w := startWatch()
	f, err := os.Open(b.archPath)
	if err != nil {
		sp.end()
		return sample{}, err
	}
	ds := b.rec.start(tidMain, "core", "decode")
	arch, err := flowzip.DecodeArchive(f)
	ds.end()
	f.Close()
	if err != nil {
		sp.end()
		return sample{}, err
	}
	xs := b.rec.start(tidMain, "core", "decompress")
	out, err := flowzip.DecompressParallel(arch, 0)
	xs.end()
	if err != nil {
		sp.end()
		return sample{}, err
	}
	ss := b.rec.start(tidMain, "trace", "save")
	err = out.SaveFile(b.outPath)
	ss.end()
	s := w.stop(1)
	sp.end()
	if err != nil {
		return sample{}, err
	}
	if err := checkPacketCount("decompress", out.Len(), b.ref.packets); err != nil {
		return sample{}, err
	}
	st, err := os.Stat(b.outPath)
	if err != nil {
		return sample{}, err
	}
	if want := int64(out.Len()) * tsh.RecordLen; st.Size() != want {
		return sample{}, gateErr("decompressed TSH file is %d bytes, want %d", st.Size(), want)
	}
	b.decoded = append(b.decoded, digest(out.Packets))
	return s, nil
}

// queryStats accumulates the reader's per-query I/O in the traced run.
type queryStats struct {
	openBytes                                            int64
	queries, bodyBytes, groups, flowsMatched, groupFlows int64
}

// query is one filter of the query mix and its kind.
type query struct {
	kind   string
	filter flowzip.FlowFilter
}

// queryCycle builds one cycle of the query mix: every distinct /24 of the
// archive's server addresses, plus a third as many 2 s time windows spread
// evenly over the span in which flows start, interleaved three prefixes to
// one window in a seeded order. The two kinds cost very differently (on
// bulk a window decodes long flows, a prefix a few flows); with an even mix
// the median would sit on the edge between them. The phase runs whole
// cycles: the tail is set by the few prefixes of the most popular servers,
// and a partial cycle, or random draws, would query those a different
// number of times in every run.
func queryCycle(seed uint64, addrs []pkt.IPv4, first, last time.Duration) []query {
	var prefixes []pkt.IPv4
	seen := map[pkt.IPv4]bool{}
	for _, a := range addrs {
		if p := a &^ 0xff; !seen[p] {
			seen[p] = true
			prefixes = append(prefixes, p)
		}
	}
	nw := max(1, (len(prefixes)+2)/3)
	span := max(0, last-first-queryWindow)
	starts := make([]time.Duration, nw)
	for i := range starts {
		starts[i] = first + span*time.Duration(i)/time.Duration(nw)
	}
	rng := seed ^ 0x5bd1e9955bd1e995
	shuffle(&rng, len(prefixes), func(i, j int) { prefixes[i], prefixes[j] = prefixes[j], prefixes[i] })
	shuffle(&rng, len(starts), func(i, j int) { starts[i], starts[j] = starts[j], starts[i] })
	out := make([]query, 0, len(prefixes)+nw)
	for len(prefixes) > 0 || len(starts) > 0 {
		for k := 0; k < 3 && len(prefixes) > 0; k++ {
			out = append(out, query{"prefix", flowzip.FlowFilter{Prefix: prefixes[0], PrefixLen: 24}})
			prefixes = prefixes[1:]
		}
		if len(starts) > 0 {
			out = append(out, query{"window", flowzip.FlowFilter{From: starts[0], To: starts[0] + queryWindow}})
			starts = starts[1:]
		}
	}
	return out
}

// shuffle is a Fisher-Yates shuffle driven by splitmix.
func shuffle(rng *uint64, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, int(splitmix(rng)%uint64(i+1)))
	}
}

func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// openReader opens the indexed archive for the query phase — one Reader
// serves every query of the run — and runs the untimed warm-up queries.
func (b *bench) openReader() error {
	f, err := os.Open(b.archPath)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	sp := b.rec.start(tidMain, "core", "reader_open")
	r, err := flowzip.OpenArchive(f, st.Size())
	sp.end()
	if err != nil {
		f.Close()
		return err
	}
	b.reader, b.rfile = r, f
	b.qStats.openBytes = r.Stats().OpenBytes
	// Windows cover the span in which flows start: long flows run on well
	// past the last arrival, and a window there selects nothing.
	recs := b.ref.arch.TimeSeq
	b.cycle = queryCycle(b.cfg.seed, b.ref.arch.Addresses, recs[0].FirstTS, recs[len(recs)-1].FirstTS)
	for i := 0; i < warmQueries; i++ {
		b.query(b.cycle[i%len(b.cycle)], false)
	}
	return nil
}

// minCycleQueries is the fewest queries in whole cycles of the query mix
// that reach minQueries.
func (b *bench) minCycleQueries() int {
	n := len(b.cycle)
	return (minQueries + n - 1) / n * n
}

// queryRound runs the next queryChunk queries of the cycle in the
// closed-loop query phase: one client, ExtractFlows back to back on the
// open Reader. A cycle takes seconds; cut into chunks, it is interleaved
// with the other phases like they are, and a slow stretch of the machine
// lands on a few chunks rather than on a whole cycle.
func (b *bench) queryRound() (sample, error) {
	qs := b.cycle[b.next:min(b.next+queryChunk, len(b.cycle))]
	w := startWatch()
	for _, q := range qs {
		b.query(q, true)
	}
	b.next = (b.next + len(qs)) % len(b.cycle)
	return w.stop(len(qs)), nil
}

// query runs one query; a timed one records its latency, the reader's I/O
// in a traced run, and every checkEvery-th answer's fingerprint for the
// gate.
func (b *bench) query(qu query, timed bool) {
	r := b.reader
	kind, q := qu.kind, qu.filter
	b.attempted++
	var before flowzip.ReaderStats
	if b.rec != nil {
		before = r.Stats()
	}
	sp := b.rec.start(tidMain, "core", "query")
	t0 := time.Now()
	res, err := r.ExtractFlows(q)
	lat := time.Since(t0)
	sp.end()
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "flowbench: query %+v: %v\n", q, err)
		return
	}
	if !timed {
		return
	}
	b.queryMS[kind] = append(b.queryMS[kind], lat.Seconds()*1e3)
	if b.rec != nil {
		after := r.Stats()
		is := r.IndexStats()
		s := &b.qStats
		s.queries++
		s.bodyBytes += after.BodyBytesRead - before.BodyBytesRead
		ng := int64(after.GroupsDecoded - before.GroupsDecoded)
		s.groups += ng
		s.flowsMatched += int64(after.FlowsMatched - before.FlowsMatched)
		s.groupFlows += min(ng*int64(is.GroupSize), int64(is.Flows))
	}
	if n := len(b.queryMS[kind]); n%checkEvery == 1 && b.checked(kind) < maxChecks {
		b.checks = append(b.checks, queryCheck{kind: kind, filter: q, packets: res.Len(), digest: digest(res.Packets)})
	}
}

// checked is how many answers of the given kind are kept for the gate.
func (b *bench) checked(kind string) int {
	n := 0
	for _, c := range b.checks {
		if c.kind == kind {
			n++
		}
	}
	return n
}

// batches cuts the trace into ingest batches.
func (b *bench) batches() [][]flowzip.Packet {
	var out [][]flowzip.Packet
	pk, n := b.tr.Packets, ingestBatch
	for off := 0; off < len(pk); off += n {
		out = append(out, pk[off:min(off+n, len(pk))])
	}
	return out
}

// clientState is the public client's credit window and cumulative ack
// watermark after a session's last Send.
type clientState struct {
	window      int
	sent, acked int64
}

// ingestClosed is phase A: one ingest session through the public client,
// sending as fast as the daemon's credits allow, timed from the first Send
// to Close returning the summary.
func (b *bench) ingestClosed() (sample, error) {
	c, err := flowzip.DialDaemon(b.in.daemon.Addr().String(), tenant, b.opts, flowzip.NetConfig{})
	if err != nil {
		return sample{}, err
	}
	batches := b.batches()
	sp := b.rec.start(tidMain, "bench", "ingest_a")
	w := startWatch()
	for _, batch := range batches {
		ss := b.rec.start(tidMain, "server", "send")
		err := c.Send(batch)
		ss.end()
		if err != nil {
			sp.end()
			c.Abort()
			return sample{}, err
		}
	}
	acked, _ := c.Acked()
	b.client = clientState{window: c.Window(), sent: int64(len(batches)), acked: acked}
	cs := b.rec.start(tidMain, "server", "close")
	sum, err := c.Close()
	cs.end()
	s := w.stop(1)
	sp.end()
	if err != nil {
		return sample{}, err
	}
	b.sessions = append(b.sessions, sum)
	return s, checkSegment(b.tenantDir, c.SessionID(), sum, int64(b.tr.Len()), b.ref.encoded)
}

// countingConn counts the bytes the client writes to the daemon.
type countingConn struct {
	net.Conn
	written atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

type wireCount struct{ bytes, packets int64 }

// openSession dials the daemon and opens a session on the raw wire
// protocol, which exposes each cumulative ack.
func (b *bench) openSession() (*dist.SessionConn, *countingConn, uint64, int, error) {
	conn, err := net.Dial("tcp", b.in.daemon.Addr().String())
	if err != nil {
		return nil, nil, 0, 0, err
	}
	cc := &countingConn{Conn: conn}
	sc := dist.NewSessionConn(cc, dist.NetConfig{})
	id, window, err := sc.Open(tenant, b.opts)
	if err != nil {
		sc.Close()
		return nil, nil, 0, 0, err
	}
	return sc, cc, id, window, nil
}

// ingestOpen is phase B: one session fed at the fixed packet rate. Batch i is due at start + i·batch/rate whatever the daemon does; its
// ack latency runs from that due time to the cumulative ack covering it, so
// a stall also charges the batches queued behind it.
func (b *bench) ingestOpen() (sample, error) {
	sc, cc, id, window, err := b.openSession()
	if err != nil {
		return sample{}, err
	}
	defer sc.Close()
	batches := b.batches()
	interval := time.Duration(float64(ingestBatch) / float64(openLoopPPS) * float64(time.Second))
	w := startWatch()
	start := w.t0.Add(time.Millisecond)
	due := make([]time.Time, len(batches))
	for i := range due {
		due[i] = start.Add(time.Duration(i) * interval)
	}
	late := make([]float64, len(batches))
	// credits is the session's credit window as a semaphore: the sender
	// takes one per batch, the ack reader returns one per acked batch.
	credits := make(chan struct{}, window)
	stop := make(chan struct{})
	sendErr := make(chan error, 1)
	var push time.Duration // read after sendErr
	go func() {
		sendErr <- func() error {
			for i, batch := range batches {
				time.Sleep(time.Until(due[i]))
				select {
				case credits <- struct{}{}:
				case <-stop:
					return nil
				}
				late[i] = time.Since(due[i]).Seconds() * 1e3
				ps := b.rec.start(tidSender, "dist", "push")
				err := sc.PushAsync(batch)
				push += ps.end()
				if err != nil {
					sc.Close() // unblocks the ack reader
					return err
				}
			}
			return nil
		}()
	}()
	sp := b.rec.start(tidMain, "bench", "ingest_b")
	ack := make([]float64, 0, len(batches))
	var acked int64
	var readErr error
	for acked < int64(len(batches)) {
		seq, _, drained, err := sc.ReadAck()
		now := time.Now()
		if err == nil && drained != nil {
			err = errors.New("session drained")
		}
		if err != nil {
			readErr = err
			break
		}
		for ; acked < seq; acked++ {
			ack = append(ack, now.Sub(due[acked]).Seconds()*1e3)
			<-credits
		}
	}
	if readErr != nil {
		close(stop)
		sc.Close()
	}
	if err := <-sendErr; err != nil {
		sp.end()
		return sample{}, err
	}
	if readErr != nil {
		sp.end()
		return sample{}, readErr
	}
	sum, err := sc.Finish()
	s := w.stop(1)
	sp.end()
	if err != nil {
		return sample{}, err
	}
	b.ackMS = append(b.ackMS, ack...)
	b.lateMS = append(b.lateMS, late...)
	b.pushS = append(b.pushS, push.Seconds())
	b.wire.bytes += cc.written.Load()
	b.wire.packets += int64(b.tr.Len())
	b.sessions = append(b.sessions, sum)
	return s, checkSegment(b.tenantDir, id, sum, int64(b.tr.Len()), b.ref.encoded)
}

// tenantPath is where the daemon writes the benchmark tenant's segments.
func (b *bench) tenantPath() string { return filepath.Join(b.in.daemonDir, tenant) }
