// Command flowbench is flowzip's end-to-end benchmark. Each run takes one
// workload, generates its inputs from the seed, times the user-visible paths
// (trace file to indexed archive, archive to trace file, selective queries,
// live ingest into an in-process flowzipd), checks every output against the
// byte-identity contract, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// with the end-to-end metrics, or with --trace 1 the per-layer metrics of a
// traced run. Build and run it from the repository root with
//
//	bash flowbench/run.sh --workload web --seed 1 --seconds 20 --trace 0
//
// README.md in this directory describes the workloads and metrics.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"flowzip"
)

// setupReps is how many times a run sets up its inputs; setup_s is the
// median, and the last set-up's inputs are the ones measured.
const setupReps = 5

type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	scale    float64 // input size multiplier: 1, except in the tiny-scale tests
	dir      string
}

func main() {
	cfg := config{scale: 1}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: web or bulk")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds, split between the phases")
	traceFlag := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory for scratch files and results")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag))
	}
	if cfg.seconds <= 0 {
		fatal(errors.New("--seconds must be positive"))
	}
	cfg.traced = *traceFlag == 1
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := res.write(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flowbench:", err)
	os.Exit(1)
}

// run executes one benchmark run and returns its checked result.
func run(cfg config) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(cfg.dir, "work")
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	b := &bench{
		cfg:      cfg,
		w:        w,
		opts:     flowzip.DefaultOptions(),
		archPath: filepath.Join(work, "out.fz"),
		outPath:  filepath.Join(work, "out.tsh"),
		queryMS:  map[string][]float64{},
	}
	if cfg.traced {
		b.rec = newRecorder("flowbench " + w.name)
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		sp := b.rec.start(tidMain, "bench", "setup")
		t0 := time.Now()
		in, err := setUp(w, cfg.seed, cfg.scale, work, i)
		setups = append(setups, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			in.close()
			return nil, err
		}
		if i < setupReps-1 {
			in.close()
		} else {
			b.in = in
		}
	}
	defer b.in.close()
	b.tenantDir = b.tenantPath()

	// The canonical packets are the trace file's: every phase compresses
	// exactly what the file holds.
	if b.tr, err = flowzip.LoadTrace(b.in.tracePath); err != nil {
		return nil, err
	}
	if !b.tr.IsSorted() {
		b.tr.Sort()
	}
	if b.ref, err = serialReference(b.tr, b.opts); err != nil {
		return nil, err
	}

	n := b.tr.Len()
	compress := &phase{name: "compress", share: 0.25, min: minReps, packets: n, run: b.counted(b.compressOnce)}
	decompress := &phase{name: "decompress", share: 0.25, min: minReps, packets: n, run: b.counted(b.decompressOnce)}
	query := &phase{name: "query", share: 0.2, run: b.queryRound}
	ingestA := &phase{name: "ingest_a", share: 0.15, min: minReps, packets: n, run: b.counted(b.ingestClosed)}
	ingestB := &phase{name: "ingest_b", share: 0.15, min: minOpenReps, packets: n, run: b.counted(b.ingestOpen)}
	for _, p := range []*phase{compress, decompress, ingestA} {
		p.warm = warmOnce(p.run)
	}
	query.warm = func() error {
		if err := b.openReader(); err != nil {
			return err
		}
		query.min, query.whole = b.minCycleQueries(), len(b.cycle)
		return nil
	}
	b.phases = []*phase{compress, decompress, query, ingestA, ingestB}
	err = b.measure(b.phases)
	if b.reader != nil {
		b.reader.Close()
		b.rfile.Close()
	}
	if err != nil {
		return nil, err
	}
	rss, err := b.peakRSS()
	if err != nil {
		return nil, err
	}

	if cfg.traced {
		for i := 0; i < replayReps; i++ {
			for _, replay := range []func() error{b.replaySerial, b.replayFlows, b.replayStore, b.replayWire} {
				debug.FreeOSMemory()
				if err := replay(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := b.gate(); err != nil {
		return nil, err
	}
	return b.result(median(setups), rss)
}

// peakRSS is the memory a user needs for the heaviest operation: for each
// phase the median over its units of the process's RSS high-water during
// the unit, and the largest of those. Set-up's retained memory is resident
// throughout, so it counts in every unit. Where the kernel cannot reset the
// high-water mark, it is the process's high-water mark since start.
func (b *bench) peakRSS() (float64, error) {
	peak := 0.0
	for _, p := range b.phases {
		if len(p.rss) > 0 {
			peak = max(peak, median(p.rss))
		}
	}
	if peak > 0 {
		return peak, nil
	}
	mb, ok := peakRSSMB()
	if !ok {
		return 0, errors.New("cannot read the peak RSS from /proc/self/status")
	}
	return mb, nil
}

// gate checks what the timed phases could not check per call: the archive
// file decodes and re-encodes to itself, every measured parallel decode
// equals the serial one, and the sampled query answers equal filtering the
// full decode.
func (b *bench) gate() error {
	if err := checkArchiveFile(b.archPath, b.ref.encoded); err != nil {
		return err
	}
	sp := b.rec.start(tidMain, "core", "decompress_serial")
	full, err := flowzip.Decompress(b.ref.arch)
	sp.end()
	if err != nil {
		return err
	}
	want := digest(full.Packets)
	for i, got := range b.decoded {
		if got != want {
			return gateErr("DecompressParallel output %d differs from serial Decompress (digest %x, want %x)", i, got, want)
		}
	}
	for _, q := range b.cycle {
		if b.checked(q.kind) == 0 {
			return gateErr("no %s query answer was sampled for checking", q.kind)
		}
	}
	fd := newFullDecode(full.Packets)
	for _, q := range b.checks {
		if err := q.verify(fd); err != nil {
			return err
		}
	}
	return nil
}

// replaySerial times the serial Compressor (Add for every packet, then
// Finish) on the measured packets; its archive must be the reference.
func (b *bench) replaySerial() error {
	c, err := flowzip.NewCompressor(b.opts)
	if err != nil {
		return err
	}
	sp := b.rec.start(tidMain, "core", "serial")
	for i := range b.tr.Packets {
		c.Add(&b.tr.Packets[i])
	}
	a := c.Finish()
	sp.end()
	if st := c.Stats(); st.Packets != int64(b.tr.Len()) || st.Flows != b.ref.stats.Flows {
		return gateErr("serial replay saw %d packets and %d flows, want %d and %d",
			st.Packets, st.Flows, b.tr.Len(), b.ref.stats.Flows)
	}
	a.Index = indexed
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		return err
	}
	return checkArchiveBytes("serial replay", buf.Bytes(), b.ref.encoded)
}
