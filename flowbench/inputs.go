package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"flowzip"
	"flowzip/internal/trace"
)

// Input sizes at scale 1. Each generator runs at its default arrival rate
// (flows per second of its default configuration) for enough flows to pass
// tracePackets, and the trace is cut to its first tracePackets packets, so
// every workload and seed measures the same amount of input.
const (
	tracePackets = 600000
	webFlows     = 125000
	bulkFlows    = 4000
)

// How the ingest phases stream the trace into the daemon: in the batches
// `flowzip ingest` sends a trace file in, and in the open-loop phase B at a
// fixed packet rate. The rate is a constant of the benchmark, about a
// quarter of closed-loop capacity on a 2-core Xeon, so the daemon normally
// keeps up and the ack latency measures the data plane rather than a
// growing backlog.
const (
	ingestBatch = trace.DefaultBatch
	openLoopPPS = 500000
)

// workload is one benchmark input shape.
type workload struct {
	name string
	gen  func(seed uint64, scale float64) *flowzip.Trace
}

// workloads lists the benchmark's workloads; README.md records why each
// exists.
var workloads = []workload{
	{name: "web", gen: webTrace},
	{name: "bulk", gen: bulkTrace},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want web or bulk)", name)
}

// scaled returns n·scale, at least 1, and the default duration stretched by
// the same factor as the flow count so the arrival rate is unchanged.
func scaled(n int, scale float64, baseFlows int, baseDur time.Duration) (int, time.Duration) {
	flows := max(1, int(float64(n)*scale))
	return flows, time.Duration(float64(baseDur) * float64(flows) / float64(baseFlows))
}

// webTrace is the paper's workload: the Web generator at its default shape,
// where most packets travel in short flows that reuse a few hundred
// templates.
func webTrace(seed uint64, scale float64) *flowzip.Trace {
	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = seed
	cfg.Flows, cfg.Duration = scaled(webFlows, scale, cfg.Flows, cfg.Duration)
	return flowzip.GenerateWeb(cfg)
}

// bulkTrace is the opposite mix: P2P transfers with keep-alive chatter off
// and a heavy length tail, so nearly every packet is in a long flow.
func bulkTrace(seed uint64, scale float64) *flowzip.Trace {
	cfg := flowzip.DefaultP2PConfig()
	cfg.Seed = seed
	cfg.ChatterProb = 0
	cfg.LengthAlpha = 1.3
	cfg.Flows, cfg.Duration = scaled(bulkFlows, scale, cfg.Flows, cfg.Duration)
	return flowzip.GenerateP2P(cfg)
}

// inputs is what set-up leaves behind: the trace file on disk and a running
// daemon with an empty archive directory.
type inputs struct {
	tracePath string
	daemon    *flowzip.Daemon
	daemonDir string
}

// setUp generates the workload's trace, writes it as a TSH file and starts an
// in-process daemon with the default configuration. It is timed as setup_s.
func setUp(w workload, seed uint64, scale float64, work string, rep int) (inputs, error) {
	in := inputs{
		tracePath: filepath.Join(work, "input.tsh"),
		daemonDir: filepath.Join(work, fmt.Sprintf("daemon%d", rep)),
	}
	tr := w.gen(seed, scale)
	if tr.Len() == 0 {
		return in, fmt.Errorf("workload %s generated an empty trace", w.name)
	}
	tr.Packets = tr.Packets[:min(tr.Len(), max(1, int(tracePackets*scale)))]
	if err := tr.SaveFile(in.tracePath); err != nil {
		return in, fmt.Errorf("write trace: %w", err)
	}
	d, err := flowzip.NewDaemon(flowzip.DaemonConfig{Dir: in.daemonDir})
	if err != nil {
		return in, fmt.Errorf("start daemon: %w", err)
	}
	in.daemon = d
	return in, nil
}

// close stops the daemon and removes its archive directory.
func (in inputs) close() {
	if in.daemon != nil {
		in.daemon.Close()
	}
	os.RemoveAll(in.daemonDir)
}
