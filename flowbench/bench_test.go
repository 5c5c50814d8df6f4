package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flowzip"
)

// manifest is the part of BENCHMARK.json the benchmark must honour.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSmokeEveryWorkload runs each workload at a tiny scale, untraced and
// traced, and requires the result line to carry exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	m := loadManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 3, seconds: 0.2, traced: traced, scale: 0.01, dir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			var out bytes.Buffer
			if err := res.write(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Correct   bool              `json:"correct"`
				Attempted int64             `json:"attempted"`
				Failed    int64             `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", w.Name, traced, err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, line.Correct, line.Attempted, line.Failed)
			}
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := line.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, d.Name)
					continue
				}
				if got.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.Name, traced, d.Name, got.Unit, d.Unit)
				}
			}
			if traced {
				if _, err := os.Stat(res.trace); err != nil {
					t.Errorf("%s: no Perfetto trace: %v", w.Name, err)
				}
			}
		}
	}
}

// tinyReference compresses a small Web trace the reference way.
func tinyReference(t *testing.T) (*flowzip.Trace, reference) {
	t.Helper()
	tr := webTrace(5, 0.01)
	ref, err := serialReference(tr, flowzip.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tr, ref
}

func wantGate(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, errGate) {
		t.Errorf("%s: got %v, want a correctness gate failure", what, err)
	}
}

// TestGateRejectsCorruptArchive feeds the archive check a file that differs
// from serial Compress by one byte, and a truncated one.
func TestGateRejectsCorruptArchive(t *testing.T) {
	_, ref := tinyReference(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.fz")
	if err := os.WriteFile(good, ref.encoded, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkArchiveFile(good, ref.encoded); err != nil {
		t.Fatalf("the reference archive itself fails the gate: %v", err)
	}
	flipped := append([]byte(nil), ref.encoded...)
	flipped[len(flipped)/2] ^= 0x40
	bad := filepath.Join(dir, "flipped.fz")
	if err := os.WriteFile(bad, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	wantGate(t, "flipped byte", checkArchiveFile(bad, ref.encoded))
	short := filepath.Join(dir, "short.fz")
	if err := os.WriteFile(short, ref.encoded[:len(ref.encoded)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	wantGate(t, "truncated", checkArchiveFile(short, ref.encoded))
}

// TestGateRejectsWrongPacketCount covers a decode that lost a packet and a
// daemon session whose summary or segment disagrees with what was sent.
func TestGateRejectsWrongPacketCount(t *testing.T) {
	tr, ref := tinyReference(t)
	wantGate(t, "decoded count", checkPacketCount("decompress", tr.Len()-1, tr.Len()))

	dir := t.TempDir()
	d, err := flowzip.NewDaemon(flowzip.DaemonConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ingest := func() (uint64, flowzip.SessionSummary) {
		c, err := flowzip.DialDaemon(d.Addr().String(), tenant, flowzip.DefaultOptions(), flowzip.NetConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(tr.Packets); err != nil {
			t.Fatal(err)
		}
		sum, err := c.Close()
		if err != nil {
			t.Fatal(err)
		}
		return c.SessionID(), sum
	}
	tenantDir := filepath.Join(dir, tenant)
	sent := int64(tr.Len())

	id, sum := ingest()
	wantGate(t, "session packet count", checkSegment(tenantDir, id, sum, sent+1, ref.encoded))

	id, sum = ingest()
	segs, _ := filepath.Glob(filepath.Join(tenantDir, "*.fz"))
	for _, s := range segs {
		blob, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)/3] ^= 1
		if err := os.WriteFile(s, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantGate(t, "corrupt segment", checkSegment(tenantDir, id, sum, sent, ref.encoded))

	id, sum = ingest()
	if err := checkSegment(tenantDir, id, sum, sent, ref.encoded); err != nil {
		t.Errorf("a correct session fails the gate: %v", err)
	}
}

// TestGateRejectsWrongQueryAnswer checks a sampled answer of each query
// kind, a server prefix and a time window, against the full decode with a
// right and a wrong fingerprint.
func TestGateRejectsWrongQueryAnswer(t *testing.T) {
	_, ref := tinyReference(t)
	full, err := flowzip.Decompress(ref.arch)
	if err != nil {
		t.Fatal(err)
	}
	fd := newFullDecode(full.Packets)
	r, err := flowzip.OpenArchive(bytes.NewReader(ref.encoded), int64(len(ref.encoded)))
	if err != nil {
		t.Fatal(err)
	}
	from := ref.arch.TimeSeq[len(ref.arch.TimeSeq)/2].FirstTS
	for _, q := range []query{
		{"prefix", flowzip.FlowFilter{Prefix: ref.arch.Addresses[0] &^ 0xff, PrefixLen: 24}},
		{"window", flowzip.FlowFilter{From: from, To: from + queryWindow}},
	} {
		got, err := r.ExtractFlows(q.filter)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() == 0 {
			t.Fatalf("the %s query selects nothing; pick a populated one", q.kind)
		}
		ok := queryCheck{kind: q.kind, filter: q.filter, packets: got.Len(), digest: digest(got.Packets)}
		if err := ok.verify(fd); err != nil {
			t.Fatalf("a correct %s answer fails the gate: %v", q.kind, err)
		}
		bad := ok
		bad.digest++
		wantGate(t, "wrong "+q.kind+" answer", bad.verify(fd))
		bad = ok
		bad.packets--
		wantGate(t, "short "+q.kind+" answer", bad.verify(fd))
		bad = ok
		bad.filter.To += time.Second
		wantGate(t, "widened "+q.kind+" filter", bad.verify(fd))
	}
}

// TestLayerTimes checks busy and self time on nested spans: a parent's self
// time excludes its children, a span nested in its own layer is not counted
// twice as busy.
func TestLayerTimes(t *testing.T) {
	r := newRecorder("test")
	r.spans = []spanRec{
		{layer: "bench", name: "rep", tid: 1, start: timeAt(0), end: timeAt(100)},
		{layer: "core", name: "a", tid: 1, start: timeAt(10), end: timeAt(40)},
		{layer: "core", name: "b", tid: 1, start: timeAt(20), end: timeAt(30)},
		{layer: "trace", name: "c", tid: 1, start: timeAt(50), end: timeAt(70)},
		{layer: "dist", name: "d", tid: 2, start: timeAt(0), end: timeAt(100)},
	}
	got := map[string]layerTime{}
	for _, lt := range r.layerTimes() {
		got[lt.Layer] = lt
	}
	check := func(layer string, busy, self float64) {
		t.Helper()
		lt := got[layer]
		if !near(lt.BusyS, busy) || !near(lt.SelfS, self) {
			t.Errorf("%s: busy %.3f self %.3f, want %.3f %.3f", layer, lt.BusyS, lt.SelfS, busy, self)
		}
	}
	check("bench", 0.100, 0.050)
	check("core", 0.030, 0.030)
	check("trace", 0.020, 0.020)
	check("dist", 0.100, 0.100)
}

func timeAt(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
