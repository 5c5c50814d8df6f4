package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"flowzip"
	"flowzip/internal/pkt"
)

// errGate marks a correctness failure: the program produced wrong output.
// A run that hits one exits non-zero and reports no metrics.
var errGate = errors.New("correctness gate")

func gateErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errGate, fmt.Sprintf(format, args...))
}

// indexed is the container every archive of the benchmark uses: the v2
// footer index, as `flowzip compress -index` and the daemon's default
// segments write it.
var indexed = flowzip.IndexConfig{Enabled: true}

// reference is the serial-Compress answer every mode must reproduce.
type reference struct {
	arch    *flowzip.Archive
	encoded []byte
	stats   flowzip.CompressStats
	packets int
}

// serialReference compresses tr with the packet-at-a-time serial Compressor
// (the byte-identity baseline of every other mode) and encodes the result
// with the footer index.
func serialReference(tr *flowzip.Trace, opts flowzip.Options) (reference, error) {
	c, err := flowzip.NewCompressor(opts)
	if err != nil {
		return reference{}, err
	}
	for i := range tr.Packets {
		c.Add(&tr.Packets[i])
	}
	a := c.Finish()
	a.Index = indexed
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		return reference{}, fmt.Errorf("encode reference: %w", err)
	}
	return reference{arch: a, encoded: buf.Bytes(), stats: c.Stats(), packets: tr.Len()}, nil
}

// checkArchiveBytes requires got to be the reference archive byte for byte.
func checkArchiveBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := min(len(got), len(want))
	at := n
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			at = i
			break
		}
	}
	return gateErr("%s: %d bytes differ from serial Compress+Encode (%d bytes) at offset %d", what, len(got), len(want), at)
}

// checkArchiveFile requires the archive at path to equal the reference, to
// decode, and to re-encode to the same bytes.
func checkArchiveFile(path string, want []byte) error {
	got, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := checkArchiveBytes(path, got, want); err != nil {
		return err
	}
	a, err := flowzip.DecodeArchive(bytes.NewReader(got))
	if err != nil {
		return gateErr("%s does not decode: %v", path, err)
	}
	a.Index = indexed
	var re bytes.Buffer
	if _, err := a.Encode(&re); err != nil {
		return gateErr("%s does not re-encode: %v", path, err)
	}
	return checkArchiveBytes(path+" re-encoded", re.Bytes(), got)
}

// checkPacketCount requires a decompressed trace to keep the source's
// packet count.
func checkPacketCount(what string, got, want int) error {
	if got != want {
		return gateErr("%s: %d packets, source had %d", what, got, want)
	}
	return nil
}

// checkSegment requires a daemon session to have accepted every packet sent
// and written one segment equal to serial Compress over those packets. The
// segment and its sidecar are removed afterwards.
func checkSegment(tenantDir string, session uint64, sum flowzip.SessionSummary, sent int64, want []byte) error {
	if sum.Packets != sent {
		return gateErr("session %d: summary reports %d packets, %d were sent", session, sum.Packets, sent)
	}
	if sum.Archives != 1 {
		return gateErr("session %d: %d segments, want 1", session, sum.Archives)
	}
	paths, err := filepath.Glob(filepath.Join(tenantDir, fmt.Sprintf("s%05d-*.fz", session)))
	if err != nil {
		return err
	}
	if len(paths) != 1 {
		return gateErr("session %d: %d segment files, want 1", session, len(paths))
	}
	meta, err := flowzip.ReadSegmentMeta(paths[0])
	if err != nil {
		return gateErr("session %d: %v", session, err)
	}
	if meta.Session != session || meta.Packets != sent {
		return gateErr("session %d: sidecar names session %d with %d packets", session, meta.Session, meta.Packets)
	}
	got, err := os.ReadFile(paths[0])
	if err != nil {
		return err
	}
	if err := checkArchiveBytes(paths[0], got, want); err != nil {
		return err
	}
	os.Remove(paths[0] + ".fzmeta")
	return os.Remove(paths[0])
}

// flowKey identifies one decompressed flow by the 5-tuple the decompressor
// synthesizes for it; the synthesized server side always uses port 80.
type flowKey struct {
	client pkt.IPv4
	cport  uint16
	server pkt.IPv4
}

func keyOf(p *flowzip.Packet) flowKey {
	if p.SrcPort == 80 {
		return flowKey{client: p.DstIP, cport: p.DstPort, server: p.SrcIP}
	}
	return flowKey{client: p.SrcIP, cport: p.SrcPort, server: p.DstIP}
}

// fullDecode is the query reference: the serial decompression with each
// packet's flow start time and server address.
type fullDecode struct {
	packets []flowzip.Packet
	start   []time.Duration
	server  []pkt.IPv4
}

func newFullDecode(packets []flowzip.Packet) *fullDecode {
	d := &fullDecode{
		packets: packets,
		start:   make([]time.Duration, len(packets)),
		server:  make([]pkt.IPv4, len(packets)),
	}
	first := make(map[flowKey]time.Duration)
	for i := range packets {
		k := keyOf(&packets[i])
		ts, ok := first[k]
		if !ok {
			ts = packets[i].Timestamp
			first[k] = ts
		}
		d.start[i], d.server[i] = ts, k.server
	}
	return d
}

// filter answers a query the slow way: keep the packets of every flow whose
// first packet lies in the window and whose server lies under the prefix.
func (d *fullDecode) filter(f flowzip.FlowFilter) []flowzip.Packet {
	var mask uint32
	if f.PrefixLen > 0 {
		mask = ^uint32(0) << uint(32-f.PrefixLen)
	}
	var out []flowzip.Packet
	for i, ts := range d.start {
		if ts < f.From || (f.To != 0 && ts >= f.To) || uint32(d.server[i])&mask != uint32(f.Prefix)&mask {
			continue
		}
		out = append(out, d.packets[i])
	}
	return out
}

// queryCheck is a query whose answer was fingerprinted while the query
// phase ran, to be compared against the full-decode filter afterwards.
type queryCheck struct {
	kind    string
	filter  flowzip.FlowFilter
	packets int
	digest  uint64
}

func (q queryCheck) verify(d *fullDecode) error {
	want := d.filter(q.filter)
	if q.packets != len(want) || q.digest != digest(want) {
		return gateErr("query %+v returned %d packets (digest %x), filtering the full decode gives %d (digest %x)",
			q.filter, q.packets, q.digest, len(want), digest(want))
	}
	return nil
}

// digest fingerprints a packet sequence over every header field.
func digest(ps []flowzip.Packet) uint64 {
	h := uint64(len(ps))
	mix := func(v uint64) {
		h = (h ^ v) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	for i := range ps {
		p := &ps[i]
		mix(uint64(p.Timestamp))
		mix(uint64(p.SrcIP)<<32 | uint64(p.DstIP))
		mix(uint64(p.SrcPort)<<48 | uint64(p.DstPort)<<32 | uint64(p.Proto)<<24 | uint64(p.Flags)<<16 | uint64(p.Window))
		mix(uint64(p.Seq)<<32 | uint64(p.Ack))
		mix(uint64(p.TTL)<<32 | uint64(p.IPID)<<16 | uint64(p.PayloadLen))
	}
	return h
}
