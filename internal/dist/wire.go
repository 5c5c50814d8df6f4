package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/flow"
	"flowzip/internal/pkt"
)

// Shard-state wire format (".fzshard"): the serialized form of one
// core.ShardResult, the unit shipped from a worker to the coordinator —
// over a file system, an object store or the TCP protocol in this package.
//
//	magic "FZS1" (4 bytes), version byte
//	uvarint header length, then the header:
//	    uvarint shard index, uvarint shard count
//	    uvarint partition seed (flow.PartitionSeed)
//	    8 bytes LE options fingerprint
//	    uvarint total stream packets
//	    uvarint flow count, uvarint template count
//	    options: uvarint w1, w2, w3, shortMax;
//	             8 bytes LE float64 bits of limitPct;
//	             uvarint nonDepGap ns, smallPayload, largePayload;
//	             8 bytes LE seed
//	    8 bytes LE shared-store generation (0 = compressed without one)
//	uvarint templates section length, then per template:
//	    uvarint n, n f-bytes
//	uvarint flows section length, then per flow:
//	    uvarint closing-packet global index
//	    uvarint first timestamp ns
//	    8 bytes LE 5-tuple hash
//	    4 bytes BE server IPv4
//	    flag byte (0: short flow, 1: long flow, 2: shared short flow)
//	    short:  uvarint template id, uvarint rtt ns
//	    long:   uvarint n, n f-bytes, n-1 uvarint gap ns
//	    shared: uvarint shared-store global id, uvarint rtt ns
//	4 bytes LE CRC-32 (IEEE) of everything above
//
// Durations are nanoseconds, not the archive's microseconds: the merge
// orders flows by exact timestamps, so rounding here would break the
// byte-identical invariant. Every length is prefixed and bounded, and the
// trailing checksum covers the whole blob, so a truncated or corrupted
// shard file is always an error, never a panic or a silent partial merge.
//
// Shared short flows (version 2) carry global ids into the
// cluster.SharedStore the shard consulted instead of local template
// indices, so a shard of a shared-template run ships overflow-only state.
// The header's generation stamp identifies that store; a merge resolves
// such blobs only when handed the same store instance
// (core.MergeShardResults), which confines them to the process that
// compressed them — cross-machine runs compress without a shared store and
// write generation 0.

// Magic is the shard-state file signature, distinct from the archive's
// "FZT1" so `flowzip inspect` can dispatch on the first four bytes.
const Magic = "FZS1"

// Version is the shard-state wire format version this package reads and
// writes. Version 2 added the shared-store generation header field and the
// shared short-flow encoding; version 1 blobs are rejected (re-shard, the
// compression is cheap relative to shipping).
const Version = 2

// ErrBadShard reports a stream that is not a valid flowzip shard state.
var ErrBadShard = errors.New("dist: not a flowzip shard state")

// maxCount bounds every decoded count and length so corrupt streams cannot
// drive huge allocations (mirrors core's archive decoder).
const maxCount = 1 << 28

// maxHeaderLen bounds the decoded header section.
const maxHeaderLen = 1 << 12

// ShardHeader is the decoded fixed header of a shard-state blob — what
// `flowzip inspect` prints without parsing the payload.
type ShardHeader struct {
	Index         int
	Count         int
	PartitionSeed uint64
	Fingerprint   uint64 // options fingerprint (core.Options.Fingerprint)
	Packets       int64  // total packets in the source stream
	Flows         int
	Templates     int
	Opts          core.Options
	SharedGen     uint64 // shared-store generation (0 = none)
}

type uvarintWriter struct {
	buf     bytes.Buffer
	scratch [binary.MaxVarintLen64]byte
}

func (w *uvarintWriter) uvarint(v uint64) {
	n := binary.PutUvarint(w.scratch[:], v)
	w.buf.Write(w.scratch[:n])
}

func (w *uvarintWriter) u64le(v uint64) {
	binary.LittleEndian.PutUint64(w.scratch[:8], v)
	w.buf.Write(w.scratch[:8])
}

// encodeOptions appends the canonical serialization of o — shared by the
// shard-state header and the protocol's assign frame so the two cannot
// drift.
func (w *uvarintWriter) encodeOptions(o core.Options) {
	w.uvarint(uint64(o.Weights.Flag))
	w.uvarint(uint64(o.Weights.Dep))
	w.uvarint(uint64(o.Weights.Size))
	w.uvarint(uint64(o.ShortMax))
	w.u64le(math.Float64bits(o.LimitPct))
	w.uvarint(uint64(o.NonDepGap))
	w.uvarint(uint64(o.SmallPayload))
	w.uvarint(uint64(o.LargePayload))
	w.u64le(o.Seed)
}

// decodeOptions parses the canonical Options serialization.
func (s *sectionReader) decodeOptions() (core.Options, error) {
	o := core.DefaultOptions()
	for _, dst := range []*int{&o.Weights.Flag, &o.Weights.Dep, &o.Weights.Size, &o.ShortMax} {
		v, err := s.uvarint()
		if err != nil {
			return o, err
		}
		if v > math.MaxInt32 {
			return o, fmt.Errorf("%w: option value %d overflows", ErrBadShard, v)
		}
		*dst = int(v)
	}
	lim, err := s.bytes(8)
	if err != nil {
		return o, err
	}
	o.LimitPct = math.Float64frombits(binary.LittleEndian.Uint64(lim))
	gap, err := s.duration()
	if err != nil {
		return o, err
	}
	o.NonDepGap = gap
	for _, dst := range []*int{&o.SmallPayload, &o.LargePayload} {
		v, err := s.uvarint()
		if err != nil {
			return o, err
		}
		if v > math.MaxInt32 {
			return o, fmt.Errorf("%w: option value %d overflows", ErrBadShard, v)
		}
		*dst = int(v)
	}
	seed, err := s.bytes(8)
	if err != nil {
		return o, err
	}
	o.Seed = binary.LittleEndian.Uint64(seed)
	return o, nil
}

// EncodeShardState serializes r to w in the .fzshard wire format.
func EncodeShardState(w io.Writer, r *core.ShardResult) error {
	if r.Count < 1 || r.Count > flow.MaxShards {
		return fmt.Errorf("dist: encode shard count %d outside [1,%d]", r.Count, flow.MaxShards)
	}
	if r.Index < 0 || r.Index >= r.Count {
		return fmt.Errorf("dist: encode shard index %d outside [0,%d)", r.Index, r.Count)
	}

	var hdr uvarintWriter
	hdr.uvarint(uint64(r.Index))
	hdr.uvarint(uint64(r.Count))
	hdr.uvarint(flow.PartitionSeed)
	hdr.u64le(r.Opts.Fingerprint())
	hdr.uvarint(uint64(r.Packets))
	hdr.uvarint(uint64(len(r.Flows)))
	hdr.uvarint(uint64(len(r.Templates)))
	hdr.encodeOptions(r.Opts)
	hdr.u64le(r.SharedGen)

	var tpls uvarintWriter
	for _, v := range r.Templates {
		tpls.uvarint(uint64(len(v)))
		tpls.buf.Write(v)
	}

	var flows uvarintWriter
	for i := range r.Flows {
		f := &r.Flows[i]
		flows.uvarint(uint64(f.CloseIdx))
		flows.uvarint(uint64(f.FirstTS))
		flows.u64le(f.Hash)
		var ip [4]byte
		binary.BigEndian.PutUint32(ip[:], uint32(f.Server))
		flows.buf.Write(ip[:])
		if f.Long {
			// The decoder reads exactly len(F)-1 gaps with no count prefix;
			// a violated invariant here would misalign the stream under a
			// valid CRC, so it must never leave the encoder.
			if len(f.LongF) == 0 || len(f.Gaps) != len(f.LongF)-1 {
				return fmt.Errorf("dist: encode flow %d has %d gaps for a %d-packet long flow",
					i, len(f.Gaps), len(f.LongF))
			}
			flows.buf.WriteByte(1)
			flows.uvarint(uint64(len(f.LongF)))
			flows.buf.Write(f.LongF)
			for _, g := range f.Gaps {
				flows.uvarint(uint64(g))
			}
		} else if f.Shared {
			if r.SharedGen == 0 {
				return fmt.Errorf("dist: encode flow %d references a shared template but the result carries no store generation", i)
			}
			if f.Template < 0 {
				return fmt.Errorf("dist: encode flow %d has negative shared template id %d", i, f.Template)
			}
			flows.buf.WriteByte(2)
			flows.uvarint(uint64(f.Template))
			flows.uvarint(uint64(f.RTT))
		} else {
			flows.buf.WriteByte(0)
			if int(f.Template) >= len(r.Templates) {
				return fmt.Errorf("dist: encode flow %d references template %d of %d",
					i, f.Template, len(r.Templates))
			}
			flows.uvarint(uint64(f.Template))
			flows.uvarint(uint64(f.RTT))
		}
	}

	// Sections stream straight to the writer — the CRC accumulates through
	// the MultiWriter, so no fourth copy of the blob is ever resident.
	crc := crc32.NewIEEE()
	out := io.MultiWriter(w, crc)
	if _, err := io.WriteString(out, Magic); err != nil {
		return err
	}
	if _, err := out.Write([]byte{Version}); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	for _, section := range []*uvarintWriter{&hdr, &tpls, &flows} {
		n := binary.PutUvarint(scratch[:], uint64(section.buf.Len()))
		if _, err := out.Write(scratch[:n]); err != nil {
			return err
		}
		if _, err := out.Write(section.buf.Bytes()); err != nil {
			return err
		}
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	_, err := w.Write(sum[:])
	return err
}

// sectionReader parses one length-prefixed section held in memory.
type sectionReader struct {
	b []byte
}

func (s *sectionReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(s.b)
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrBadShard)
	}
	s.b = s.b[n:]
	return v, nil
}

func (s *sectionReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(s.b)) {
		return nil, fmt.Errorf("%w: truncated section (need %d bytes, have %d)", ErrBadShard, n, len(s.b))
	}
	b := s.b[:n]
	s.b = s.b[n:]
	return b, nil
}

// duration reads a nanosecond uvarint, rejecting values that would wrap a
// time.Duration negative — legitimate encoders only ever write
// non-negative timestamps, RTTs and gaps.
func (s *sectionReader) duration() (time.Duration, error) {
	v, err := s.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("%w: duration %d overflows", ErrBadShard, v)
	}
	return time.Duration(v), nil
}

func (s *sectionReader) count(what string) (int, error) {
	v, err := s.uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxCount {
		return 0, fmt.Errorf("%w: %s %d exceeds sanity bound", ErrBadShard, what, v)
	}
	return int(v), nil
}

// readSection reads a uvarint length then that many bytes from r.
func readSection(r io.ByteReader, rd io.Reader, limit uint64, what string) (*sectionReader, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %s length: %v", ErrBadShard, what, err)
	}
	if n > limit {
		return nil, fmt.Errorf("%w: %s length %d exceeds sanity bound", ErrBadShard, what, n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(rd, b); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadShard, what, err)
	}
	return &sectionReader{b: b}, nil
}

// crcReader updates a running CRC with every byte read through it.
type crcReader struct {
	r   io.Reader
	crc *crc32Hash
}

type crc32Hash struct{ h uint32 }

func (c *crc32Hash) update(p []byte) { c.h = crc32.Update(c.h, crc32.IEEETable, p) }

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc.update(p[:n])
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(c, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// decodeHeader parses the header section.
func decodeHeader(s *sectionReader) (*ShardHeader, error) {
	h := &ShardHeader{}
	idx, err := s.uvarint()
	if err != nil {
		return nil, err
	}
	cnt, err := s.uvarint()
	if err != nil {
		return nil, err
	}
	if cnt < 1 || cnt > flow.MaxShards {
		return nil, fmt.Errorf("%w: shard count %d outside [1,%d]", ErrBadShard, cnt, flow.MaxShards)
	}
	if idx >= cnt {
		return nil, fmt.Errorf("%w: shard index %d outside [0,%d)", ErrBadShard, idx, cnt)
	}
	h.Index, h.Count = int(idx), int(cnt)
	if h.PartitionSeed, err = s.uvarint(); err != nil {
		return nil, err
	}
	if h.PartitionSeed != flow.PartitionSeed {
		return nil, fmt.Errorf("%w: partition seed %d, this build uses %d — shards were partitioned by an incompatible scheme",
			ErrBadShard, h.PartitionSeed, flow.PartitionSeed)
	}
	fp, err := s.bytes(8)
	if err != nil {
		return nil, err
	}
	h.Fingerprint = binary.LittleEndian.Uint64(fp)
	pkts, err := s.uvarint()
	if err != nil {
		return nil, err
	}
	if pkts > math.MaxInt64 {
		return nil, fmt.Errorf("%w: packet count overflows", ErrBadShard)
	}
	h.Packets = int64(pkts)
	if h.Flows, err = s.count("flow count"); err != nil {
		return nil, err
	}
	if h.Templates, err = s.count("template count"); err != nil {
		return nil, err
	}

	o, err := s.decodeOptions()
	if err != nil {
		return nil, err
	}
	h.Opts = o
	if got := o.Fingerprint(); got != h.Fingerprint {
		return nil, fmt.Errorf("%w: options fingerprint %016x does not match the decoded options (%016x) — mixed or corrupt header",
			ErrBadShard, h.Fingerprint, got)
	}
	gen, err := s.bytes(8)
	if err != nil {
		return nil, err
	}
	h.SharedGen = binary.LittleEndian.Uint64(gen)
	return h, nil
}

// readMagic consumes and checks the magic and version bytes.
func readMagic(r io.Reader) error {
	var m [5]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadShard, err)
	}
	if string(m[:4]) != Magic {
		return ErrBadShard
	}
	if m[4] != Version {
		return fmt.Errorf("%w: unsupported shard format version %d (this build reads version %d)",
			ErrBadShard, m[4], Version)
	}
	return nil
}

// ReadShardHeader decodes only the header of a shard-state stream — enough
// for `flowzip inspect` and for the coordinator to validate a blob before
// committing to the full parse. It does not verify the trailing checksum.
func ReadShardHeader(r io.Reader) (*ShardHeader, error) {
	if err := readMagic(r); err != nil {
		return nil, err
	}
	br, ok := r.(io.ByteReader)
	if !ok {
		br = &plainByteReader{r}
	}
	hdr, err := readSection(br, r, maxHeaderLen, "header")
	if err != nil {
		return nil, err
	}
	return decodeHeader(hdr)
}

type plainByteReader struct{ r io.Reader }

func (p *plainByteReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(p.r, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// DecodeShardState parses and fully validates a shard-state stream,
// including the trailing checksum.
func DecodeShardState(r io.Reader) (*core.ShardResult, error) {
	crc := &crc32Hash{}
	cr := &crcReader{r: r, crc: crc}
	if err := readMagic(cr); err != nil {
		return nil, err
	}
	hdrSec, err := readSection(cr, cr, maxHeaderLen, "header")
	if err != nil {
		return nil, err
	}
	h, err := decodeHeader(hdrSec)
	if err != nil {
		return nil, err
	}

	tplSec, err := readSection(cr, cr, maxCount, "templates section")
	if err != nil {
		return nil, err
	}
	// Each template costs at least one byte on the wire, so the header
	// count cannot exceed the section we just read — checked before the
	// allocation, so a crafted header cannot drive one far beyond the
	// blob's actual size.
	if h.Templates > len(tplSec.b) {
		return nil, fmt.Errorf("%w: template count %d exceeds a %d-byte templates section",
			ErrBadShard, h.Templates, len(tplSec.b))
	}
	templates := make([]flow.Vector, h.Templates)
	for i := range templates {
		n, err := tplSec.count("template length")
		if err != nil {
			return nil, fmt.Errorf("dist: template %d: %w", i, err)
		}
		b, err := tplSec.bytes(uint64(n))
		if err != nil {
			return nil, fmt.Errorf("dist: template %d: %w", i, err)
		}
		templates[i] = flow.Vector(append([]byte(nil), b...))
	}
	if len(tplSec.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in templates section", ErrBadShard, len(tplSec.b))
	}

	flowSec, err := readSection(cr, cr, maxCount, "flows section")
	if err != nil {
		return nil, err
	}
	// Same bound for flows: the smallest flow encoding (varint close index
	// and timestamp, 8-byte hash, 4-byte address, flag byte, then the
	// short or long payload) is 16 bytes.
	const minFlowBytes = 16
	if uint64(h.Flows)*minFlowBytes > uint64(len(flowSec.b)) {
		return nil, fmt.Errorf("%w: flow count %d exceeds a %d-byte flows section",
			ErrBadShard, h.Flows, len(flowSec.b))
	}
	flows := make([]core.ShardFlow, h.Flows)
	for i := range flows {
		f, err := decodeFlow(flowSec, h)
		if err != nil {
			return nil, fmt.Errorf("dist: flow %d: %w", i, err)
		}
		flows[i] = f
	}
	if len(flowSec.b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in flows section", ErrBadShard, len(flowSec.b))
	}

	want := crc.h
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: checksum: %v", ErrBadShard, err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrBadShard, got, want)
	}

	return &core.ShardResult{
		Index:     h.Index,
		Count:     h.Count,
		Packets:   h.Packets,
		Opts:      h.Opts,
		Flows:     flows,
		Templates: templates,
		SharedGen: h.SharedGen,
	}, nil
}

func decodeFlow(s *sectionReader, h *ShardHeader) (core.ShardFlow, error) {
	var f core.ShardFlow
	closeIdx, err := s.uvarint()
	if err != nil {
		return f, err
	}
	if closeIdx > math.MaxInt64 {
		return f, fmt.Errorf("%w: closing index overflows", ErrBadShard)
	}
	f.CloseIdx = int64(closeIdx)
	ts, err := s.duration()
	if err != nil {
		return f, err
	}
	f.FirstTS = ts
	hash, err := s.bytes(8)
	if err != nil {
		return f, err
	}
	f.Hash = binary.LittleEndian.Uint64(hash)
	ip, err := s.bytes(4)
	if err != nil {
		return f, err
	}
	f.Server = pkt.IPv4(binary.BigEndian.Uint32(ip))
	f.Shard = uint16(h.Index)
	flags, err := s.bytes(1)
	if err != nil {
		return f, err
	}
	switch flags[0] {
	case 1:
		f.Long = true
		n, err := s.count("long vector length")
		if err != nil {
			return f, err
		}
		if n < 1 {
			return f, fmt.Errorf("%w: empty long vector", ErrBadShard)
		}
		b, err := s.bytes(uint64(n))
		if err != nil {
			return f, err
		}
		f.LongF = flow.Vector(append([]byte(nil), b...))
		// Each gap costs at least one byte on the wire, so the vector length
		// cannot imply more gaps than the section has bytes left — checked
		// before the allocation, so a crafted length cannot demand
		// gigabytes.
		if n-1 > len(s.b) {
			return f, fmt.Errorf("%w: %d gaps exceed a %d-byte flows section", ErrBadShard, n-1, len(s.b))
		}
		f.Gaps = make([]time.Duration, n-1)
		for g := range f.Gaps {
			v, err := s.duration()
			if err != nil {
				return f, err
			}
			f.Gaps[g] = v
		}
	case 0:
		tpl, err := s.uvarint()
		if err != nil {
			return f, err
		}
		if tpl >= uint64(h.Templates) {
			return f, fmt.Errorf("%w: short flow references template %d of %d", ErrBadShard, tpl, h.Templates)
		}
		f.Template = int32(tpl)
		rtt, err := s.duration()
		if err != nil {
			return f, err
		}
		f.RTT = rtt
	case 2:
		if h.SharedGen == 0 {
			return f, fmt.Errorf("%w: shared short flow in a blob with no shared-store generation", ErrBadShard)
		}
		gid, err := s.uvarint()
		if err != nil {
			return f, err
		}
		// The store is not available at decode time; bound the id to what
		// an int32 reference can address and let the merge validate it
		// against the actual store.
		if gid > math.MaxInt32 {
			return f, fmt.Errorf("%w: shared template id %d overflows", ErrBadShard, gid)
		}
		f.Shared = true
		f.Template = int32(gid)
		rtt, err := s.duration()
		if err != nil {
			return f, err
		}
		f.RTT = rtt
	default:
		return f, fmt.Errorf("%w: unknown flow flag byte %#x", ErrBadShard, flags[0])
	}
	return f, nil
}
