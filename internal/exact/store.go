package exact

// Persistent table store: a versioned, checksummed, mmap-friendly binary
// format for fully filled DP tables, so a daemon restart (or a CLI
// pre-build) keeps a network's Theorem 2 precomputation.
//
// Table file format (version 2), every fixed-width field little-endian:
//
//	offset   size           field
//	     0      8           magic "HNOWTBL\0"
//	     8      4           format version (currently 2)
//	    12      4           CRC-32C (Castagnoli) of every byte from offset 16 on
//	    16      8           network latency (int64)
//	    24      4           k: number of distinct types
//	    28      4           planes: stored source planes after equal-Send dedup
//	    32      16k         types: k (send int64, recv int64) pairs, strictly
//	                        ascending by (send, recv)
//	 32+16k     8k          per-type destination counts (int64)
//	 32+24k     8·planes·P  value array, plane-major, laid out exactly as the
//	                        in-memory DP (value[plane*P + vecState]);
//	                        P = prod(counts[j]+1); every value is in [0, inf)
//
// The file is the values and nothing else: an optimal tree is re-derived
// from them (DP.ScheduleFor), so no per-state split is stored. Version 1
// files, which carried a choice array after the values, are rejected.
//
// The header length 32+24k is a multiple of 8, so in a file buffer that is
// itself 8-byte aligned (any Go heap allocation, any mmap) the value array
// is aligned too: on a little-endian host a load reinterprets it in place —
// one read plus a checksum-and-bounds pass, no per-state decode. The plane
// indirection is not stored; it is a pure function of the type list and is
// re-derived (and cross-checked against the stored plane count) on load,
// so dedup shrinks files by the same K/Planes factor as memory.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"unsafe"

	"repro/internal/model"
)

// ErrBadTable marks a table file rejected by validation — truncated,
// corrupt, version-skewed or otherwise implausible — as opposed to an
// I/O error opening, reading or mapping it. ReadTableFile and
// OpenTableMapped wrap validation failures with it so callers can tell
// "this file is garbage, stop routing to it" from "the open failed,
// the file may be fine" (check with errors.Is).
var ErrBadTable = errors.New("invalid table file")

const (
	tableMagic = "HNOWTBL\x00"
	// TableFormatVersion is the on-disk format version WriteTo emits and
	// ReadTableBytes accepts. Files with any other version are rejected.
	TableFormatVersion = 2
	// maxTableTypes bounds the type count a file header may claim, so a
	// corrupt header cannot demand absurd allocations before validation.
	maxTableTypes = 1 << 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var hostLittleEndian = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// leBytes returns the little-endian byte image of v: a zero-copy
// reinterpretation on little-endian hosts, an encoded copy elsewhere.
func leBytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
	}
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// leWords is the inverse of leBytes: it views b (whose length must be a
// multiple of 8) as little-endian 64-bit words, in place when the host is
// little-endian and b is 8-byte aligned, by decoded copy otherwise.
func leWords(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// WriteTo serializes the table in the versioned on-disk format described
// above, implementing io.WriterTo. Every Table is fully filled, so every
// persisted table answers every query.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	dp := t.dp
	k := len(dp.types)
	le := binary.LittleEndian
	header := make([]byte, 32+24*k)
	copy(header, tableMagic)
	le.PutUint32(header[8:], TableFormatVersion)
	le.PutUint64(header[16:], uint64(dp.latency))
	le.PutUint32(header[24:], uint32(k))
	le.PutUint32(header[28:], uint32(len(dp.planeSrc)))
	off := 32
	for _, ty := range dp.types {
		le.PutUint64(header[off:], uint64(ty.Send))
		le.PutUint64(header[off+8:], uint64(ty.Recv))
		off += 16
	}
	for _, c := range dp.counts {
		le.PutUint64(header[off:], uint64(c))
		off += 8
	}
	valueBytes := leBytes(dp.value)
	crc := crc32.Update(0, castagnoli, header[16:])
	crc = crc32.Update(crc, castagnoli, valueBytes)
	le.PutUint32(header[12:], crc)
	var n int64
	for _, b := range [][]byte{header, valueBytes} {
		m, err := w.Write(b)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// parseTableHeader validates the fixed-size header of a table file (data
// may be a header-only prefix; the payload is not consulted) and returns
// the validated geometry plus the header length.
func parseTableHeader(data []byte) (*DP, int, error) {
	le := binary.LittleEndian
	if len(data) < 32 {
		return nil, 0, fmt.Errorf("exact: table file truncated (%d bytes)", len(data))
	}
	if string(data[:8]) != tableMagic {
		return nil, 0, fmt.Errorf("exact: not a table file (bad magic)")
	}
	if v := le.Uint32(data[8:]); v != TableFormatVersion {
		return nil, 0, fmt.Errorf("exact: unsupported table format version %d (want %d)", v, TableFormatVersion)
	}
	latency := int64(le.Uint64(data[16:]))
	k := int(le.Uint32(data[24:]))
	planes := int(le.Uint32(data[28:]))
	if k <= 0 || k > maxTableTypes {
		return nil, 0, fmt.Errorf("exact: implausible type count %d", k)
	}
	headerLen := 32 + 24*k
	if len(data) < headerLen {
		return nil, 0, fmt.Errorf("exact: table file truncated (header needs %d bytes, have %d)", headerLen, len(data))
	}
	types := make([]Type, k)
	off := 32
	for j := range types {
		types[j] = Type{Send: int64(le.Uint64(data[off:])), Recv: int64(le.Uint64(data[off+8:]))}
		if j > 0 {
			prev := types[j-1]
			if types[j].Send < prev.Send || (types[j].Send == prev.Send && types[j].Recv <= prev.Recv) {
				return nil, 0, fmt.Errorf("exact: table types not in strict (send, recv) order")
			}
		}
		off += 16
	}
	counts := make([]int, k)
	for j := range counts {
		c := int64(le.Uint64(data[off:]))
		if c < 0 || c > math.MaxInt32 {
			return nil, 0, fmt.Errorf("exact: implausible count %d for type %d", c, j)
		}
		counts[j] = int(c)
		off += 8
	}
	// newGeometry re-validates everything it validates for a fresh build
	// (positive latency and overheads, distinct types, MaxStates) and
	// re-derives the plane indirection from the type list.
	dp, err := newGeometry(latency, types, counts)
	if err != nil {
		return nil, 0, err
	}
	if len(dp.planeSrc) != planes {
		return nil, 0, fmt.Errorf("exact: header claims %d planes, types imply %d", planes, len(dp.planeSrc))
	}
	return dp, headerLen, nil
}

// TableHeader is the network identity a table file declares: enough to
// decide whether the table covers a multicast without touching the
// payload. Header-only reads cannot verify the checksum — treat the
// result as a routing hint and let a full ReadTableBytes validate before
// trusting any values.
type TableHeader struct {
	Latency int64
	Types   []Type
	Counts  []int
	Planes  int
}

// Covers reports whether a table with this header answers the set:
// same latency, every node's type in the inventory, per-type destination
// counts within bounds. It mirrors Table.LookupSet's coverage rule.
func (h *TableHeader) Covers(set *model.MulticastSet) bool {
	if set == nil || len(set.Nodes) == 0 || set.Latency != h.Latency {
		return false
	}
	typeOf := func(n model.Node) int {
		for j, ty := range h.Types {
			if ty.Send == n.Send && ty.Recv == n.Recv {
				return j
			}
		}
		return -1
	}
	if typeOf(set.Nodes[0]) < 0 {
		return false
	}
	need := make([]int, len(h.Types))
	for _, n := range set.Nodes[1:] {
		j := typeOf(n)
		if j < 0 {
			return false
		}
		need[j]++
		if need[j] > h.Counts[j] {
			return false
		}
	}
	return true
}

// ReadTableHeaderFile reads and validates only a table file's header —
// two small reads, independent of table size — so callers can scan a
// spill directory for a covering network cheaply.
func ReadTableHeaderFile(path string) (*TableHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fixed := make([]byte, 32)
	if _, err := io.ReadFull(f, fixed); err != nil {
		return nil, fmt.Errorf("exact: %s: reading table header: %w", path, err)
	}
	k := int(binary.LittleEndian.Uint32(fixed[24:]))
	if k <= 0 || k > maxTableTypes {
		return nil, fmt.Errorf("exact: %s: implausible type count %d", path, k)
	}
	header := append(fixed, make([]byte, 24*k)...)
	if _, err := io.ReadFull(f, header[32:]); err != nil {
		return nil, fmt.Errorf("exact: %s: reading table header: %w", path, err)
	}
	dp, _, err := parseTableHeader(header)
	if err != nil {
		return nil, err
	}
	return &TableHeader{Latency: dp.latency, Types: dp.Types(), Counts: dp.Counts(), Planes: len(dp.planeSrc)}, nil
}

// ReadTableBytes decodes a table from the bytes of a file in the WriteTo
// format. On little-endian hosts the returned table aliases data's value
// region (no copy, no per-state decode), so data must not be
// modified afterwards — this is the mmap path: map the file and hand the
// bytes here. Truncated, corrupted, version-skewed or otherwise implausible
// inputs are rejected with an error wrapping ErrBadTable; ReadTableBytes
// never panics on malformed input and never returns a table that fails
// its checksum. This is the trust boundary for bytes from peers as well
// as files, so the validation-failure marker lives here rather than on
// the file-reading wrappers.
func ReadTableBytes(data []byte) (*Table, error) {
	t, err := readTableBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadTable, err)
	}
	return t, nil
}

func readTableBytes(data []byte) (*Table, error) {
	dp, headerLen, err := parseTableHeader(data)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	words := int64(len(dp.planeSrc)) * dp.prod
	if want := int64(headerLen) + 8*words; int64(len(data)) != want {
		return nil, fmt.Errorf("exact: table file is %d bytes, header implies %d", len(data), want)
	}
	if got, stored := crc32.Checksum(data[16:], castagnoli), le.Uint32(data[12:]); got != stored {
		return nil, fmt.Errorf("exact: table checksum mismatch (file %08x, computed %08x)", stored, got)
	}
	value := leWords(data[headerLen:])
	// Bounding every value below inf keeps each sum ScheduleFor forms
	// (value + S + L + R, overheads at most model.MaxCost) inside int64.
	for _, v := range value {
		if v < 0 || v >= inf {
			return nil, fmt.Errorf("exact: table value %d outside [0, %d)", v, inf)
		}
	}
	dp.value = value
	// No pmin/cascade and no layer ordering: a loaded table is fully
	// filled, so the fill that would need them never runs.
	dp.filled = true
	return &Table{dp: dp}, nil
}

// WriteTableFile atomically persists the table at path: it writes a
// temporary file in the same directory, syncs, and renames over path, so
// concurrent readers never observe a partial table.
func WriteTableFile(path string, t *Table) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".hnowtbl-*")
	if err != nil {
		return fmt.Errorf("exact: creating temp table file: %w", err)
	}
	tmp := f.Name()
	_, err = t.WriteTo(f)
	if err == nil {
		// CreateTemp makes the file 0600 and rename preserves it; the
		// spill is meant to be shared (CLI pre-build feeding a daemon
		// running as a service account), so open it up like a normal
		// artifact.
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("exact: writing table file %s: %w", path, err)
	}
	return nil
}

// ReadTableFile loads a table persisted by WriteTableFile. Validation
// failures (as opposed to read errors) are wrapped with ErrBadTable.
func ReadTableFile(path string) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := ReadTableBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
